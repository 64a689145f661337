"""One fresh interpreter of a benchmark run; started by run.py, not by hand.

Imports robustctl from the checkout's ``src/``, sets the workload up and
writes the moment it became ready (CLOCK_MONOTONIC, which run.py compares
with the moment it started this process).  Unless ``--setup-only`` is
given it then repeats the workload for up to ``--seconds`` and
writes the timings, checks, digests and peak memory as JSON to
``--result``.  With ``--trace 1`` set-up is traced and untraced and traced
repetitions alternate, so the tracing overhead and the traced-vs-untraced
digest comparison come from one process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace-file", default=None)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    import_start = time.clock_gettime(time.CLOCK_MONOTONIC)
    import robustctl
    import_end = time.clock_gettime(time.CLOCK_MONOTONIC)
    if not os.path.abspath(robustctl.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported robustctl from {robustctl.__file__}, not {SRC}")

    import settings
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}",
                                workloads.clock)
        tracer.record("import", import_start, import_end)
        tracer.install()
    workload = workloads.WORKLOAD_TYPES[args.workload](
        settings.WORKLOADS[args.workload], args.seed, args.workdir)
    workload.setup()
    ready = workloads.clock()
    result = {"ready": ready, "import_s": import_end - import_start}
    if args.setup_only:
        return _write(args.result, result)

    reps, traced_reps = [], []
    deadline = ready + args.seconds
    if tracer is not None:
        tracer.uninstall()
    # A round (one repetition, or one untraced/traced pair) starts only if
    # one more round of the last round's length still ends by the deadline,
    # so a run stays within --seconds after set-up.  The first always runs.
    last_round = 0.0
    while not reps or workloads.clock() + last_round <= deadline:
        round_start = workloads.clock()
        if tracer is None:
            reps.append(_one_rep(workload))
        else:
            # Untraced and traced repetitions alternate, and each pair swaps
            # which goes first, so a slow first call or a drift in machine
            # speed does not land on one side of the overhead.
            for traced in ((False, True) if len(reps) % 2 == 0 else (True, False)):
                if traced:
                    tracer.phase = len(traced_reps)
                    tracer.install()
                    traced_reps.append(_one_rep(workload))
                    tracer.uninstall()
                else:
                    reps.append(_one_rep(workload))
        last_round = workloads.clock() - round_start

    result.update({
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": _version("numpy"), "scipy": _version("scipy"),
                     "robustctl": robustctl.__version__},
    })
    if tracer is not None:
        result["traced_reps"] = traced_reps
        layers = tracer.per_layer(list(range(len(traced_reps))))
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_reps)
                                      - statistics.median(r["wall_s"] for r in reps))
        result["per_layer"] = layers
        if args.trace_file:
            tracer.write_jsonl(args.trace_file)
    return _write(args.result, result)


def _one_rep(workload) -> dict:
    out, phases = workload.rep()
    return {**phases,
            "work": workload.work(out, phases),
            "checks": [[cid, bool(ok), detail] for cid, ok, detail in workload.checks(out)],
            "digest": workload.digest(out)}


def _version(package: str) -> str:
    module = sys.modules.get(package)
    return getattr(module, "__version__", "unknown")


def _write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
