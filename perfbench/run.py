"""robustctl benchmark: one workload, one run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload value_pennies --seed 1 --seconds 60 --trace 0

Workloads: value_pennies, pipeline_drift (see README.md beside this file).  The package is imported from the checkout's ``src/``;
nothing needs to be built or installed.

With ``--trace 0`` the run starts several fresh interpreters to time
set-up (the median is reported); the middle one also repeats the workload
untraced for up to ``--seconds``.  With ``--trace 1`` a single interpreter
traces set-up and alternates untraced and traced repetitions, and the run
reports the per-layer metrics.  Every repetition's outputs are checked.

Human-readable results come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, holding the metrics BENCHMARK.json lists for the mode.  Spans
of a traced run are written to ``.bench_out/traces/`` as JSONL.  Exit
status is 0 when a result was printed, non-zero (with no result) when the
run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import settings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class BenchError(Exception):
    """The run could not be made; reported on stderr, no result printed."""


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Run one workload of the robustctl benchmark.")
    p.add_argument("--workload", required=True, choices=sorted(settings.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(argv: list, deadline: float) -> float:
    """Start worker.py, wait for it; returns the CLOCK_MONOTONIC start time."""
    start = clock()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker passed the {settings.TIME_LIMIT_S:.0f} s limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        tail = err.decode(errors="replace")[-4000:]
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    return start


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summarize_checks(reps: list) -> tuple:
    """(attempted, failed ids) over all repetitions, digest agreement included."""
    attempted, failed = 0, []
    for rep in reps:
        for cid, ok, detail in rep["checks"]:
            attempted += 1
            if not ok:
                failed.append(f"{cid}: {detail}")
    digests = sorted({rep["digest"] for rep in reps})
    attempted += 1
    if len(digests) != 1:
        failed.append(f"digest: repetitions of identical inputs differ ({len(digests)} digests)")
    return attempted, failed


def median_of(reps: list, key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def measure(args, workdir: str, deadline: float) -> tuple:
    """Untraced run: (metrics, details, reps)."""
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", "0", "--workdir", workdir]
    # Set-up-only interpreters run both before and after the timed one, so
    # set-up is sampled at both ends of the run and a slow spell of the
    # machine at one end moves the median less.
    timed = settings.N_SETUPS // 2
    setups = []
    for i in range(settings.N_SETUPS):
        result_path = os.path.join(workdir, f"result-{i}.json")
        start = run_worker(common + ["--result", result_path]
                           + ([] if i == timed else ["--setup-only"]), deadline)
        sample = read_json(result_path)
        setups.append(sample["ready"] - start)
        if i == timed:
            result = sample
    reps = result["reps"]
    walls = [rep["wall_s"] for rep in reps]
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": result["peak_rss_mb"]}
    for key in reps[0]["work"]:
        metrics[key] = statistics.median(rep["work"][key] for rep in reps)
    details = {"setup_samples_s": setups, "wall_samples_s": walls,
               "import_s": result["import_s"], "versions": result["versions"]}
    return metrics, details, reps


def measure_traced(args, workdir: str, deadline: float) -> tuple:
    """Traced run: (per-layer metrics, details, all reps)."""
    traces = os.path.join(ROOT, settings.OUT_DIR, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_file = os.path.join(traces, f"trace-{args.workload}-seed{args.seed}.jsonl")
    result_path = os.path.join(workdir, "result.json")
    run_worker(["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "1", "--workdir", workdir,
                "--result", result_path, "--trace-file", trace_file], deadline)
    result = read_json(result_path)
    reps, traced = result["reps"], result["traced_reps"]
    details = {"untraced_wall_s": median_of(reps, "wall_s"),
               "traced_wall_s": median_of(traced, "wall_s"),
               "trace_file": os.path.relpath(trace_file, ROOT),
               "versions": result["versions"]}
    return result["per_layer"], details, reps + traced


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = clock() + settings.TIME_LIMIT_S
    wl = settings.WORKLOADS[args.workload]
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "robustctl", "__init__.py")):
            raise BenchError(f"no robustctl sources under {os.path.join(ROOT, 'src')}; "
                             "run from a full source checkout")
        if wl["threads"] > nproc():
            raise BenchError(f"workload {args.workload} uses {wl['threads']} threads "
                             f"but only {nproc()} CPUs are available")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        out_root = os.path.join(ROOT, settings.OUT_DIR)
        os.makedirs(out_root, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
        try:
            if args.trace:
                measured, details, reps = measure_traced(args, workdir, deadline)
            else:
                measured, details, reps = measure(args, workdir, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    listed = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in measured]
    if missing:
        print(f"benchmark error: not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    attempted, failed = summarize_checks(reps)
    if args.trace:
        digests = {rep["digest"] for rep in reps}
        details["traced_digest_matches_untraced"] = len(digests) == 1

    units = {m["name"]: m["unit"] for m in listed}
    extra_units = {"path_steps_per_s": "1/s"}
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {mode}  "
          f"{len(reps)} repetitions in {args.seconds} s")
    for name, value in measured.items():
        unit = units.get(name) or extra_units.get(name, "")
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'failed_share':<44} {len(failed) / attempted:>16.6g} "
          f"({len(failed)} of {attempted} checks)")
    for line in failed:
        print(f"  FAILED {line}")
    print(f"  digest sha256:{reps[0]['digest']}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "settings": wl,
        "machine": {"nproc": nproc(), "cpu_model": cpu_model(),
                    "python": platform.python_version(), "platform": platform.platform()},
        "git_commit": git_commit(), "digest": reps[0]["digest"],
        "failed_share": len(failed) / attempted, "failed_checks": failed,
        "measured": measured, **details,
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
