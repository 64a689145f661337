"""The workloads, driven only through robustctl's public functions.

Each workload has ``setup()`` (everything a run needs before its first
timed call), ``rep()`` (one timed repetition: returns its outputs and the
durations of its phases), ``checks(out)`` (the correctness gate),
``digest(out)`` (a SHA-256 of the outputs, so that two commits can be shown
to produce the same bits) and ``work(out, phases)`` (throughputs).

Wrapped functions are always looked up on their module at call time
(``rc.solve_isaacs``, ``rc.cli.main``), so that the traced run's
replacements of those module attributes see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import time

import numpy as np

import robustctl as rc
import robustctl.cli  # noqa: F401  (makes rc.cli available)
import robustctl.config  # noqa: F401


def clock() -> float:
    """CLOCK_MONOTONIC, comparable between processes on one machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ValuePennies:
    """value_experiment on pennies against the lower field at (0, 0)."""

    def __init__(self, settings: dict, seed: int, workdir: str):
        self.s = settings
        self.seed = seed

    def setup(self) -> None:
        s = self.s
        cfg = rc.config.resolve_config({
            "problem": {"id": s["problem"]}, "grid": s["grid"],
            "simulate": {"n_paths": s["n_paths"], "n_steps": s["n_steps"]},
            "strategies": {"decision_counts": s["decision_counts"]},
            "threads": s["threads"], "seed": self.seed})
        self.tol = cfg["tolerances"]
        self.problem = rc.build_problem(s["problem"])
        spec = self.problem.spec
        g = s["grid"]
        grid = rc.make_grid(spec, g["lo"], g["hi"], g["h"])
        lower = rc.solve_isaacs(spec, grid, "lower")
        self.engine = rc.EngineConfig(n_steps=s["n_steps"], threads=s["threads"])
        self.ladder = rc.default_strategy_family(self.problem, lower,
                                                 s["decision_counts"], 0.0, self.engine)
        _, self.family = rc.default_adversary_families(self.problem, lower)
        self.x0 = np.zeros(spec.dim)
        self.field_value = float(lower.value_at(0.0, self.x0[None])[0])

    def rep(self):
        t0 = clock()
        report = rc.value_experiment(self.problem.spec, 0.0, self.x0, self.ladder,
                                     self.family, self.s["n_paths"], self.seed,
                                     self.engine)
        return report, {"wall_s": clock() - t0}

    def checks(self, report) -> list:
        best = report.best
        gap = abs(best.mean - self.field_value)
        bound = max(self.tol["se_multiplier"] * best.estimate.std_error,
                    self.tol["value_abs"])
        return [("value.field_match", gap <= bound,
                 f"best {report.best_label} {best.mean:.5f} vs field "
                 f"{self.field_value:.5f}: gap {gap:.2e} <= {bound:.2e}")]

    def digest(self, report) -> str:
        h = hashlib.sha256(report.best_label.encode())
        for label, rv in report.per_strategy.items():
            for aid, est in rv.members.items():
                h.update(f"\n{label},{aid},{est.mean!r},{est.std_error!r},"
                         f"{est.n_paths},{est.clamp_count}".encode())
        return h.hexdigest()

    def work(self, report, phases: dict) -> dict:
        cells = sum(len(rv.members) for rv in report.per_strategy.values())
        steps = cells * self.s["n_paths"] * self.s["n_steps"]
        return {"path_steps_per_s": steps / phases["wall_s"]}


class PipelineDrift:
    """`robustctl run` on drift_control with every stage, called in-process."""

    def __init__(self, settings: dict, seed: int, workdir: str):
        self.s = settings
        self.seed = seed
        self.workdir = workdir
        self.out_dir = os.path.join(workdir, "out")

    def setup(self) -> None:
        s = self.s
        raw = {"problem": {"id": s["problem"]}, "grid": s["grid"],
               "simulate": {"n_paths": s["n_paths"], "n_steps": s["n_steps"]},
               "experiments": {name: True for name in s["experiments"]},
               "seed": self.seed}
        cfg = rc.config.resolve_config(raw)
        rc.build_problem(cfg["problem"]["id"])
        self.config_path = os.path.join(self.workdir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)

    def rep(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = ["run", "--config", self.config_path, "--out", self.out_dir,
                "--threads", str(self.s["threads"])]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = clock()
            code = rc.cli.main(argv)
            wall = clock() - t0
        with open(os.path.join(self.out_dir, "summary.json"), "rb") as fh:
            summary_bytes = fh.read()
        with open(os.path.join(self.out_dir, "dpp.csv"), encoding="utf-8") as fh:
            dpp_cells = sum(1 for _ in csv.reader(fh)) - 1
        return (code, summary_bytes, dpp_cells), {"wall_s": wall}

    def checks(self, out) -> list:
        code, summary_bytes, _ = out
        found = [("cli.exit_code", code == 0, f"cli.main returned {code}")]
        for check in json.loads(summary_bytes)["checks"]:
            found.append((check["id"], check["passed"], check["detail"]))
        return found

    def digest(self, out) -> str:
        return hashlib.sha256(out[1]).hexdigest()

    def work(self, out, phases: dict) -> dict:
        # Batch-engine cells: the value table, the filtration stage (one
        # strategy against the same enlarged family) and the dpp table.
        _, summary_bytes, dpp_cells = out
        summary = json.loads(summary_bytes)
        per = summary["value"]["per_strategy"]
        value_cells = sum(len(entry["members"]) for entry in per.values())
        filtration_cells = len(next(iter(per.values()))["members"])
        sim = summary["config"]["simulate"]
        steps = ((value_cells + filtration_cells + dpp_cells)
                 * sim["n_paths"] * sim["n_steps"])
        # No span separates the Monte Carlo calls in an untraced run, so
        # this rate is over the whole cli.main call.
        return {"path_steps_per_s": steps / phases["wall_s"]}


WORKLOAD_TYPES = {
    "value_pennies": ValuePennies,
    "pipeline_drift": PipelineDrift,
}
