"""Experiment orchestration: one resolved config in, summary and tables out.

Stage order is fixed: model validation gates everything else, PDE solves
feed the Monte Carlo stages, and every stage appends pass/fail checks to one
list.  The summary embeds the resolved config (minus execution details like
thread count), so a summary file can be fed back in as a config and
reproduces the run exactly.
"""

from __future__ import annotations

import numpy as np

from . import game_engine as ge
from .config import DEFAULTS, resolve_config
from .errors import CflViolationError, ConfigError, EmbeddingMismatchError, RobustCtlError
from .hamiltonian import HamiltonianQuery, hamiltonian_mixed
from .pde_solver import ValueField, cfl_max_dt, compare_to_reference, make_grid, solve_isaacs
from .problems import build_problem
from .reports import SUMMARY_VERSION, emit_report
from .sde_core import (derive_seed, derive_seed_array, sample_noise,
                       stream_generator, validate_assumptions)
from .strategies import AbsRegion, FixedTimeRule, HittingRule

__all__ = ["RunResult", "run_experiment", "write_result", "COMMANDS"]


class Checks:
    """Ordered pass/fail records, one per verification performed."""

    def __init__(self):
        self.entries: list = []

    def add(self, check_id: str, stage: str, passed: bool, value: float,
            tolerance: float, detail: str) -> None:
        self.entries.append({"id": check_id, "stage": stage, "passed": bool(passed),
                             "value": float(value), "tolerance": float(tolerance),
                             "detail": detail})

# which stages each CLI command forces on; "run" honours the experiments block
COMMANDS = {
    "validate": (),
    "solve-pde": ("solve",),
    "hamiltonian-report": ("hamiltonian",),
    "simulate": ("solve", "value"),
    "compare": ("solve", "value", "filtration"),
    "dpp-check": ("solve", "dpp"),
    "run": None,
}

_EXECUTION_KEYS = ("threads", "output_dir")


class RunResult:
    """Outcome of one orchestrated run."""

    def __init__(self, exit_code: int, summary: dict, tables: dict):
        self.exit_code = exit_code
        self.summary = summary
        self.tables = tables


def _stages_for(command: str, experiments: dict) -> tuple:
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    forced = COMMANDS[command]
    if forced is not None:
        return forced
    stages = [name for name in ("value", "filtration", "dpp", "embedding", "hamiltonian")
              if experiments.get(name)]
    if any(s in stages for s in ("value", "filtration", "dpp", "embedding")):
        stages.insert(0, "solve")
    return tuple(stages)


def _finite_or_none(x) -> float | None:
    x = float(x)
    return x if np.isfinite(x) else None


def _fill_problem_defaults(cfg: dict, problem) -> dict:
    grid = cfg["grid"]
    grid.setdefault("lo", problem.grid_lo)
    grid.setdefault("hi", problem.grid_hi)
    grid.setdefault("h", problem.grid_h)
    grid.setdefault("dt", problem.grid_dt)
    sim = cfg["simulate"]
    sim.setdefault("n_steps", problem.sim_steps)
    sim.setdefault("start_state", [0.0] * problem.spec.dim)
    return cfg


def _strip_execution_keys(cfg: dict) -> dict:
    out = {k: v for k, v in cfg.items() if k not in _EXECUTION_KEYS}
    for key in _EXECUTION_KEYS:
        out[key] = DEFAULTS[key]
    return out


def run_experiment(raw_config: dict, command: str = "run", seed: int | None = None,
                   threads: int | None = None, strict: bool = False) -> RunResult:
    """Run the stages the command asks for and assemble the summary.

    ``seed`` and ``threads`` override the config when given; they are
    checked by the schema with the rest of it, uncast, so 2.5 or True is
    refused by name; a numpy integer is taken as the int it holds.  The
    summary and tables are always built; callers decide whether to write them
    (:func:`write_result`).  Exit code: 0 all checks passed, 1 some check
    failed (or warnings under ``strict``).  Config problems raise
    ConfigError; unexpected numerical trouble raises other RobustCtlError
    subclasses, and mapping those to exit codes is the CLI's job.
    """
    overrides = {key: value.item() if isinstance(value, np.integer) else value
                 for key, value in (("seed", seed), ("threads", threads))
                 if value is not None}
    cfg = resolve_config({**raw_config, **overrides})

    problem = build_problem(cfg["problem"]["id"], cfg["problem"].get("parameters") or None)
    spec = problem.spec
    cfg = _fill_problem_defaults(cfg, problem)
    # checked before the assumption gate and the solves, so a bad start fails at once
    sim = cfg["simulate"]
    s0 = float(sim["start_time"])
    x0 = np.asarray(sim["start_state"], dtype=float)
    if not 0.0 <= s0 < spec.horizon:
        raise ConfigError(f"simulate.start_time {s0} outside [0, {spec.horizon})")
    if x0.shape != (spec.dim,):
        raise ConfigError(f"simulate.start_state needs {spec.dim} coordinates")

    stages = _stages_for(command, cfg["experiments"])
    run_assumptions = cfg["assumptions"]["enabled"] or command == "validate"

    # ---- the run plan: each piece built once, and shared by every stage ---- #
    # the dpp rules are checked against the horizon here, whatever the stages,
    # so a bad rule fails before the gate and the solves, as a bad start does
    engine = ge.EngineConfig(n_steps=sim["n_steps"], chunk_size=sim["chunk_size"],
                             threads=cfg["threads"])
    rules = [_build_rho(rule_cfg, spec.horizon) for rule_cfg in cfg["dpp"]["rules"]]

    tol = cfg["tolerances"]
    checks = Checks()
    warnings: list = []
    tables: dict = {}
    summary: dict = {
        "schema_version": SUMMARY_VERSION,
        "command": command,
        "config": _strip_execution_keys(cfg),
        "problem": {
            "id": problem.id,
            "dim": spec.dim,
            "horizon": spec.horizon,
            "n_controls_u": spec.controls_u.size,
            "n_controls_v": spec.controls_v.size,
            "pointwise_saddle": problem.isaacs_holds,
        },
        "stages": list(stages),
    }

    master_seed = int(cfg["seed"])

    # ---- assumption gate -------------------------------------------------- #
    if run_assumptions:
        rep = validate_assumptions(spec, problem.box_lo, problem.box_hi,
                                   n_samples=cfg["assumptions"]["n_samples"],
                                   seed=master_seed, slack=cfg["assumptions"]["slack"])
        summary["assumptions"] = {
            "lipschitz_estimate": rep.lipschitz_estimate,
            "growth_estimate": rep.growth_estimate,
            "declared_lipschitz": _finite_or_none(rep.declared_lipschitz),
            "declared_growth": _finite_or_none(rep.declared_growth),
            "lipschitz_pass": rep.lipschitz_pass,
            "growth_pass": rep.growth_pass,
            "sample_count": rep.sample_count,
        }
        tables["assumptions"] = (
            ["label", "radius", "samples", "lipschitz_estimate", "declared_lipschitz",
             "growth_estimate", "declared_growth", "passed"],
            [[rep.label, rep.radius, rep.sample_count, rep.lipschitz_estimate,
              _finite_or_none(rep.declared_lipschitz) or "inf", rep.growth_estimate,
              _finite_or_none(rep.declared_growth) or "inf", rep.passed]])
        checks.add("assumptions.pass", "assumptions", rep.passed,
                   value=max(rep.lipschitz_estimate / max(rep.declared_lipschitz, 1e-300),
                             rep.growth_estimate / max(rep.declared_growth, 1e-300))
                   if np.isfinite(rep.declared_lipschitz) or np.isfinite(rep.declared_growth)
                   else 0.0,
                   tolerance=1.0 + cfg["assumptions"]["slack"],
                   detail=f"Lipschitz {rep.lipschitz_estimate:.4g} vs declared "
                          f"{rep.declared_lipschitz:.4g}, growth {rep.growth_estimate:.4g} "
                          f"vs declared {rep.declared_growth:.4g}")
        if not rep.passed and stages:
            summary["aborted_stages"] = list(stages)
            return _finish(summary, tables, checks, warnings, strict)

    # ---- PDE solves -------------------------------------------------------- #
    fields = _solve_stage(problem, cfg, summary, checks, tables) if "solve" in stages else {}

    def need(eq: str, stage: str) -> ValueField:
        if eq not in fields:
            raise ConfigError(
                f"stage {stage!r} needs the {eq} equation; add it to 'equations'")
        return fields[eq]

    # the rest of the plan, once the fields exist: the ladder and both
    # families for the tables, and the embedding pairs, so a missing equation
    # fails before any Monte Carlo.  The pairs keep the one table they read of
    # the upper field, and only the lower field is kept past this point.
    table_stages = [name for name in ("value", "filtration", "dpp") if name in stages]
    if table_stages:
        lower = need("lower", table_stages[0])
        adv = cfg["adversaries"]
        base, enlarged = ge.default_adversary_families(
            problem, lower, n_random=adv["n_random"],
            random_segments=adv["random_segments"],
            include_feedback=adv["include_feedback"],
            include_best_response=adv["include_best_response"])
        ladder = ge.default_strategy_family(
            problem, lower, cfg["strategies"]["decision_counts"], s0, engine)
    if "embedding" in stages:
        pairs = ge.builtin_pairs(problem, need("lower", "embedding"),
                                 need("upper", "embedding"), s0, engine)
    fields.pop("upper", None)

    experiment_seed = derive_seed(master_seed, 37)

    # ---- one table: the ladder against the enlarged family ----------------- #
    # The value stage reports the whole table; the filtration stage reads one
    # row of it, folded over both families.
    table = value_report = None
    if "value" in stages or "filtration" in stages:
        table = ge.value_experiment(spec, s0, x0, ladder, enlarged, sim["n_paths"],
                                    experiment_seed, engine,
                                    keep_payoffs=sim["dump_paths"])

    # ---- robust value vs. the lower field ---------------------------------- #
    if "value" in stages:
        value_report = table
        field_value = float(lower.value_at(np.asarray(s0), x0[None])[0])
        best = value_report.best
        err = abs(best.mean - field_value)
        bound = max(tol["se_multiplier"] * best.estimate.std_error, tol["value_abs"])
        checks.add("value.field_match", "value", err <= bound, value=err,
                   tolerance=bound,
                   detail=f"best {value_report.best_label}: {best.mean:.5f} "
                          f"(se {best.estimate.std_error:.2e}) vs field {field_value:.5f}")
        mono_ok, violations = _monotone(value_report, ladder,
                                        tol["monotonicity_se_multiplier"])
        checks.add("value.monotone", "value", mono_ok,
                   value=float(len(violations)), tolerance=0.0,
                   detail="; ".join(violations) if violations else
                          "robust value non-decreasing in decision count")
        summary["value"] = _value_summary(value_report, field_value, err, violations)
        clamps = sum(rv.estimate.clamp_count for rv in value_report.per_strategy.values())
        if clamps:
            warnings.append(f"value: {clamps} rule-order clamps during simulation")
        if sim["dump_paths"]:
            seeds = derive_seed_array(experiment_seed, np.arange(sim["n_paths"]))
            payoffs = best.estimate.payoffs
            tables["paths"] = (["path", "seed", "payoff"],
                               [[i, int(seeds[i]), payoffs[i]]
                                for i in range(sim["n_paths"])])

    # ---- filtration comparison --------------------------------------------- #
    if "filtration" in stages:
        # without the value stage the strategy is chosen over the base family
        best_label = (value_report or table.restricted(base)).best_label
        filt = table.filtration(best_label, base)
        bound = max(tol["se_multiplier"] * filt.se_combined, tol["filtration_abs"])
        checks.add("filtration.delta", "filtration",
                   0.0 <= filt.delta <= bound, value=filt.delta, tolerance=bound,
                   detail=f"base {filt.base.mean:.5f} ({filt.base.worst_id}) vs enlarged "
                          f"{filt.enlarged.mean:.5f} ({filt.enlarged.worst_id}) at {best_label}")
        summary["filtration"] = {
            "strategy": best_label,
            "base_mean": filt.base.mean, "base_worst": filt.base.worst_id,
            "base_se": filt.base.estimate.std_error,
            "enlarged_mean": filt.enlarged.mean, "enlarged_worst": filt.enlarged.worst_id,
            "enlarged_se": filt.enlarged.estimate.std_error,
            "delta": filt.delta, "se_combined": filt.se_combined,
        }

    if "value" in stages or "filtration" in stages:
        tables["estimates"] = _estimate_table(value_report, summary.get("filtration"))

    # ---- dynamic programming principle -------------------------------------- #
    if "dpp" in stages:
        summary["dpp"] = {}
        rows = []
        for rep in ge.dpp_checks(spec, lower, s0, x0, ladder, enlarged, rules,
                                 sim["n_paths"], derive_seed(master_seed, 41), engine):
            label = rep.rho_label
            bound = max(tol["se_multiplier"] * rep.std_error, tol["dpp_abs"])
            checks.add(f"dpp.{label}", "dpp", rep.residual <= bound,
                       value=rep.residual, tolerance=bound,
                       detail=f"field {rep.field_value:.5f} vs restart {rep.game_value:.5f} "
                              f"({rep.best_strategy} / {rep.worst_adversary})")
            summary["dpp"][label] = {
                "field_value": rep.field_value, "game_value": rep.game_value,
                "residual": rep.residual, "std_error": rep.std_error,
                "best_strategy": rep.best_strategy, "worst_adversary": rep.worst_adversary,
            }
            for (slabel, aid), (mean, se) in sorted(rep.cells.items()):
                rows.append([label, slabel, aid, mean, se])
        tables["dpp"] = (["rule", "strategy", "adversary", "mean", "std_error"], rows)

    # ---- feedback-to-open-loop embedding ------------------------------------ #
    if "embedding" in stages:
        times = ge._sim_times(spec, s0, engine)
        n_seeds = cfg["embedding"]["n_seeds"]
        failed = {}  # (pair, seed index) -> the error of that row
        for alpha, beta in pairs:
            aid, bid = alpha.label, beta.label
            noises = [sample_noise(times, derive_seed(master_seed, 29, k, hash_pair(aid, bid)),
                                   spec.noise_dim) for k in range(n_seeds)]
            try:
                ge.embed_feedback_as_openloop(spec, alpha, beta, noises, x0)
            except RobustCtlError as exc:
                bad = exc.rows if isinstance(exc, EmbeddingMismatchError) else range(n_seeds)
                failed.update({(aid, bid, k): exc for k in bad})
        rows = [[a.label, b.label, k, (a.label, b.label, k) not in failed]
                for k in range(n_seeds) for a, b in pairs]
        mismatches = len(failed)
        warnings.extend(f"embedding {aid}/{bid} seed {k}: {exc}"
                        for (aid, bid, k), exc in failed.items())
        checks.add("embedding.match", "embedding", mismatches == 0,
                   value=float(mismatches), tolerance=0.0,
                   detail=f"{len(pairs)} pairs x {n_seeds} seeds")
        summary["embedding"] = {"n_pairs": len(pairs), "n_seeds": n_seeds,
                                "mismatches": mismatches}
        tables["embedding"] = (["alpha", "beta", "seed", "matched"], rows)

    # ---- Hamiltonian ordering ------------------------------------------------ #
    if "hamiltonian" in stages:
        ham, rows = _hamiltonian_stage(problem, cfg, master_seed, tol)
        summary["hamiltonian"] = ham
        checks.add("hamiltonian.order", "hamiltonian",
                   ham["max_order_violation"] <= tol["hamiltonian_slack"],
                   value=ham["max_order_violation"], tolerance=tol["hamiltonian_slack"],
                   detail=f"{ham['n_queries']} queries; methods {ham['methods']}")
        tables["hamiltonian"] = rows

    return _finish(summary, tables, checks, warnings, strict)


def _solve_stage(problem, cfg: dict, summary: dict, checks: Checks, tables: dict) -> dict:
    """The configured equations solved in one march, checked and reported, by
    equation.  A function of its own, so no local of it keeps a field alive."""
    spec = problem.spec
    tol = cfg["tolerances"]
    gcfg = cfg["grid"]
    try:
        grid = make_grid(spec, gcfg["lo"], gcfg["hi"], gcfg["h"],
                         dt=gcfg.get("dt"), cfl_safety=gcfg["cfl_safety"])
    except CflViolationError as exc:
        raise ConfigError(f"grid.dt rejected: {exc}") from exc
    summary["pde"] = {"h": gcfg["h"], "dt": grid.dt, "n_layers": len(grid.times),
                      "cfl_dt_max": _finite_or_none(cfl_max_dt(spec, grid.axes))}
    equations = tuple(cfg["equations"])
    fields = dict(zip(equations, solve_isaacs(spec, grid, equations)))
    for eq, field in fields.items():
        # the march runs backward: its final step produced layer 0
        entry = {"max_update_final": float(field.max_update[0])}
        if problem.reference is not None:
            err = compare_to_reference(field, problem.reference,
                                       lo=problem.interior_lo, hi=problem.interior_hi)
            entry["sup_error"] = err.sup_error
            entry["rms_error"] = err.rms_error
            checks.add(f"pde.reference.{eq}", "solve",
                       err.sup_error <= tol["pde_sup"], value=err.sup_error,
                       tolerance=tol["pde_sup"],
                       detail=f"sup error {err.sup_error:.3e} on "
                              f"[{problem.interior_lo}, {problem.interior_hi}]")
        summary["pde"][eq] = entry
    if "lower" in fields and "upper" in fields:
        gap = float(np.max(fields["lower"].values - fields["upper"].values))
        scale = float(max(np.abs(fields["lower"].values).max(),
                          np.abs(fields["upper"].values).max(), 1.0))
        checks.add("pde.order", "solve", gap <= 1e-10 * scale, value=gap,
                   tolerance=1e-10 * scale,
                   detail="max over nodes of (lower - upper)")
        summary["pde"]["order_gap"] = gap
    tables["fields"] = _field_table(fields)
    return fields


def hash_pair(aid: str, bid: str) -> int:
    """Stable small index for a named pair, for seed derivation."""
    text = f"{aid}|{bid}"
    acc = 0
    for ch in text:
        acc = (acc * 131 + ord(ch)) % 1000003
    return acc


def _build_rho(rule_cfg: dict, horizon: float):
    """A configured dpp rule as its (label, stopping rule) pair."""
    if rule_cfg["kind"] == "fixed_time":
        t = float(rule_cfg.get("t", horizon / 2))
        if not 0.0 <= t <= horizon:
            raise ConfigError(f"dpp rule fixed_time t={t} outside [0, {horizon}]")
        return f"fixed_time_{t:g}", FixedTimeRule(t)
    level = float(rule_cfg["level"])
    return f"first_exit_{level:g}", HittingRule(AbsRegion(level))


def _monotone(report, ladder, se_mult: float):
    labels = [strategy.label for strategy in ladder]
    violations = []
    for a, b in zip(labels, labels[1:]):
        ra, rb = report.per_strategy[a], report.per_strategy[b]
        band = se_mult * float(np.sqrt(ra.estimate.std_error ** 2
                                       + rb.estimate.std_error ** 2))
        if rb.mean < ra.mean - band:
            violations.append(f"{b} ({rb.mean:.5f}) below {a} ({ra.mean:.5f}) - {band:.2e}")
    return not violations, violations


def _value_summary(report, field_value: float, err: float, violations) -> dict:
    per = {}
    for label, rv in report.per_strategy.items():
        per[label] = {
            "robust_mean": rv.mean,
            "std_error": rv.estimate.std_error,
            "worst_adversary": rv.worst_id,
            "members": {aid: {"mean": est.mean, "std_error": est.std_error}
                        for aid, est in rv.members.items()},
        }
    return {"per_strategy": per, "best_strategy": report.best_label,
            "best_mean": report.best.mean,
            "best_std_error": report.best.estimate.std_error,
            "field_value": field_value, "abs_error": err,
            "monotonicity_violations": list(violations)}


def _estimate_table(report, filt: dict | None):
    header = ["stage", "strategy", "adversary", "mean", "std_error", "n_paths", "worst"]
    rows = []
    if report is not None:
        for label, rv in sorted(report.per_strategy.items()):
            for aid, est in sorted(rv.members.items()):
                rows.append(["value", label, aid, est.mean, est.std_error,
                             est.n_paths, aid == rv.worst_id])
    if filt is not None:
        rows.append(["filtration", filt["strategy"], filt["base_worst"],
                     filt["base_mean"], filt["base_se"], "", True])
        rows.append(["filtration", filt["strategy"], filt["enlarged_worst"],
                     filt["enlarged_mean"], filt["enlarged_se"], "", True])
    return header, rows


def _field_table(fields: dict):
    dim = fields[min(fields)].grid.dim if fields else 0
    return ["equation", "t"] + [f"x{a}" for a in range(dim)] + ["value"], _FieldRows(fields)


class _FieldRows:
    """The fields table's rows, made anew each time they are read.  Only each
    equation's reported layers are kept (every stride-th one and the last),
    so until the table is written it holds small arrays, not a list per row."""

    def __init__(self, fields: dict):
        self.parts = []
        for eq, field in sorted(fields.items()):
            grid = field.grid
            stride = max(1, (len(grid.times) - 1) // 32)
            layer_ids = sorted(set(range(0, len(grid.times), stride)) | {len(grid.times) - 1})
            self.parts.append((eq, grid.times[layer_ids], grid.nodes().reshape(-1, grid.dim),
                               field.values[layer_ids].reshape(len(layer_ids), -1)))

    def __iter__(self):
        for eq, times, nodes, layers in self.parts:
            nodes = nodes.tolist()
            for t, vals in zip(times.tolist(), layers):
                for node, val in zip(nodes, vals.tolist()):
                    yield [eq, t] + node + [val]


def _hamiltonian_stage(problem, cfg: dict, master_seed: int, tol: dict):
    spec = problem.spec
    hcfg = cfg["hamiltonian"]
    n = hcfg["n_queries"]
    rng = stream_generator(derive_seed(master_seed, 31), 0)
    t_all = rng.uniform(0.0, spec.horizon, n)
    x_all = rng.uniform(problem.box_lo, problem.box_hi, (n, spec.dim))
    p_all = rng.uniform(-hcfg["gradient_scale"], hcfg["gradient_scale"], (n, spec.dim))
    m_all = rng.uniform(-hcfg["curvature_scale"], hcfg["curvature_scale"],
                        (n, spec.dim, spec.dim))
    worst = 0.0
    max_residual = 0.0
    methods = {"saddle": 0, "2x2": 0, "lp": 0}
    rows = []
    header = (["index", "t"] + [f"x{a}" for a in range(spec.dim)]
              + [f"p{a}" for a in range(spec.dim)]
              + [f"m{a}{b}" for a in range(spec.dim) for b in range(spec.dim)]
              + ["lower", "mixed", "upper", "method", "residual"])
    for i in range(n):
        # the query symmetrizes M
        q = HamiltonianQuery(t=float(t_all[i]), x=x_all[i], p=p_all[i], M=m_all[i])
        mix = hamiltonian_mixed(spec, q, tol=tol["hamiltonian_slack"])
        worst = max(worst, mix.lower - mix.value, mix.value - mix.upper)
        max_residual = max(max_residual, mix.residual)
        methods[mix.method] += 1
        rows.append([i, q.t] + [float(c) for c in q.x] + [float(c) for c in q.p]
                    + [float(c) for c in q.M.reshape(-1)]
                    + [mix.lower, mix.value, mix.upper, mix.method, mix.residual])
    ham = {"n_queries": n, "max_order_violation": worst,
           "max_mixed_residual": max_residual, "methods": methods}
    if spec.controls_u.size == 2 and spec.controls_v.size == 2:
        q = HamiltonianQuery(t=0.0, x=np.zeros(spec.dim),
                             p=np.ones(spec.dim), M=np.zeros((spec.dim, spec.dim)))
        mix = hamiltonian_mixed(spec, q)
        ham["unit_gradient_point"] = {"lower": mix.lower, "mixed": mix.value,
                                      "upper": mix.upper}
    return ham, (header, rows)


def _finish(summary: dict, tables: dict, checks: "Checks", warnings: list,
            strict: bool) -> RunResult:
    summary["checks"] = checks.entries
    summary["warnings"] = sorted(set(warnings))
    failed = [c["id"] for c in checks.entries if not c["passed"]]
    exit_code = 0
    if failed or (strict and summary["warnings"]):
        exit_code = 1
    summary["failed_checks"] = failed
    summary["exit_code"] = exit_code
    return RunResult(exit_code, summary, tables)


def write_result(result: RunResult, out_dir: str) -> list:
    """Emit the result's summary and tables under out_dir."""
    return emit_report(result.summary, result.tables, out_dir)
