"""Fixed sizes of the benchmark's workloads and of one run.

Plain data, so that ``run.py`` can read it without importing robustctl.
Every workload is a single closed-loop caller: one process issues one call
at a time and never uses more threads than the machine has CPUs.
"""

WORKLOADS = {
    # The flagship value experiment (acceptance criterion 4's shape) on the
    # production pennies grid: the 4-rung ladder against the 11-member
    # enlarged family, 44 cells.  16384 paths make exactly two full chunks
    # of the default 8192, so both worker threads have a chunk in flight.
    "value_pennies": {
        "problem": "pennies",
        "grid": {"lo": -4.0, "hi": 4.0, "h": 0.02},
        "decision_counts": [2, 4, 8, 16],
        "n_paths": 16384,
        "n_steps": 250,
        "threads": 2,
    },
    # A user's full run through the command line with every stage on.
    # n_paths is below the 4000 default so that one run holds several
    # repetitions; grid h and steps are drift_control's defaults, spelled
    # out so that the record states them.
    "pipeline_drift": {
        "problem": "drift_control",
        "experiments": ["value", "filtration", "dpp", "embedding", "hamiltonian"],
        "grid": {"h": 0.02},
        "n_paths": 2000,
        "n_steps": 250,
        "threads": 1,
    },
}

# Fresh interpreters started per untraced run to time set-up; the median
# is reported.  The middle one goes on to the timed repetitions.
N_SETUPS = 5

# Hard limit on one run; the workers are killed past it.
TIME_LIMIT_S = 170.0

# Scratch and trace output, relative to the checkout root.
OUT_DIR = ".bench_out"
