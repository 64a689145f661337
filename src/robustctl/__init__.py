"""Numerical laboratory for robust stochastic control as a dynamic game.

The package solves the two dynamic-programming equations of a finite
zero-sum controller-vs-nature game on a grid, simulates the controlled
diffusion under elementary feedback strategies against open-loop and
feedback adversaries, and cross-checks the two: the robust value estimated
by simulation must match the lower equation's solution, stay unchanged when
the adversary's information is enlarged, and satisfy the restart identity at
stopping rules.
"""

from .errors import (CflViolationError, ConfigError, EmbeddingMismatchError,
                     ModelEvaluationError, NumericalSolveError, RobustCtlError,
                     SimulationBlowUpError, StrategyIntervalError,
                     StrategyStructureError)
from .sde_core import (ControlSet, NoisePath, ProblemSpec, derive_seed,
                       derive_seed_array, sample_noise, stream_generator,
                       validate_assumptions)
from .problems import BenchmarkProblem, available_problems, build_problem
from .strategies import (ConstantControl, ElementaryStrategy, FixedTimeRule, HittingRule,
                         OpenLoopControl, PiecewiseRandomControl, ReplayControl, SignControl,
                         check_nonanticipative, concatenate, make_grid_strategy)
from .hamiltonian import (HamiltonianQuery, hamiltonian_lower, hamiltonian_mixed,
                          hamiltonian_upper, solve_matrix_game)
from .pde_solver import (FeedbackMap, SpaceTimeGrid, ValueField, cfl_max_dt,
                         compare_to_reference, make_grid, solve_isaacs)
from .game_engine import (Adversary, AdversaryFamily, EngineConfig, Paths,
                          ValueEstimate, default_adversary_families,
                          default_strategy_family, dpp_check, dpp_checks,
                          embed_feedback_as_openloop, filtration_experiment,
                          simulate_feedback_pair, simulate_strong, value_experiment)
from .runner import run_experiment, write_result

__version__ = "0.1.0"
