"""Exact interval counterfactual MDPs from observed paths, LP cross-validation,
robust counterfactual policies, and a Gumbel-max SCM baseline."""

from .bounds import (Assumptions, IntervalCfMdp, ProbInterval, build_interval_cfmdp,
                     cs_condition, transition_row_bounds)
from .coupling import (CanonicalTheta, Coupling, check_coupling_feasible,
                       enumerate_theta_bounds, oracle_bounds, oracle_solution)
from .envs import (GridSpec, build_frozen_lake, build_gridworld, build_toy_mdp,
                   gridworld_spec, resolve_env)
from .errors import (ConfigError, Infeasible, InfeasibleRow, InvariantViolation,
                     ScaleExceeded, Unbounded)
from .gumbel import GumbelCfMdp, build_gumbel_cfmdp, gumbel_cf_probs
from .lp import LpProblem, lp_solve
from .mdp import (Mdp, ObservedPath, PolicySchedule, ValueTable, exact_policy_value,
                  load_mdp, load_path, mdp_from_json, mdp_to_json, optimal_policy,
                  path_from_json, path_return, path_to_json, random_policy_schedule,
                  rng_from, sample_path, validate_mdp, validate_path)
from .robust import (Mode, RobustSolution, SampledCfMdp, point_policy_eval,
                     point_value_iteration, robust_policy_eval, robust_value_iteration,
                     rollout_rewards, sample_cfmdp)

__version__ = "0.1.0"
