"""Exact interval counterfactual MDPs from observed paths, LP cross-validation,
robust counterfactual policies, and a Gumbel-max SCM baseline."""

from .bounds import (Assumptions, IntervalCfMdp, ProbInterval, build_interval_cfmdp,
                     transition_row_bounds)
from .envs import (GridSpec, build_frozen_lake, build_gridworld, build_toy_mdp,
                   gridworld_spec, resolve_env)
from .errors import (ConfigError, Infeasible, InfeasibleRow, InvariantViolation,
                     ScaleExceeded, Unbounded)
from .gumbel import build_gumbel_cfmdp
from .mdp import (Mdp, ObservedPath, PointCfMdp, PolicySchedule, ValueTable,
                  exact_policy_value, load_mdp, load_path, mdp_from_json, mdp_to_json,
                  optimal_policy, path_from_json, random_policy_schedule, rng_from,
                  sample_path, validate_mdp)
from .robust import (Mode, RobustSolution, point_policy_eval, point_value_iteration,
                     robust_policy_eval, robust_value_iteration, rollout_rewards, sample_cfmdp)

__version__ = "0.1.0"

_LAZY = dict.fromkeys(["enumerate_theta_bounds", "oracle_bounds", "oracle_layer"], "coupling")


def __getattr__(name):  # PEP 562: the LP oracle needs scipy, so it loads on first use
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{_LAZY[name]}", fromlist=[name]), name)
