"""Robust (pessimistic/optimistic) finite-horizon dynamic programming over interval
CFMDPs, plus sampling of concrete CFMDPs from the intervals.

The inner optimization of each Bellman backup -- extremize an expectation over all
distributions inside per-successor probability intervals -- is solved exactly by
order-and-fill: start every successor at its lower bound and hand out the remaining
mass in value order (worst-first when pessimistic, best-first when optimistic). One
kernel does this for all rows of a time step at once: the next-step values are sorted
once, and each row's fill is a cumulative sum of the room ub - lb clipped to the mass
left over.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import IntervalCfMdp
from .errors import InfeasibleRow
from .mdp import Mdp, ObservedPath, PolicySchedule, ValueTable, rng_from

FEAS_TOL = 1e-9


class Mode(enum.Enum):
    PESSIMISTIC = "pessimistic"
    OPTIMISTIC = "optimistic"


@dataclass(frozen=True)
class RobustSolution:
    policy: PolicySchedule
    values: ValueTable
    mode: Mode


@dataclass(frozen=True)
class SampledCfMdp:
    """One concrete CFMDP drawn from an ICFMDP's intervals."""

    horizon: int
    transition: np.ndarray  # (T, S, A, S)
    seed: int

    def __post_init__(self):
        self.transition.setflags(write=False)


def _check_feasible(lb: np.ndarray, ub: np.ndarray,
                    row_name: Callable[[tuple], str] = lambda idx: "") -> np.ndarray:
    """sum(lb) of every row of (..., S) intervals; raises InfeasibleRow naming the first
    row (by `row_name` of its index) that admits no distribution."""
    lb_sum, ub_sum = lb.sum(axis=-1), ub.sum(axis=-1)
    bad = (lb_sum > 1.0 + FEAS_TOL) | (ub_sum < 1.0 - FEAS_TOL)
    if bad.any():
        idx = np.unravel_index(np.argmax(bad), bad.shape)
        raise InfeasibleRow(
            f"interval row {row_name(tuple(int(i) for i in idx))} admits no distribution: "
            f"sum(lb)={lb_sum[idx]:.12g}, sum(ub)={ub_sum[idx]:.12g}")
    return lb_sum


def _order_fill(v_next: np.ndarray, lb: np.ndarray, ub: np.ndarray, mode: Mode,
                row_name: Callable[[tuple], str] = lambda idx: "") -> np.ndarray:
    """Extreme of p @ v_next over {lb <= p <= ub, sum(p) = 1} for every row of (..., S)
    intervals.

    Successors are sorted by value once (stable, so value ties go to the lower index).
    Each row starts at lb and hands 1 - sum(lb) out in that order, so the mass a
    successor receives is its room ub - lb clipped to what the successors before it
    left over. The `lb @ v_next` term keeps rows with lb == ub bit-equal to a plain
    expectation.
    """
    lb_sum = _check_feasible(lb, ub, row_name)
    order = np.argsort(v_next if mode is Mode.PESSIMISTIC else -v_next, kind="stable")
    room = ub[..., order].astype(float, copy=False)
    room -= lb[..., order]
    fill = np.cumsum(room, axis=-1)
    fill -= room  # mass handed out before each successor
    np.subtract((1.0 - lb_sum)[..., None], fill, out=fill)
    np.clip(fill, 0.0, room, out=fill)
    return lb @ v_next + fill @ v_next[order]


def robust_expectation(values: np.ndarray, lb: np.ndarray, ub: np.ndarray, mode: Mode) -> float:
    """Extreme of sum(p * values) over {p : lb <= p <= ub, sum(p) = 1}.

    Ties in value are broken by successor index, so the result is bit-deterministic.
    """
    return float(_order_fill(values, lb, ub, mode))


def robust_value_iteration(icf: IntervalCfMdp, reward: np.ndarray, mode: Mode) -> RobustSolution:
    """Optimal robust policy by backward induction.

    Action ties go to the lowest index among Q-values equal in floating point.
    """
    t_len = icf.horizon
    n = icf.base.num_states
    v = np.zeros((t_len + 1, n))
    acts = np.zeros((t_len, n), dtype=np.int64)
    for t in range(t_len - 1, -1, -1):
        q = reward + _order_fill(v[t + 1], icf.lb[t], icf.ub[t], mode,
                                 lambda idx: f"at (t={t}, s={idx[0]}, a={idx[1]})")
        acts[t] = np.argmax(q, axis=1)
        v[t] = q[np.arange(n), acts[t]]
    return RobustSolution(PolicySchedule(t_len, acts), ValueTable(v), mode)


def robust_policy_eval(icf: IntervalCfMdp, policy: PolicySchedule, mode: Mode) -> ValueTable:
    """Worst/best-case value of a fixed policy over all CFMDPs inside the intervals."""
    if policy.horizon < icf.horizon:
        raise ValueError("policy horizon shorter than the ICFMDP horizon")
    t_len = icf.horizon
    n = icf.base.num_states
    s_idx = np.arange(n)
    v = np.zeros((t_len + 1, n))
    for t in range(t_len - 1, -1, -1):
        a = policy.action_at[t]
        v[t] = icf.base.reward[s_idx, a] + _order_fill(
            v[t + 1], icf.lb[t, s_idx, a], icf.ub[t, s_idx, a], mode,
            lambda idx: f"at (t={t}, s={idx[0]}, a={a[idx[0]]})")
    return ValueTable(v)


def point_value_iteration(transition: np.ndarray, reward: np.ndarray
                          ) -> tuple[PolicySchedule, ValueTable]:
    """Finite-horizon VI on a concrete time-indexed CFMDP (degenerate intervals)."""
    t_len, n, _, _ = transition.shape
    v = np.zeros((t_len + 1, n))
    acts = np.zeros((t_len, n), dtype=np.int64)
    for t in range(t_len - 1, -1, -1):
        q = reward + transition[t] @ v[t + 1]
        acts[t] = np.argmax(q, axis=1)
        v[t] = q[np.arange(n), acts[t]]
    return PolicySchedule(t_len, acts), ValueTable(v)


def point_policy_eval(transition: np.ndarray, reward: np.ndarray,
                      policy: PolicySchedule) -> ValueTable:
    """Evaluate a fixed policy on a concrete time-indexed CFMDP."""
    t_len, n, _, _ = transition.shape
    s_idx = np.arange(n)
    v = np.zeros((t_len + 1, n))
    for t in range(t_len - 1, -1, -1):
        a = policy.action_at[t]
        v[t] = reward[s_idx, a] + np.einsum("ij,j->i", transition[t, s_idx, a], v[t + 1])
    return ValueTable(v)


def sample_row(lb: np.ndarray, ub: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample one distribution inside [lb, ub] by sequential conditional sampling.

    Successors are visited in random order; each draw is uniform over the range that
    keeps the rest of the row completable, and the last successor takes the remainder.
    Not exactly uniform over the polytope, but feasible by construction and free of
    systematic per-coordinate bias thanks to the random visiting order.
    """
    _check_feasible(lb, ub)
    return _sample_feasible_row(lb, ub, rng)


def _sample_feasible_row(lb: np.ndarray, ub: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = lb.shape[0]
    order = rng.permutation(n)
    p = np.zeros(n)
    remaining = 1.0
    lb_left = lb[order].sum()
    ub_left = ub[order].sum()
    for rank, i in enumerate(order):
        lb_left -= lb[i]
        ub_left -= ub[i]
        if rank == n - 1:
            value = remaining
        else:
            lo = max(lb[i], remaining - ub_left)
            hi = min(ub[i], remaining - lb_left)
            value = rng.uniform(lo, hi) if hi > lo else lo
        if not (lb[i] - FEAS_TOL <= value <= ub[i] + FEAS_TOL):
            raise InfeasibleRow(f"sampled mass {value} escapes [{lb[i]}, {ub[i]}]")
        p[i] = min(max(value, lb[i]), ub[i])
        remaining -= p[i]
    return p


def sample_cfmdp(icf: IntervalCfMdp, seed: int) -> SampledCfMdp:
    """Draw a concrete CFMDP from the intervals; rows are sampled independently."""
    t_len, n, k, _ = icf.lb.shape
    _check_feasible(icf.lb, icf.ub, lambda idx: "at (t={}, s={}, a={})".format(*idx))
    transition = np.empty((t_len, n, k, n))
    for t in range(t_len):
        for s in range(n):
            for a in range(k):
                rng = rng_from(seed, t, s, a)
                try:
                    transition[t, s, a] = _sample_feasible_row(icf.lb[t, s, a], icf.ub[t, s, a],
                                                               rng)
                except InfeasibleRow as exc:
                    raise InfeasibleRow(f"at (t={t}, s={s}, a={a}): {exc}") from exc
    return SampledCfMdp(t_len, transition, seed)


def rollout_rewards(transition: np.ndarray, reward: np.ndarray, policy: PolicySchedule,
                    start_state: int, num_paths: int, seed: int) -> np.ndarray:
    """Instant rewards, shape (num_paths, T), of vectorized rollouts on a concrete CFMDP."""
    t_len, n, _, _ = transition.shape
    rng = rng_from(seed)
    states = np.full(num_paths, start_state, dtype=np.int64)
    out = np.empty((num_paths, t_len))
    for t in range(t_len):
        a = policy.action_at[t][states]
        out[:, t] = reward[states, a]
        rows = transition[t, states, a]
        u = rng.random((num_paths, 1))
        states = np.minimum((u > np.cumsum(rows, axis=1)).sum(axis=1), n - 1)
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def solution_to_json(sol: RobustSolution) -> dict:
    return {
        "mode": sol.mode.value,
        "values": sol.values.values.tolist(),
        "policy": sol.policy.action_at.tolist(),
    }


def sampled_cfmdp_to_json(cf: SampledCfMdp, base: Mdp, path: ObservedPath) -> dict:
    """Serialize as one MDP JSON per time layer (initial state pinned to the path's)."""
    initial = np.zeros(base.num_states)
    initial[path.states[0]] = 1.0
    layers = []
    for t in range(cf.horizon):
        layers.append({
            "num_states": base.num_states,
            "num_actions": base.num_actions,
            "transition": cf.transition[t].tolist(),
            "reward": base.reward.tolist(),
            "initial_dist": initial.tolist(),
        })
    return {"horizon": cf.horizon, "seed": cf.seed, "layers": layers}


def write_solution(sol: RobustSolution, file: str | Path) -> None:
    Path(file).write_text(json.dumps(solution_to_json(sol), indent=2))
