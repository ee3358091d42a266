"""Robust (pessimistic/optimistic) finite-horizon dynamic programming over interval
CFMDPs, plus sampling of concrete CFMDPs from the intervals.

The inner optimization of each Bellman backup -- extremize an expectation over all
distributions inside per-successor probability intervals -- is solved exactly by
order-and-fill: start every successor at its lower bound and hand out the remaining
mass in value order (worst-first when pessimistic, best-first when optimistic). One
kernel does this for all rows of a time step at once: each row's K successor values are
sorted, and its fill is a cumulative sum of the room ub - lb clipped to the mass left
over. Robust value iteration and policy evaluation run it on the ICFMDP's compact
layers, gathering the next-step values on each row's support columns, so a backup
touches S·A·K entries rather than S·A·S; they never build the dense (T, S, A, S) view.
Both, and the point versions on a concrete CFMDP (backup `transition[t][rows] @ v`), are
thin calls to `mdp._backward`, the one backward-induction routine of all six DP entry
points.

Concrete CFMDPs are sampled from the intervals by sequential conditional sampling, one
batched kernel per time step: every row of the step draws its own random visiting
order from the step's generator, and the ranks are filled in turn for all rows at once.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bounds import IntervalCfMdp
from .errors import InfeasibleRow
from .mdp import PolicySchedule, ValueTable, _backward, _check_policy_horizon, rng_from

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


def _order_fill(v: np.ndarray, lb: np.ndarray, ub: np.ndarray, mode: Mode,
                row_name: Callable[[tuple], str] = lambda idx: "") -> np.ndarray:
    """Extreme of p @ v over {lb <= p <= ub, sum(p) = 1} for every row of (..., K)
    intervals, where v (..., K) holds the values of each row's successors.

    Each row's successors are sorted by value (stable, so value ties go to the earlier
    column; columns ascend by state index). Each row starts at lb and hands 1 - sum(lb)
    out in that order, so the mass a successor receives is its room ub - lb clipped to
    what the successors before it left over.
    """
    lb_sum = _check_feasible(lb, ub, row_name)
    keys = v if mode is Mode.PESSIMISTIC else -v  # ascending keys: fill order
    room = np.take_along_axis(ub - lb, np.argsort(keys, axis=-1, kind="stable"),
                              axis=-1).astype(float, copy=False)
    fill = np.cumsum(room, axis=-1)
    fill -= room  # mass handed out before each successor
    np.subtract((1.0 - lb_sum)[..., None], fill, out=fill)
    np.minimum(np.maximum(fill, 0.0, out=fill), room, out=fill)
    # the sorted keys are the values in fill order, negated when optimistic
    extra = np.einsum("...k,...k->...", fill, np.sort(keys, axis=-1))
    return np.einsum("...k,...k->...", lb, v) + (extra if mode is Mode.PESSIMISTIC else -extra)


def _robust_backup(icf: IntervalCfMdp, mode: Mode) -> Callable:
    """`mdp._backward` backup of an ICFMDP: order-and-fill on the compact layer of step t,
    with the next-step values gathered on each row's support columns."""
    def expect(t, v_next, rows):
        def row_name(idx):
            s, a = idx if len(idx) == 2 else (idx[0], rows[1][idx[0]])
            return f"at (t={t}, s={s}, a={a})"

        u = icf.layer[t]
        return _order_fill(v_next[icf.cols[rows]], icf.layer_lb[u][rows], icf.layer_ub[u][rows],
                           mode, row_name)
    return expect


def robust_value_iteration(icf: IntervalCfMdp, reward: np.ndarray, mode: Mode) -> RobustSolution:
    """Optimal robust policy by backward induction.

    Action near-ties go to the lowest index (see `mdp._greedy`).
    """
    return RobustSolution(*_backward(icf.horizon, reward, _robust_backup(icf, mode)), mode)


def robust_policy_eval(icf: IntervalCfMdp, policy: PolicySchedule, mode: Mode) -> ValueTable:
    """Worst/best-case value of a fixed policy over all CFMDPs inside the intervals."""
    return _backward(icf.horizon, icf.base.reward, _robust_backup(icf, mode), policy)[1]


def point_value_iteration(transition: np.ndarray, reward: np.ndarray
                          ) -> tuple[PolicySchedule, ValueTable]:
    """Finite-horizon VI on a concrete time-indexed CFMDP (degenerate intervals)."""
    return _backward(len(transition), reward, lambda t, v, rows: transition[t][rows] @ v)


def point_policy_eval(transition: np.ndarray, reward: np.ndarray,
                      policy: PolicySchedule) -> ValueTable:
    """Evaluate a fixed policy on a concrete time-indexed CFMDP."""
    return _backward(len(transition), reward, lambda t, v, rows: transition[t][rows] @ v,
                     policy)[1]


def _sample_rows(lb: np.ndarray, ub: np.ndarray, rng: np.random.Generator,
                 row_name: Callable[[int], str] = lambda r: "") -> np.ndarray:
    """One distribution inside [lb, ub] for every feasible row of (R, S) intervals, by
    sequential conditional sampling run over rank for all rows at once.

    Each row visits its successors in its own random order (the argsort of one uniform
    per entry). At each rank the mass drawn is uniform over the range that keeps the rest
    of the row completable, given the mass left and the suffix sums of lb and ub; the
    last successor takes the remainder, so rows sum to one up to rounding.
    """
    num_rows, n = lb.shape
    order = np.argsort(rng.random((num_rows, n)), axis=1)
    u = rng.random((num_rows, n))
    lb_o = np.take_along_axis(lb, order, axis=1)
    ub_o = np.take_along_axis(ub, order, axis=1)
    # mass bounds of the successors after each rank
    lb_after = np.cumsum(lb_o[:, ::-1], axis=1)[:, ::-1] - lb_o
    ub_after = np.cumsum(ub_o[:, ::-1], axis=1)[:, ::-1] - ub_o
    drawn = np.empty((num_rows, n))
    p_o = np.empty((num_rows, n))
    remaining = np.ones(num_rows)
    for rank in range(n - 1):
        lo = np.maximum(lb_o[:, rank], remaining - ub_after[:, rank])
        hi = np.minimum(ub_o[:, rank], remaining - lb_after[:, rank])
        drawn[:, rank] = np.where(hi > lo, lo + u[:, rank] * (hi - lo), lo)
        p_o[:, rank] = np.clip(drawn[:, rank], lb_o[:, rank], ub_o[:, rank])
        remaining -= p_o[:, rank]
    drawn[:, -1] = p_o[:, -1] = remaining
    escaped = (drawn < lb_o - FEAS_TOL) | (drawn > ub_o + FEAS_TOL)
    if escaped.any():
        r, rank = np.unravel_index(np.argmax(escaped), escaped.shape)
        raise InfeasibleRow(f"sampled mass {drawn[r, rank]} escapes [{lb_o[r, rank]}, "
                            f"{ub_o[r, rank]}] {row_name(int(r))}")
    p = np.empty_like(p_o)
    np.put_along_axis(p, order, p_o, axis=1)
    return p


def sample_cfmdp(icf: IntervalCfMdp, seed: int) -> SampledCfMdp:
    """Draw a concrete CFMDP from the intervals.

    Rows are sampled independently; layer t uses its own generator `rng_from(seed, t)`,
    so it depends only on the seed, t and that layer's bounds.
    """
    t_len, n, k, _ = icf.lb.shape
    _check_feasible(icf.lb, icf.ub, lambda idx: "at (t={}, s={}, a={})".format(*idx))
    transition = np.empty((t_len, n, k, n))
    for t in range(t_len):
        transition[t] = _sample_rows(
            icf.lb[t].reshape(n * k, n), icf.ub[t].reshape(n * k, n), rng_from(seed, t),
            lambda r: f"at (t={t}, s={r // k}, a={r % k})").reshape(n, k, n)
    return SampledCfMdp(t_len, transition, seed)


def rollout_rewards(transition: np.ndarray, reward: np.ndarray, policy: PolicySchedule,
                    start_state: int, num_paths: int, seed: int) -> np.ndarray:
    """Instant rewards, shape (num_paths, T), of vectorized rollouts on a concrete CFMDP."""
    t_len, n, _, _ = transition.shape
    _check_policy_horizon(policy, t_len)
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
