"""Robust (pessimistic/optimistic) finite-horizon dynamic programming over interval
CFMDPs, plus sampling of concrete CFMDPs from the intervals.

The inner optimization of each Bellman backup -- extremize an expectation over all
distributions inside per-successor probability intervals -- is solved exactly by
order-and-fill: start every successor at its lower bound and hand out the remaining
mass in value order (worst-first when pessimistic, best-first when optimistic). One
kernel does this for all rows of a time step at once: one argsort orders each row's K
successor values, and its fill is a running sum of the room ub - lb clipped to the slack
1 - sum(lb), both precomputed per layer row by `IntervalCfMdp`. Robust value iteration
and policy evaluation run it on the ICFMDP's compact layers, gathering the next-step
values on each row's support columns, so a backup touches S·A·K entries rather than
S·A·S; they never build the dense (T, S, A, S) view. Nothing here re-checks the
intervals: every `IntervalCfMdp` row is checked once, when the ICFMDP is made.
Both, and the point versions on a concrete CFMDP (backup `transition[t][rows] @ v`), are
thin calls to `mdp._backward`, the one backward-induction routine of all six DP entry
points.

Concrete CFMDPs are sampled from the intervals by sequential conditional sampling on
the same compact layers, in one batched kernel over all T·S·A rows: every row visits its
K support columns in its own random order, drawn from its step's generator, and the K
ranks are filled in turn for all rows at once; the rows are then scattered into a dense
(T, S, A, S) transition.

Rollouts take the CDF of each state's row under the policy on the row's K support columns
(`mdp.support_columns`), which equals the S-wide CDF there: the other columns add exact
zeros. A step moves all paths at once by a branchless binary search of log2 K passes:
a draw u goes to column j exactly when cdf[j-1] <= u < cdf[j], so no draw, u = 0
included, lands on a state of probability 0. CDF entries equal to the row's total are
keyed 2, above every draw, so a draw above a rounded total cannot escape the support.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bounds import CLAMP_TOL, IntervalCfMdp
from .errors import InfeasibleRow
from .mdp import (PointCfMdp, PolicySchedule, ValueTable, _backward, _check_policy, rng_from,
                  support_columns)


class Mode(enum.Enum):
    PESSIMISTIC = "pessimistic"
    OPTIMISTIC = "optimistic"


@dataclass(frozen=True)
class RobustSolution:
    policy: PolicySchedule
    values: ValueTable
    mode: Mode


def _order_fill(v: np.ndarray, lb: np.ndarray, room: np.ndarray, slack: np.ndarray,
                mode: Mode) -> np.ndarray:
    """Extreme of p @ v over {lb <= p <= ub, sum(p) = 1} for every row of (..., K)
    intervals, given as lb, the room ub - lb and the slack 1 - sum(lb) (...), where v
    (..., K) holds the values of each row's successors. The rows must pass
    `bounds.check_interval_rows`; they are not checked again here.

    Each row's successors are sorted by value (stable, so value ties go to the earlier
    column; columns ascend by state index). Each row starts at lb and hands its slack
    out in that order, so the mass a successor receives is its room clipped to what the
    successors before it left over. One argsort orders all rows; its flat indices gather
    the sorted room and keys, and the running sum over K runs one column at a time.
    """
    keys = v if mode is Mode.PESSIMISTIC else -v  # ascending keys: fill order
    order = np.argsort(keys, axis=-1, kind="stable")
    k = order.shape[-1]
    order += np.arange(0, order.size, k).reshape(order.shape[:-1] + (1,))
    room_o = np.take(room, order)
    fill = room_o.astype(float)
    for j in range(1, k):
        fill[..., j] += fill[..., j - 1]
    fill -= room_o  # mass handed out before each successor
    np.subtract(slack[..., None], fill, out=fill)
    np.minimum(np.maximum(fill, 0.0, out=fill), room_o, out=fill)
    # the sorted keys are the values in fill order, negated when optimistic
    extra = np.einsum("...k,...k->...", fill, np.take(keys, order))
    return np.einsum("...k,...k->...", lb, v) + (extra if mode is Mode.PESSIMISTIC else -extra)


def _robust_backup(icf: IntervalCfMdp, mode: Mode) -> Callable:
    """`mdp._backward` backup of an ICFMDP: order-and-fill on the compact layer of step t,
    with the next-step values gathered on each row's support columns."""
    def expect(t, v_next, rows):
        u = icf.layer[t]
        return _order_fill(v_next[icf.cols[rows]], icf.layer_lb[u][rows], icf.room[u][rows],
                           icf.slack[u][rows], mode)
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


def _sample_rows(lb: np.ndarray, ub: np.ndarray, keys: np.ndarray, u: np.ndarray,
                 row_name: Callable[[int], str] = lambda r: "") -> np.ndarray:
    """One distribution inside [lb, ub] for every feasible row of (R, K) intervals, by
    sequential conditional sampling run over rank for all rows at once.

    Each row visits its entries in its own random order, the argsort of its row of
    `keys`. At each rank the mass drawn is uniform over the range that keeps the rest of
    the row completable, given the mass left and the suffix sums of lb and ub, placed in
    that range by the row's entry of `u` (R, K) at that rank; the last entry takes the
    remainder, so rows sum to one up to rounding.
    """
    num_rows, n = lb.shape
    order = np.argsort(keys, axis=1)
    order += np.arange(0, order.size, n)[:, None]  # flat indices
    lb_o, ub_o = np.take(lb, order), np.take(ub, order)
    # mass bounds of the entries after each rank: suffix sums, one column at a time
    after = np.stack([lb_o, ub_o])
    for rank in range(n - 2, -1, -1):
        after[..., rank] += after[..., rank + 1]
    lb_after, ub_after = after - (lb_o, ub_o)
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
    escaped = (drawn < lb_o - CLAMP_TOL) | (drawn > ub_o + CLAMP_TOL)
    if escaped.any():
        r, rank = np.unravel_index(np.argmax(escaped), escaped.shape)
        raise InfeasibleRow(f"sampled mass {drawn[r, rank]} escapes [{lb_o[r, rank]}, "
                            f"{ub_o[r, rank]}] {row_name(int(r))}")
    p = np.empty_like(p_o)
    np.put(p, order, p_o)
    return p


def sample_cfmdp(icf: IntervalCfMdp, seed: int) -> PointCfMdp:
    """Draw a concrete CFMDP from the intervals.

    Rows are sampled independently on their support columns `icf.cols` (S, A, K); every
    other successor gets probability 0. Step t draws the visiting-order keys and then the
    uniforms of its rows, each (S·A, K), from its own generator `rng_from(seed, t)`, so it
    depends only on the seed, t, that step's layer and `cols`: the same bounds laid out on
    wider columns (say, the union support of every step) draw differently.
    """
    shape = (icf.horizon,) + icf.cols.shape
    lb, ub = icf.layer_lb[icf.layer], icf.layer_ub[icf.layer]
    keys, u = np.stack([rng_from(seed, t).random((2,) + shape[1:])
                        for t in range(icf.horizon)], axis=1)
    rows = (-1, shape[-1])
    p = _sample_rows(lb.reshape(rows), ub.reshape(rows), keys.reshape(rows), u.reshape(rows),
                     lambda r: "at (t={}, s={}, a={})".format(*np.unravel_index(r, shape[:-1])))
    transition = np.zeros(shape[:-1] + (icf.base.num_states,))
    np.put_along_axis(transition, icf.cols[None], p.reshape(shape), axis=3)
    return PointCfMdp(icf.horizon, transition, seed)


def rollout_rewards(transition: np.ndarray, reward: np.ndarray, policy: PolicySchedule,
                    start_state: int, num_paths: int, seed: int) -> np.ndarray:
    """Instant rewards, shape (num_paths, T), of vectorized rollouts on a concrete CFMDP."""
    t_len, n, num_actions, _ = transition.shape
    _check_policy(policy, t_len, n, num_actions)
    if not 0 <= start_state < n:
        raise ValueError(f"start state {start_state} is outside 0..{n - 1}")
    s_all, acts = np.arange(n), policy.action_at[:t_len]
    rows = transition[np.arange(t_len)[:, None], s_all, acts]  # (T, S, S)
    cols = support_columns(rows > 0)  # (T, S, K)
    cdf = np.take_along_axis(rows, cols, axis=-1)
    for j in range(1, cols.shape[-1]):  # running sum over K, one column at a time
        cdf[..., j] += cdf[..., j - 1]
    cdf[cdf >= cdf[..., -1:]] = 2.0
    k, cdf, succ = cols.shape[-1], cdf.reshape(t_len, -1), cols.reshape(t_len, -1)
    u = rng_from(seed).random((t_len, num_paths))
    step_reward = reward[s_all, acts]
    states = np.full(num_paths, start_state, dtype=np.int64)
    out = np.empty((num_paths, t_len))
    for t in range(t_len):
        out[:, t] = step_reward[t][states]
        pos, left = states * k, k  # the next column is one of pos .. pos + left - 1
        while left > 1:
            half = left // 2
            pos += half * (cdf[t, half - 1:][pos] <= u[t])
            left -= half
        states = succ[t][pos]
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
