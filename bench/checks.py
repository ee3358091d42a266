"""Correctness checks on the benchmark's outputs.

Every check rests on a property the method must have, or on a computation made
apart from the library (scipy `linprog` called directly, the paper's Table 1), never
on a stored copy of earlier output. Each raises CheckFailed naming what broke.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

PROB_TOL = 1e-9  # float dust allowed in probabilities and row sums
VALUE_RTOL = 1e-9  # relative slack on value comparisons
LP_TOL = 1e-8  # closed form vs LP, coupling vs enumeration, DP backup vs LP
MC_SIGMAS = 6.0  # Monte-Carlo slack in standard errors

# Table 1 of the paper: toy MDP, observed 0 -> 1; (s, a, s') -> ((lb, ub) with no
# assumptions, (lb, ub) under cs+mon).
TOY_TABLE1 = {
    (0, 0, 0): ((0.0, 0.0), (0.0, 0.0)),
    (0, 0, 1): ((1.0, 1.0), (1.0, 1.0)),
    (0, 0, 2): ((0.0, 0.0), (0.0, 0.0)),
    (1, 0, 0): ((0.0, 1.0), (0.4, 0.4)),
    (1, 0, 1): ((0.0, 0.0), (0.0, 0.0)),
    (1, 0, 2): ((0.0, 1.0), (0.6, 0.6)),
    (2, 0, 0): ((0.0, 0.0), (0.0, 0.0)),
    (2, 0, 1): ((0.0, 0.0), (0.0, 0.0)),
    (2, 0, 2): ((1.0, 1.0), (1.0, 1.0)),
}


class CheckFailed(Exception):
    """An output broke a property it must have."""


def _value_tol(*arrays) -> float:
    return VALUE_RTOL * max(1.0, *(float(np.max(np.abs(a))) for a in arrays))


def _point_mass(n: int, s: int) -> np.ndarray:
    row = np.zeros(n)
    row[s] = 1.0
    return row


def _check_observed_rows(path, rows: np.ndarray, what: str) -> None:
    for t in range(path.horizon):
        s, a, s_next = path.step(t)
        if not np.array_equal(rows[t, s, a], _point_mass(rows.shape[-1], s_next)):
            raise CheckFailed(f"{what}: observed row (t={t}, s={s}, a={a}) is not the "
                              f"point mass on {s_next}")


def check_icfmdp(m, path, lb: np.ndarray, ub: np.ndarray) -> None:
    """0 <= lb <= ub <= 1, sum(lb) <= 1 <= sum(ub) per row, ub = 0 off the base row's
    support, and each observed (s_t, a_t) row is the point mass on s_{t+1}."""
    off_support = m.transition == 0
    for t in range(lb.shape[0]):  # one layer at a time keeps temporaries small
        lb_t, ub_t = lb[t], ub[t]
        if not (np.all(lb_t >= 0.0) and np.all(lb_t <= ub_t) and np.all(ub_t <= 1.0)):
            bad = np.argwhere(~((lb_t >= 0.0) & (lb_t <= ub_t) & (ub_t <= 1.0)))[0]
            raise CheckFailed(f"ICFMDP: interval at t={t}, (s, a, s')={tuple(bad)} is not "
                              f"0 <= lb <= ub <= 1")
        if np.any(lb_t.sum(axis=2) > 1.0 + PROB_TOL) or np.any(ub_t.sum(axis=2) < 1.0 - PROB_TOL):
            raise CheckFailed(f"ICFMDP: a row at t={t} has sum(lb) > 1 or sum(ub) < 1")
        if np.any(ub_t[off_support] != 0.0):
            raise CheckFailed(f"ICFMDP: ub > 0 outside the base row's support at t={t}")
    _check_observed_rows(path, lb, "ICFMDP lb")
    _check_observed_rows(path, ub, "ICFMDP ub")


def check_order(low: np.ndarray, high: np.ndarray, what: str) -> None:
    """low <= high everywhere, up to float slack."""
    if np.any(low > high + _value_tol(low, high)):
        bad = np.argwhere(low > high + _value_tol(low, high))[0]
        raise CheckFailed(f"{what}: violated at {tuple(bad)}")


def check_within(values: np.ndarray, low: np.ndarray, high: np.ndarray, what: str) -> None:
    check_order(low, values, f"{what} (below its pessimistic value)")
    check_order(values, high, f"{what} (above its optimistic value)")


def lp_expectation(v: np.ndarray, lb: np.ndarray, ub: np.ndarray, maximize: bool) -> float:
    """Extreme of p @ v over {lb <= p <= ub, sum(p) = 1}, by scipy linprog."""
    sign = -1.0 if maximize else 1.0
    res = linprog(sign * v, A_eq=np.ones((1, v.shape[0])), b_eq=[1.0],
                  bounds=list(zip(lb, ub)), method="highs")
    if res.status != 0:
        raise CheckFailed(f"backup LP failed: {res.message}")
    return sign * float(res.fun)


def check_backup(values: np.ndarray, lb: np.ndarray, ub: np.ndarray, reward: np.ndarray,
                 t: int, s: int, maximize: bool, action: int | None = None) -> None:
    """values[t, s] equals the robust backup re-solved by LP: over every action for
    robust VI (action=None), over the given action for policy evaluation."""
    actions = range(reward.shape[1]) if action is None else [action]
    q = [reward[s, a] + lp_expectation(values[t + 1], lb[t, s, a], ub[t, s, a], maximize)
         for a in actions]
    expected = max(q)
    if abs(values[t, s] - expected) > LP_TOL * max(1.0, abs(expected)):
        raise CheckFailed(f"robust backup at (t={t}, s={s}): {values[t, s]!r} != LP "
                          f"{expected!r}")


def check_sampled_cfmdp(lb: np.ndarray, ub: np.ndarray, transition: np.ndarray) -> None:
    """Every sampled row lies in [lb, ub] and sums to 1."""
    if np.any(transition < lb - PROB_TOL) or np.any(transition > ub + PROB_TOL):
        raise CheckFailed("sampled CFMDP: an entry lies outside [lb, ub]")
    if np.max(np.abs(transition.sum(axis=-1) - 1.0)) > PROB_TOL:
        raise CheckFailed("sampled CFMDP: a row does not sum to 1")


def check_rollout_mean(returns: np.ndarray, exact: float, what: str) -> None:
    """Mean rollout return agrees with the exact value within MC_SIGMAS standard errors."""
    se = float(returns.std(ddof=1)) / np.sqrt(returns.shape[0])
    gap = abs(float(returns.mean()) - exact)
    if gap > MC_SIGMAS * se + VALUE_RTOL * max(1.0, abs(exact)):
        raise CheckFailed(f"{what}: rollout mean {returns.mean():.6g} is {gap:.3g} from the "
                          f"exact value {exact:.6g} (standard error {se:.3g})")


def check_gumbel_cfmdp(m, path, transition: np.ndarray, cs_lb: np.ndarray,
                       cs_ub: np.ndarray, num_samples: int) -> None:
    """Rows sum to 1, are zero off the query support, the observed pair's rows are the
    point mass on s_{t+1}, and every entry lies inside the counterfactual-stability
    interval up to binomial slack (the Gumbel-max SCM satisfies stability)."""
    if np.max(np.abs(transition.sum(axis=-1) - 1.0)) > PROB_TOL:
        raise CheckFailed("Gumbel CFMDP: a row does not sum to 1")
    if np.any(transition[:, m.transition == 0] != 0.0):
        raise CheckFailed("Gumbel CFMDP: mass outside the query pair's support")
    _check_observed_rows(path, transition, "Gumbel CFMDP")

    def slack(b):
        return MC_SIGMAS * np.sqrt(np.maximum(b * (1.0 - b), 1.0 / num_samples) / num_samples)

    if np.any(transition < cs_lb - slack(cs_lb)) or np.any(transition > cs_ub + slack(cs_ub)):
        raise CheckFailed("Gumbel CFMDP: an entry lies outside its stability interval "
                          "beyond binomial slack")


def check_rows_agree(a: np.ndarray, b: np.ndarray, what: str, tol: float = LP_TOL) -> None:
    """Two bound arrays of the same queries agree entry by entry within tol."""
    gap = float(np.max(np.abs(a - b)))
    if gap > tol:
        raise CheckFailed(f"{what}: max |delta| {gap:.3g} > {tol:g}")


def check_nesting(none: np.ndarray, cs: np.ndarray, cs_mon: np.ndarray) -> None:
    """Intervals nest, cs+mon within cs within none; arrays are (2, ...) as (lb, ub)."""
    for inner, outer, what in ((cs_mon, cs, "cs+mon within cs"), (cs, none, "cs within none")):
        if np.any(inner[0] < outer[0] - PROB_TOL) or np.any(inner[1] > outer[1] + PROB_TOL):
            raise CheckFailed(f"interval nesting broken: {what}")


def check_toy_table(none: np.ndarray, cs_mon: np.ndarray) -> None:
    """The toy MDP's bounds equal Table 1; arrays are (2, S, A, S) as (lb, ub)."""
    for (s, a, s_cf), (want_none, want_csm) in TOY_TABLE1.items():
        for got, want, label in ((none, want_none, "none"), (cs_mon, want_csm, "cs+mon")):
            if abs(got[0, s, a, s_cf] - want[0]) > 1e-12 or abs(got[1, s, a, s_cf] - want[1]) > 1e-12:
                raise CheckFailed(f"toy Table 1, {label}, ({s}, {a}, {s_cf}): "
                                  f"[{got[0, s, a, s_cf]}, {got[1, s, a, s_cf]}] != {list(want)}")
