"""Closed-form counterfactual transition-probability bounds and interval-CFMDP assembly.

Given one observed transition (s_t, a_t -> s_{t+1}), the counterfactual probability of
any transition (s, a -> s') is only partially identified. The bound that applies to a
query pair (s, a) depends on whether it *is* the observed pair, has support disjoint
from the observed pair's, or has overlapping support, and on which assumptions about
the underlying causal mechanism are adopted:

* NONE     -- every causal model consistent with the MDP and the observation;
* CS       -- additionally require counterfactual stability (an outcome cannot switch
              away from the observed one unless its relative likelihood increased);
* CS_MON   -- additionally require counterfactual monotonicity (the observed outcome
              cannot become less likely, an unobserved-but-possible one not more likely).

Stacking the per-step bounds for every transition yields a time-indexed interval
counterfactual MDP (ICFMDP). One kernel computes the bounds of a block of query rows
given one observed step, vectorized over rows and successors: the ICFMDP is built one
(step, action) block at a time, and `transition_row_bounds` is the one-row call.
"""

from __future__ import annotations

import csv
import enum
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvariantViolation
from .mdp import Mdp, ObservedPath, validate_path

# Slack for clamping float dust in computed bounds; anything larger is a real bug.
CLAMP_TOL = 1e-9

ObsTriple = tuple[int, int, int]  # (s_t, a_t, s_{t+1})
Pair = tuple[int, int]  # (state, action)


class Assumptions(enum.Enum):
    NONE = "none"
    CS = "cs"
    CS_MON = "cs+mon"


@dataclass(frozen=True)
class ProbInterval:
    lb: float
    ub: float

    def __post_init__(self):
        if not (0.0 <= self.lb <= self.ub <= 1.0):
            raise InvariantViolation(f"invalid probability interval [{self.lb}, {self.ub}]")

    @property
    def width(self) -> float:
        return self.ub - self.lb

    def contains(self, p: float, tol: float = 0.0) -> bool:
        return self.lb - tol <= p <= self.ub + tol


def make_interval(lb: float, ub: float) -> ProbInterval:
    """Clamp float dust (<= CLAMP_TOL) out of a computed bound pair."""
    if lb > ub + CLAMP_TOL or lb < -CLAMP_TOL or ub > 1.0 + CLAMP_TOL:
        raise InvariantViolation(f"bound pair [{lb}, {ub}] violates interval invariants")
    ub = min(max(ub, 0.0), 1.0)
    lb = min(max(lb, 0.0), ub)
    return ProbInterval(lb, ub)


def _cs_mask(obs_row: np.ndarray, s_next: int, query: np.ndarray) -> np.ndarray:
    """Per-successor stability condition: the counterfactual probability must be zero.
    `query` is one transition row (S,) or a block of them (R, S).

    Fires where the observed-pair probability of the successor is positive and the
    observed outcome's likelihood rose strictly more than the successor's under the
    query pair. Compared by cross-multiplication so zero denominators need no special
    casing; the inequality is strict, with no epsilon.
    """
    return (obs_row > 0) & (query[..., s_next, None] * obs_row > query * obs_row[s_next])


def cs_condition(m: Mdp, obs: ObsTriple, query: tuple[int, int, int]) -> bool:
    """True iff counterfactual stability forces the probability of `query` to zero."""
    s_t, a_t, s_next = obs
    s, a, s_cf = query
    return bool(_cs_mask(m.transition[s_t, a_t], s_next, m.transition[s, a])[s_cf])


def _bound_block(obs_row: np.ndarray, s_next: int, query: np.ndarray, is_observed: np.ndarray,
                 assumptions: Assumptions,
                 row_name: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray]:
    """Per-successor (lb, ub) for a block of query rows given one observed transition.

    `query` is (R, S), one transition row per query pair; `is_observed` (R,) marks the
    row of the observed pair itself. Rows whose support is disjoint from the observed
    pair's take the assumption-free formulas, since stability and monotonicity are
    vacuous there. `row_name(r)` names row r in the error raised when a row leaves no
    valid distribution.
    """
    p_obs = obs_row[s_next]
    lb = np.maximum(0.0, (query - (1.0 - p_obs)) / p_obs)
    ub = np.minimum(1.0, query / p_obs)
    if assumptions is not Assumptions.NONE:
        cs = _cs_mask(obs_row, s_next, query)
        overlap = np.any((obs_row > 0) & (query > 0), axis=1, keepdims=True)
        p_next_q = query[:, s_next, None]
        if assumptions is Assumptions.CS:
            ub[cs] = 0.0  # cs never fires on a disjoint row
            ub_o = ub
        else:
            ub_o = np.where(obs_row > 0, np.minimum(query, 1.0 - p_next_q),
                            np.minimum(1.0 - p_next_q, query / p_obs))
            ub_o[cs] = 0.0
            ub_o[:, s_next] = np.minimum(p_obs, p_next_q[:, 0]) / p_obs
        leftover = 1.0 - (ub_o.sum(axis=1, keepdims=True) - ub_o)  # mass the others cannot absorb
        lb_o = np.maximum(0.0, leftover)
        lb_o[cs] = 0.0
        if assumptions is Assumptions.CS_MON:
            lb_o[:, s_next] = np.maximum(p_next_q[:, 0], leftover[:, s_next])
        lb = np.where(overlap, lb_o, lb)
        ub = np.where(overlap, ub_o, ub)
    # Same mechanism input reproduces the observed outcome, under every assumption set.
    lb[is_observed] = ub[is_observed] = 0.0
    lb[is_observed, s_next] = ub[is_observed, s_next] = 1.0

    lb_sum, ub_sum = lb.sum(axis=1), ub.sum(axis=1)
    bad = np.flatnonzero((lb_sum > 1.0 + CLAMP_TOL) | (ub_sum < 1.0 - CLAMP_TOL))
    if bad.size:
        r = bad[0]
        raise InvariantViolation(
            f"row bounds for {row_name(r)} leave no valid distribution: "
            f"sum(lb)={lb_sum[r]:.12g}, sum(ub)={ub_sum[r]:.12g}")
    np.clip(ub, 0.0, 1.0, out=ub)
    np.minimum(lb, ub, out=lb)
    np.clip(lb, 0.0, 1.0, out=lb)
    return lb, ub


def transition_row_bounds(m: Mdp, obs: ObsTriple, query_pair: Pair,
                          assumptions: Assumptions) -> tuple[np.ndarray, np.ndarray]:
    """Per-successor (lb, ub) arrays for one query pair and one observed transition."""
    s, a = query_pair
    lb, ub = _bound_block(m.transition[obs[0], obs[1]], obs[2], m.transition[s, a][None],
                          np.array([(s, a) == tuple(obs[:2])]), assumptions,
                          lambda r: f"pair {query_pair} given {obs}")
    return lb[0], ub[0]


@dataclass(frozen=True)
class IntervalCfMdp:
    """Time-indexed interval counterfactual MDP for one observed path."""

    horizon: int
    lb: np.ndarray  # (T, S, A, S)
    ub: np.ndarray  # (T, S, A, S)
    assumptions: Assumptions
    base: Mdp
    path: ObservedPath

    def __post_init__(self):
        self.lb.setflags(write=False)
        self.ub.setflags(write=False)

    def interval(self, t: int, s: int, a: int, s_cf: int) -> ProbInterval:
        return ProbInterval(float(self.lb[t, s, a, s_cf]), float(self.ub[t, s, a, s_cf]))

    def widths(self) -> np.ndarray:
        return self.ub - self.lb


def build_interval_cfmdp(m: Mdp, path: ObservedPath, assumptions: Assumptions) -> IntervalCfMdp:
    """Interval CFMDP covering every transition of m at every observed step of the path."""
    problems = validate_path(m, path)
    if problems:
        raise ValueError("path invalid for this MDP: " + "; ".join(problems))
    t_len, n, k = path.horizon, m.num_states, m.num_actions
    lb = np.empty((t_len, n, k, n))
    ub = np.empty((t_len, n, k, n))
    states = np.arange(n)
    for t in range(t_len):
        obs = path.step(t)
        for a in range(k):
            lb[t, :, a], ub[t, :, a] = _bound_block(
                m.transition[obs[0], obs[1]], obs[2], m.transition[:, a],
                (states == obs[0]) & (a == obs[1]), assumptions,
                lambda s: f"(t={t}, s={s}, a={a}) given {obs}")
    return IntervalCfMdp(t_len, lb, ub, assumptions, m, path)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def icfmdp_to_json(icf: IntervalCfMdp) -> dict:
    t_len, n, k, _ = icf.lb.shape
    intervals = [[[[{"lb": float(icf.lb[t, s, a, s2]), "ub": float(icf.ub[t, s, a, s2])}
                    for s2 in range(n)] for a in range(k)] for s in range(n)]
                 for t in range(t_len)]
    return {"horizon": icf.horizon, "assumptions": icf.assumptions.value, "intervals": intervals}


def icfmdp_csv_rows(icf: IntervalCfMdp):
    """Flat (t, s, a, s_next, lb, ub) rows."""
    t_len, n, k, _ = icf.lb.shape
    for t in range(t_len):
        for s in range(n):
            for a in range(k):
                for s2 in range(n):
                    yield t, s, a, s2, float(icf.lb[t, s, a, s2]), float(icf.ub[t, s, a, s2])


def write_icfmdp_csv(icf: IntervalCfMdp, file: str | Path) -> None:
    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "s", "a", "s_next", "lb", "ub"])
        writer.writerows(icfmdp_csv_rows(icf))
