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
given a set of observed steps, vectorized over steps, rows and successors: the ICFMDP is
one call over every unique observed triple and every (s, a) row, and
`transition_row_bounds` is the one-row call.

Layout. Every bound is zero off the query row's support, and the bounds of a step depend
only on its observed triple. An `IntervalCfMdp` therefore stores one (S, A, K) layer per
unique observed triple, on the base MDP's support columns padded to K = the widest row
(`Mdp.support_cols`), plus a (T,) index from steps to layers. The dense (T, S, A, S)
`lb`/`ub` are read-only views built on first access, for serialization, sampling and
checks; robust DP reads only the compact layers, and each layer row's room and slack,
computed once with the row check.
"""

from __future__ import annotations

import csv
import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import InfeasibleRow, InvariantViolation
from .mdp import Mdp, ObservedPath, check_path, check_query

# Slack for float dust in interval rows: clamped out of computed bounds, allowed in the
# row check. Anything larger is a real bug.
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


def make_interval(lb: float, ub: float) -> ProbInterval:
    """Clamp float dust (<= CLAMP_TOL) out of a computed bound pair."""
    if lb > ub + CLAMP_TOL or lb < -CLAMP_TOL or ub > 1.0 + CLAMP_TOL:
        raise InvariantViolation(f"bound pair [{lb}, {ub}] violates interval invariants")
    ub = min(max(ub, 0.0), 1.0)
    lb = min(max(lb, 0.0), ub)
    return ProbInterval(lb, ub)


def _cs_mask(obs: np.ndarray, p_obs: float, query: np.ndarray,
             p_next_q: np.ndarray) -> np.ndarray:
    """Per-successor stability condition: the counterfactual probability must be zero.

    `obs` and `query` hold the observed pair's and the query pairs' probabilities on the
    same successors, one row (K,) or a block (R, K); `p_obs` is the observed outcome's
    probability under the observed pair and `p_next_q` (or (R, 1)) under each query pair.
    Fires where the observed-pair probability of the successor is positive and the
    observed outcome's likelihood rose strictly more than the successor's under the
    query pair. Compared by cross-multiplication so zero denominators need no special
    casing; the inequality is strict, with no epsilon.
    """
    return (obs > 0) & (p_next_q * obs > query * p_obs)


def check_interval_rows(lb: np.ndarray, ub: np.ndarray,
                        row_name: Callable[[tuple], str]) -> np.ndarray:
    """Raise InfeasibleRow unless every row of (..., K) intervals is a set of distributions:
    -tol <= lb <= ub + tol and ub <= 1 + tol entrywise, sum(lb) <= 1 + tol and
    sum(ub) >= 1 - tol, with tol = CLAMP_TOL (Givan, Leach & Dean, 2000). A NaN entry
    fails every comparison, and the chain bounds both ends, so non-finite entries fail
    too. The error names the first bad row by `row_name` of its index. Returns the
    rows' sum(lb).
    """
    entry_ok = (lb >= -CLAMP_TOL) & (lb <= ub + CLAMP_TOL) & (ub <= 1.0 + CLAMP_TOL)
    lb_sum, ub_sum = lb.sum(axis=-1), ub.sum(axis=-1)
    row_ok = reduce(np.logical_and, (entry_ok[..., j] for j in range(lb.shape[-1])))
    bad = ~row_ok | (lb_sum > 1.0 + CLAMP_TOL) | (ub_sum < 1.0 - CLAMP_TOL)
    if bad.any():
        idx = np.unravel_index(np.argmax(bad), bad.shape)
        row_lb, row_ub, row_ok = lb[idx], ub[idx], entry_ok[idx]
        j = int(np.argmin(row_ok))  # the first bad entry, if any
        entry = "" if row_ok[j] else f"; entry {j} is [{row_lb[j]:.12g}, {row_ub[j]:.12g}]"
        raise InfeasibleRow(
            f"interval row {row_name(tuple(int(i) for i in idx))} is not a set of "
            f"distributions: sum(lb)={lb_sum[idx]:.12g}, sum(ub)={ub_sum[idx]:.12g}{entry}")
    return lb_sum


def _bound_block(p_obs: np.ndarray | float, obs: np.ndarray, query: np.ndarray,
                 at_next: np.ndarray, is_observed: np.ndarray, assumptions: Assumptions,
                 row_name: Callable[[tuple], str]) -> tuple[np.ndarray, np.ndarray]:
    """Per-successor (lb, ub) for a block of query rows, each given an observed transition.

    The arguments broadcast to the rows' shape (..., K). `query` holds each query row's
    probabilities on its columns: distinct successors covering the row's support, padded
    with ones it cannot reach; every bound is zero off that support. On the same columns,
    `obs` holds the observed pair's probabilities and `at_next` marks the observed
    outcome, of probability `p_obs` (..., 1) under the observed pair; `is_observed` (...)
    marks the observed pair's own rows. Rows whose support is disjoint from the observed
    pair's take the assumption-free formulas, since stability and monotonicity are
    vacuous there. Maxima over the K columns run one column at a time over all rows. The
    raw rows pass `check_interval_rows`, which names a row by `row_name` of its index,
    before float dust is clamped out.
    """
    k = query.shape[-1]
    ratio = query / p_obs
    lb = np.maximum(0.0, (query - (1.0 - p_obs)) / p_obs)
    ub = np.minimum(1.0, ratio)
    if assumptions is not Assumptions.NONE:
        at_q, both = np.where(at_next, query, 0.0), (obs > 0) & (query > 0)
        p_next_q = reduce(np.maximum, (at_q[..., j] for j in range(k)))[..., None]
        overlap = reduce(np.logical_or, (both[..., j] for j in range(k)))[..., None]
        cs = _cs_mask(obs, p_obs, query, p_next_q)
        if assumptions is Assumptions.CS:
            ub[cs] = 0.0  # cs never fires on a disjoint row
            ub_o = ub
        else:
            ub_o = np.where(obs > 0, np.minimum(query, 1.0 - p_next_q),
                            np.minimum(1.0 - p_next_q, ratio))
            ub_o[cs] = 0.0
            ub_o = np.where(at_next, np.minimum(p_obs, p_next_q) / p_obs, ub_o)
        # Mass the other successors cannot absorb. A value within the rounding error of
        # the K-term sum is 0: lowering a lower bound only widens the interval.
        leftover = 1.0 - (ub_o.sum(axis=-1, keepdims=True) - ub_o)
        lb_o = np.where(leftover > k * np.finfo(float).eps, leftover, 0.0)
        if assumptions is Assumptions.CS_MON:
            lb_o = np.where(at_next, np.maximum(p_next_q, lb_o), lb_o)
        lb_o[cs | (query <= 0)] = 0.0  # off the support (padding too), before the row check
        lb = np.where(overlap, lb_o, lb)
        ub = np.where(overlap, ub_o, ub)
    # Same mechanism input reproduces the observed outcome, under every assumption set.
    lb[is_observed] = ub[is_observed] = 0.0
    hit = is_observed[..., None] & at_next
    lb[hit] = ub[hit] = 1.0

    check_interval_rows(lb, ub, row_name)
    np.clip(ub, 0.0, 1.0, out=ub)
    np.minimum(lb, ub, out=lb)
    np.clip(lb, 0.0, 1.0, out=lb)
    return lb, ub


def transition_row_bounds(m: Mdp, obs: ObsTriple, query_pair: Pair,
                          assumptions: Assumptions) -> tuple[np.ndarray, np.ndarray]:
    """Per-successor (lb, ub) arrays for one query pair and one observed transition."""
    check_query(m, obs, query_pair)
    s, a = query_pair
    cols = m.support_cols[s, a]
    obs_row = m.transition[obs[0], obs[1]]
    lb, ub = _bound_block(obs_row[obs[2]], obs_row[cols], m.transition[s, a, cols],
                          cols == obs[2], np.array((s, a) == tuple(obs[:2])), assumptions,
                          lambda idx: f"pair {query_pair} given {obs}")
    dense = np.zeros((2, m.num_states))
    dense[:, cols] = lb, ub
    return dense[0], dense[1]


@dataclass(frozen=True)
class IntervalCfMdp:
    """Time-indexed interval counterfactual MDP for one observed path.

    Step t uses layer `layer[t]`: `layer_lb[layer[t], s, a, j]` and `layer_ub[...]` bound
    the counterfactual probability of successor `cols[s, a, j]`, and every successor not
    in `cols[s, a]` has the interval [0, 0]. The dense (T, S, A, S) `lb` and `ub` are
    built on first access and cached. Every layer row must be a set of distributions
    (`check_interval_rows`); a bad row is named by the first step that uses its layer.
    The order-and-fill backups of `robust` read each layer row's room `ub - lb` and slack
    `1 - sum(lb)`, computed once here.
    """

    horizon: int
    cols: np.ndarray  # (S, A, K) successor columns, ascending within a row
    layer: np.ndarray  # (T,) layer of each step
    layer_lb: np.ndarray  # (U, S, A, K)
    layer_ub: np.ndarray  # (U, S, A, K)
    assumptions: Assumptions
    base: Mdp
    path: ObservedPath
    room: np.ndarray = field(init=False, repr=False, compare=False)  # (U, S, A, K)
    slack: np.ndarray = field(init=False, repr=False, compare=False)  # (U, S, A)

    def __post_init__(self):
        lb_sum = check_interval_rows(
            self.layer_lb, self.layer_ub, lambda idx: "(t={}, s={}, a={})".format(
                int(np.argmax(self.layer == idx[0])), *idx[1:]))
        object.__setattr__(self, "room", self.layer_ub - self.layer_lb)
        object.__setattr__(self, "slack", 1.0 - lb_sum)
        for name in ("cols", "layer", "layer_lb", "layer_ub", "room", "slack"):
            getattr(self, name).setflags(write=False)

    def _dense(self, layers: np.ndarray) -> np.ndarray:
        out = np.zeros((self.horizon,) + self.cols.shape[:2] + (self.base.num_states,))
        np.put_along_axis(out, self.cols[None], layers[self.layer], axis=3)
        out.setflags(write=False)
        return out

    @cached_property
    def lb(self) -> np.ndarray:
        """Dense (T, S, A, S) lower bounds (read-only)."""
        return self._dense(self.layer_lb)

    @cached_property
    def ub(self) -> np.ndarray:
        """Dense (T, S, A, S) upper bounds (read-only)."""
        return self._dense(self.layer_ub)

    def widths(self) -> np.ndarray:
        return self.ub - self.lb


def build_interval_cfmdp(m: Mdp, path: ObservedPath, assumptions: Assumptions) -> IntervalCfMdp:
    """Interval CFMDP covering every transition of m at every observed step of the path.

    Each unique observed triple is bounded once, and all of them in one block of U·S·A
    rows. A bad raw row is named by the first step that observes its triple.
    """
    check_path(m, path)
    steps = [path.step(t) for t in range(path.horizon)]
    triples = list(dict.fromkeys(steps))  # in order of first occurrence
    s_t, a_t, s_next = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    cols = m.support_cols.reshape(-1, m.support_cols.shape[-1])  # rows are pairs s * A + a
    lb, ub = _bound_block(
        m.transition[s_t, a_t, s_next][:, None, None], m.transition[s_t, a_t][:, cols],
        np.take_along_axis(m.transition, m.support_cols, axis=2).reshape(cols.shape),
        cols == s_next[:, None, None], np.arange(len(cols)) == (s_t * m.num_actions + a_t)[:, None],
        assumptions, lambda idx: "(t={}, s={}, a={}) given {}".format(
            steps.index(triples[idx[0]]), *divmod(idx[1], m.num_actions), triples[idx[0]]))
    shape = (len(triples),) + m.support_cols.shape
    return IntervalCfMdp(path.horizon, m.support_cols,
                         np.array([triples.index(obs) for obs in steps], dtype=np.int64),
                         lb.reshape(shape), ub.reshape(shape), assumptions, m, path)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def icfmdp_to_json(icf: IntervalCfMdp) -> dict:
    cell = np.frompyfunc(lambda lo, hi: {"lb": lo, "ub": hi}, 2, 1)  # gets Python floats
    return {"horizon": icf.horizon, "assumptions": icf.assumptions.value,
            "intervals": cell(icf.lb, icf.ub).tolist()}


def icfmdp_csv_rows(icf: IntervalCfMdp):
    """Flat (t, s, a, s_next, lb, ub) rows, listed one step at a time."""
    s_a_s2 = np.indices(icf.lb.shape[1:]).reshape(3, -1).tolist()
    for t in range(icf.horizon):
        yield from zip(repeat(t), *s_a_s2, icf.lb[t].ravel().tolist(), icf.ub[t].ravel().tolist())


def write_icfmdp_csv(icf: IntervalCfMdp, file: str | Path) -> None:
    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "s", "a", "s_next", "lb", "ub"])
        writer.writerows(icfmdp_csv_rows(icf))
