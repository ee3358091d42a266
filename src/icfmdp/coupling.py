"""Independent LP verification of the closed-form counterfactual bounds.

Every assumption set is a box lo <= q[s_next, :] <= hi on the observed-outcome row of
the coupling: the joint mass of the observed outcome s_next and each query outcome j
(`_observed_outcome_box`). Two formulations of the same optimization consume it:

* `oracle_bounds` works on the reduced *coupling* variable: the joint distribution
  q[i, j] over (observed-pair outcome i, query-pair outcome j), with marginals tied to
  the two interventional rows. This is exact because constraints on other pairs never
  tighten the queried bound. `oracle_layer` answers every query of one observed
  triple at once.
* `enumerate_theta_bounds` optimizes over the canonical mechanism distribution theta
  (Balke & Pearl, 1997): one variable per deterministic map from every (s, a) to a next
  state in its support. It is used as a meta-check of the reduction at small scales.

Each directed bound (query, sense) is its own LP, and LPs for different bounds share no
variables, so they are solved as independent blocks of one stacked LP (`lp.stack`): the
min and the max of a query together, and every reachable query of an observed triple
together in `oracle_layer`. Each LP is HiGHS's own model, an `lp.CscMatrix` made with
numpy alone and its row bounds. Both builders make the matrix's starts and row indices
int32 and every bound a float array of its final shape where they make them, so neither
`lp.stack` nor a solve converts them. Every solve goes through this module's `lp_solve`,
on the one HiGHS solver `lp` reuses from call to call (so from one thread at a time).
"""

from __future__ import annotations

import numpy as np

from .bounds import (Assumptions, ObsTriple, Pair, ProbInterval, _cs_mask, clamp_intervals,
                     make_interval)
from .errors import ScaleExceeded
from .lp import CscMatrix, LpProblem, block_values, lp_solve, stack
from .mdp import Mdp, check_query

ENUMERATION_LIMIT = 100_000


def _observed_outcome_box(obs_row: np.ndarray, s_next: int, query_row: np.ndarray,
                          assumptions: Assumptions) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) on the joint mass of observed outcome s_next and query outcome j.

    Stability zeroes hi wherever `_cs_mask` fires. Monotonicity keeps the observed
    outcome at least as likely (lo[s_next] = P(s_next | s, a) * p_obs) and caps every
    possible-but-unobserved outcome (hi[j] <= P(j | s, a) * p_obs). Unconstrained
    entries are [0, inf].
    """
    p_obs = obs_row[s_next]
    lo, hi = np.zeros(query_row.shape), np.full(query_row.shape, np.inf)
    if assumptions is Assumptions.CS_MON:
        lo[s_next] = query_row[s_next] * p_obs
        cap = obs_row > 0
        cap[s_next] = False
        hi[cap] = query_row[cap] * p_obs
    if assumptions is not Assumptions.NONE:
        hi[_cs_mask(obs_row, p_obs, query_row, query_row[s_next])] = 0.0
    return lo, hi


def _coupling_lp(m: Mdp, obs: ObsTriple, query_pair: Pair,
                 assumptions: Assumptions) -> tuple[LpProblem, np.ndarray, np.ndarray]:
    """The coupling LP of one query pair with no cost yet: (problem, i, j), where
    variable k is q[i[k], j[k]], the joint mass of (observed-pair outcome i, query-pair
    outcome j).

    Variables live on the joint support of the two rows, only on its diagonal when the
    query pair is the observed pair (same mechanism input, same outcome): the marginals
    force every other q[i, j] to zero. The box bounds the variables of row s_next.
    """
    s_t, a_t, s_next = obs
    s, a = query_pair
    obs_row, query_row = m.transition[s_t, a_t], m.transition[s, a]
    rows, cols = np.flatnonzero(obs_row), np.flatnonzero(query_row)
    if (s, a) == (s_t, a_t):
        ri = rj = np.arange(rows.size, dtype=np.int32)
    else:
        ri, rj = np.divmod(np.arange(rows.size * cols.size, dtype=np.int32), cols.size)
    i, j = rows[ri], cols[rj]
    lo, hi = _observed_outcome_box(obs_row, s_next, query_row, assumptions)
    lower, upper = np.zeros(i.size), np.full(i.size, np.inf)
    at = i == s_next
    lower[at], upper[at] = lo[j[at]], hi[j[at]]
    # Each variable sits in one row-marginal and one column-marginal equality.
    marginals = CscMatrix(np.arange(0, 2 * i.size + 1, 2, dtype=np.int32),
                          np.column_stack([ri, rows.size + rj]).ravel(), np.ones(2 * i.size),
                          rows.size + cols.size)
    b_eq = np.concatenate([obs_row[rows], query_row[cols]])
    problem = LpProblem(c=np.zeros(i.size), a=marginals, row_lower=b_eq, row_upper=b_eq,
                        lower=lower, upper=upper)
    return problem, i, j


def _solve_blocks(blocks: list[LpProblem]) -> np.ndarray:
    """Each independent block's optimum, from one HiGHS call on their stack."""
    _, x = lp_solve(stack(blocks))
    return block_values(blocks, x)


def _bound_blocks(problem: LpProblem, i: np.ndarray, j: np.ndarray, s_next: int,
                  s_cf: int) -> list[LpProblem]:
    """The min and the max of q[s_next, s_cf] over a `_coupling_lp`, as two blocks."""
    c = ((i == s_next) & (j == s_cf)).astype(float)
    parts = problem.a, problem.row_lower, problem.row_upper, problem.lower, problem.upper
    return [LpProblem(c, *parts, sense="min"), LpProblem(c, *parts, sense="max")]


def oracle_bounds(m: Mdp, obs: ObsTriple, query_pair: Pair, s_cf: int,
                  assumptions: Assumptions) -> ProbInterval:
    """Exact counterfactual probability bounds by LP over the two-pair coupling, with
    the min and the max solved as two blocks of one LP.

    A query outcome the query pair cannot reach has the interval [0, 0] without a solve:
    the column-marginal constraint forces q[:, s_cf] = 0.
    """
    check_query(m, obs, (*query_pair, s_cf))
    if m.transition[query_pair][s_cf] == 0.0:
        return make_interval(0.0, 0.0)
    problem, i, j = _coupling_lp(m, obs, query_pair, assumptions)
    lo, hi = _solve_blocks(_bound_blocks(problem, i, j, obs[2], s_cf)) / m.transition[obs]
    return make_interval(lo, hi)


def oracle_layer(m: Mdp, obs: ObsTriple,
                 assumptions: Assumptions) -> tuple[np.ndarray, np.ndarray]:
    """(S, A, S) arrays (lb, ub): `oracle_bounds` for every query (s, a, s_cf) given one
    observed triple, with every bound a block of one LP. Unreachable query outcomes are
    [0, 0] without a block."""
    check_query(m, obs, ())
    blocks = []
    for s, a in np.ndindex(m.transition.shape[:2]):
        problem, i, j = _coupling_lp(m, obs, (s, a), assumptions)
        for s_cf in np.flatnonzero(m.transition[s, a]):
            blocks += _bound_blocks(problem, i, j, obs[2], s_cf)
    lb, ub = np.zeros((2,) + m.transition.shape)
    reachable = m.transition != 0  # C order is block order
    lb[reachable], ub[reachable] = clamp_intervals(
        *(_solve_blocks(blocks).reshape(-1, 2) / m.transition[obs]).T)
    return lb, ub


# ---------------------------------------------------------------------------
# Canonical-mechanism enumeration (meta-check)
# ---------------------------------------------------------------------------

def _successor_table(m: Mdp) -> np.ndarray:
    """(S * A, M) table: column u is mechanism u, the successor it assigns each pair
    (row s * A + a). It holds every map of each pair into its support, so
    M = the product of the support sizes."""
    supports = [np.flatnonzero(row) for row in m.transition.reshape(-1, m.num_states)]
    sizes = [len(x) for x in supports]
    digits = np.unravel_index(np.arange(np.prod(sizes)), sizes)
    return np.array([x[d] for x, d in zip(supports, digits)])


def enumerate_theta_bounds(m: Mdp, obs: ObsTriple, query_triple: tuple[int, int, int],
                           assumptions: Assumptions) -> ProbInterval:
    """Counterfactual bounds by LP over the canonical mechanism distribution.

    All interventional rows constrain theta, and the observed-outcome box is imposed for
    the query pair. Mechanisms that map a pair outside its support are left out, since
    the interventional rows force their mass to zero. Tractable only while
    num_states ** (S * A) stays below ENUMERATION_LIMIT.
    """
    check_query(m, obs, query_triple)
    n, k = m.num_states, m.num_actions
    nmech = n ** (n * k)
    if nmech > ENUMERATION_LIMIT:
        raise ScaleExceeded(f"{nmech} mechanisms exceed the enumeration limit {ENUMERATION_LIMIT}")

    s_t, a_t, s_next = obs
    s, a, s_cf = query_triple
    obs_row, query_row = m.transition[s_t, a_t], m.transition[s, a]

    # One equality row per positive (pair, successor) entry, where mechanism u has a one
    # for each pair's successor. Box rows follow, with no lower bound: query outcome j's
    # capped row (+1) is box_row[j], its floored row (-1) box_row[n + j], for every
    # mechanism that maps the observed pair to s_next and the query pair to j.
    succ = _successor_table(m)
    flat = m.transition.ravel()
    entry_row = np.cumsum(flat > 0, dtype=np.int32) - 1
    lo, hi = _observed_outcome_box(obs_row, s_next, query_row, assumptions)
    capped, floored = np.isfinite(hi) & (query_row > 0), lo > 0
    box = np.concatenate([capped, floored])
    box_row = entry_row[-1] + np.cumsum(box, dtype=np.int32)
    hit, query_succ = succ[s_t * k + a_t] == s_next, succ[s * k + a]
    box_col = np.column_stack([query_succ, n + query_succ])
    # (M, pairs + 2): each mechanism's equality rows, then its capped and floored rows.
    index = np.column_stack([entry_row[(np.arange(succ.shape[0])[:, None] * n + succ).T],
                             box_row[box_col]])
    keep = np.column_stack([np.ones(succ.shape[::-1], dtype=bool), hit[:, None] & box[box_col]])
    value = np.ones(index.shape)
    value[:, -1] = -1.0
    matrix = CscMatrix(np.concatenate([[0], np.cumsum(keep.sum(axis=1))], dtype=np.int32),
                       index[keep], value[keep], int(box_row[-1]) + 1)
    b_eq = flat[flat > 0]
    c = (hit & (query_succ == s_cf)).astype(float)
    bounds = (np.concatenate([b_eq, np.full(np.count_nonzero(box), -np.inf)]),
              np.concatenate([b_eq, hi[capped], -lo[floored]]), np.zeros(c.size),
              np.full(c.size, np.inf))
    blocks = [LpProblem(c, matrix, *bounds, sense=sense) for sense in ("min", "max")]
    lo_value, hi_value = _solve_blocks(blocks) / obs_row[s_next]
    return make_interval(lo_value, hi_value)
