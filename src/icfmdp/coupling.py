"""Independent LP verification of the closed-form counterfactual bounds.

Two formulations of the same optimization:

* `oracle_bounds` works on the reduced *coupling* variable: the joint distribution
  q[i, j] over (observed-pair outcome i, query-pair outcome j). Marginals are tied to
  the two interventional rows, and the stability/monotonicity constraints are linear
  in q. This is exact because constraints on other pairs never tighten the queried
  bound.
* `enumerate_theta_bounds` optimizes over the full canonical mechanism distribution
  theta (one variable per deterministic map from every (s, a) to a next state) and is
  used as a meta-check of the reduction at small scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .bounds import Assumptions, ObsTriple, Pair, ProbInterval, _cs_mask, make_interval
from .errors import ScaleExceeded
from .lp import LpProblem, lp_solve
from .mdp import Mdp

ENUMERATION_LIMIT = 100_000


@dataclass(frozen=True)
class Coupling:
    """Joint distribution over (observed-pair outcome, query-pair outcome)."""

    q: np.ndarray  # (S, S)


def _coupling_lp(m: Mdp, obs: ObsTriple, query_pair: Pair,
                 assumptions: Assumptions) -> tuple[LpProblem, float]:
    """Constraint system shared by all objectives for one (obs, query, assumptions)."""
    s_t, a_t, s_next = obs
    s, a = query_pair
    n = m.num_states
    obs_row = m.transition[s_t, a_t]
    query_row = m.transition[s, a]
    p_obs = obs_row[s_next]

    nvar = n * n  # q[i, j] flattened row-major

    a_eq_rows, b_eq = [], []
    for i in range(n):  # sum_j q[i, j] = P(i | s_t, a_t)
        row = np.zeros(nvar)
        row[i * n:(i + 1) * n] = 1.0
        a_eq_rows.append(row)
        b_eq.append(obs_row[i])
    for j in range(n):  # sum_i q[i, j] = P(j | s, a)
        row = np.zeros(nvar)
        row[j::n] = 1.0
        a_eq_rows.append(row)
        b_eq.append(query_row[j])

    upper = np.ones(nvar)
    if (s, a) == (s_t, a_t):
        # Same mechanism input: outcome pairs must agree, so q is diagonal.
        for i in range(n):
            for j in range(n):
                if i != j:
                    upper[i * n + j] = 0.0

    a_ub_rows, b_ub = [], []
    if assumptions in (Assumptions.CS, Assumptions.CS_MON):
        cs = _cs_mask(obs_row, p_obs, query_row, query_row[s_next])
        upper[s_next * n + np.flatnonzero(cs)] = 0.0
    if assumptions is Assumptions.CS_MON:
        if query_row[s_next] > 0:
            # observed outcome cannot become less likely: q[s_next, s_next] >= P * p_obs
            row = np.zeros(nvar)
            row[s_next * n + s_next] = -1.0
            a_ub_rows.append(row)
            b_ub.append(-query_row[s_next] * p_obs)
        for j in range(n):
            # possible-but-unobserved outcomes cannot become more likely
            if j != s_next and query_row[j] > 0 and obs_row[j] > 0:
                row = np.zeros(nvar)
                row[s_next * n + j] = 1.0
                a_ub_rows.append(row)
                b_ub.append(query_row[j] * p_obs)

    problem = LpProblem(
        c=np.zeros(nvar),
        a_eq=np.array(a_eq_rows), b_eq=np.array(b_eq),
        a_ub=np.array(a_ub_rows) if a_ub_rows else None,
        b_ub=np.array(b_ub) if b_ub else None,
        lower=0.0, upper=upper,
    )
    return problem, p_obs


def oracle_solution(m: Mdp, obs: ObsTriple, query_pair: Pair, s_cf: int,
                    assumptions: Assumptions, sense: str) -> tuple[float, Coupling]:
    """One directed bound plus the coupling that attains it."""
    problem, p_obs = _coupling_lp(m, obs, query_pair, assumptions)
    n = m.num_states
    c = np.zeros(n * n)
    c[obs[2] * n + s_cf] = 1.0
    problem.c = c
    problem.sense = sense
    value, x = lp_solve(problem)
    return value / p_obs, Coupling(x.reshape(n, n))


def oracle_bounds(m: Mdp, obs: ObsTriple, query_pair: Pair, s_cf: int,
                  assumptions: Assumptions) -> ProbInterval:
    """Exact counterfactual probability bounds by LP over the two-pair coupling.

    A query outcome the query pair cannot reach has the interval [0, 0] without a solve:
    the column-marginal constraint forces q[:, s_cf] = 0.
    """
    if m.transition[query_pair][s_cf] == 0.0:
        return make_interval(0.0, 0.0)
    lo, _ = oracle_solution(m, obs, query_pair, s_cf, assumptions, "min")
    hi, _ = oracle_solution(m, obs, query_pair, s_cf, assumptions, "max")
    return make_interval(lo, hi)


def check_coupling_feasible(coupling: Coupling, m: Mdp, obs: ObsTriple, query_pair: Pair,
                            assumptions: Assumptions, tol: float = 1e-9) -> bool:
    """Replay every constraint of the coupling LP against a candidate solution."""
    s_t, a_t, s_next = obs
    s, a = query_pair
    q = coupling.q
    obs_row = m.transition[s_t, a_t]
    query_row = m.transition[s, a]
    p_obs = obs_row[s_next]

    if np.any(q < -tol):
        return False
    if np.max(np.abs(q.sum(axis=1) - obs_row)) > tol:
        return False
    if np.max(np.abs(q.sum(axis=0) - query_row)) > tol:
        return False
    if (s, a) == (s_t, a_t) and np.max(np.abs(q - np.diag(np.diag(q)))) > tol:
        return False
    if assumptions in (Assumptions.CS, Assumptions.CS_MON):
        if np.any(q[s_next, _cs_mask(obs_row, p_obs, query_row, query_row[s_next])] > tol):
            return False
    if assumptions is Assumptions.CS_MON:
        if query_row[s_next] > 0 and q[s_next, s_next] < query_row[s_next] * p_obs - tol:
            return False
        for j in range(m.num_states):
            if j != s_next and query_row[j] > 0 and obs_row[j] > 0 \
                    and q[s_next, j] > query_row[j] * p_obs + tol:
                return False
    return True


# ---------------------------------------------------------------------------
# Full canonical-mechanism enumeration (meta-check)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalTheta:
    """Distribution over all deterministic transition mechanisms.

    Mechanism u is encoded in base num_states: digit (s * num_actions + a) is the next
    state the mechanism assigns to pair (s, a).
    """

    theta: np.ndarray
    num_states: int
    num_actions: int

    def next_states(self, s: int, a: int) -> np.ndarray:
        """Vector over mechanisms: the successor each one maps (s, a) to."""
        u = np.arange(self.theta.shape[0], dtype=np.int64)
        return mechanism_next_state(u, s, a, self.num_states, self.num_actions)


def mechanism_next_state(u, s: int, a: int, num_states: int, num_actions: int):
    """Decode the successor mechanism(s) u assign to pair (s, a)."""
    return (u // num_states ** (s * num_actions + a)) % num_states


def enumerate_theta_bounds(m: Mdp, obs: ObsTriple, query_triple: tuple[int, int, int],
                           assumptions: Assumptions) -> ProbInterval:
    """Counterfactual bounds by LP over the full mechanism distribution.

    All interventional rows constrain theta; the stability/monotonicity constraints
    are imposed for the query pair. Tractable only while num_states ** (S * A) stays
    below ENUMERATION_LIMIT.
    """
    n, k = m.num_states, m.num_actions
    nmech = n ** (n * k)
    if nmech > ENUMERATION_LIMIT:
        raise ScaleExceeded(f"{nmech} mechanisms exceed the enumeration limit {ENUMERATION_LIMIT}")

    s_t, a_t, s_next = obs
    s, a, s_cf = query_triple
    p_obs = m.transition[s_t, a_t, s_next]
    query_row = m.transition[s, a]
    obs_row = m.transition[s_t, a_t]

    u = np.arange(nmech, dtype=np.int64)
    digits = {(si, ai): mechanism_next_state(u, si, ai, n, k)
              for si in range(n) for ai in range(k)}
    sel_obs = digits[(s_t, a_t)] == s_next

    a_eq_rows, b_eq = [], []
    for si in range(n):
        for ai in range(k):
            d = digits[(si, ai)]
            for s2 in range(n):
                a_eq_rows.append(d == s2)
                b_eq.append(m.transition[si, ai, s2])

    a_ub_rows, b_ub = [], []
    if assumptions in (Assumptions.CS, Assumptions.CS_MON):
        for j in np.flatnonzero(_cs_mask(obs_row, p_obs, query_row, query_row[s_next])):
            a_eq_rows.append(sel_obs & (digits[(s, a)] == j))
            b_eq.append(0.0)
    if assumptions is Assumptions.CS_MON:
        if query_row[s_next] > 0:
            a_ub_rows.append(-(sel_obs & (digits[(s, a)] == s_next)).astype(float))
            b_ub.append(-query_row[s_next] * p_obs)
        for j in range(n):
            if j != s_next and query_row[j] > 0 and obs_row[j] > 0:
                a_ub_rows.append(sel_obs & (digits[(s, a)] == j))
                b_ub.append(query_row[j] * p_obs)

    a_eq = sp.csc_matrix(np.array(a_eq_rows, dtype=float))
    a_ub = sp.csc_matrix(np.array(a_ub_rows, dtype=float)) if a_ub_rows else None
    c = (sel_obs & (digits[(s, a)] == s_cf)).astype(float)

    problem = LpProblem(c=c, a_eq=a_eq, b_eq=np.array(b_eq),
                        a_ub=a_ub, b_ub=np.array(b_ub) if b_ub else None)
    problem.sense = "min"
    lo, _ = lp_solve(problem)
    problem.sense = "max"
    hi, _ = lp_solve(problem)
    return make_interval(lo / p_obs, hi / p_obs)
