import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from icfmdp import (Assumptions, Infeasible, InvariantViolation, LpProblem, Unbounded,
                    block_values, build_toy_mdp, enumerate_theta_bounds, lp, lp_solve, stack)
from icfmdp import coupling
from icfmdp.coupling import _bound_blocks, _coupling_lp
from helpers import make_random_mdp, random_observed


def milp_solve(problem):
    """Reference: the problem through scipy `milp`, with the same error contract."""
    sign = {"min": 1.0, "max": -1.0}[problem.sense]
    constraints = []
    if problem.a_eq is not None:
        constraints.append(LinearConstraint(problem.a_eq, problem.b_eq, problem.b_eq))
    if problem.a_ub is not None:
        constraints.append(LinearConstraint(problem.a_ub, -np.inf, problem.b_ub))
    res = milp(sign * np.asarray(problem.c, dtype=float),
               bounds=Bounds(problem.lower, problem.upper), constraints=constraints)
    if res.status == 2:
        raise Infeasible(res.message)
    if res.status == 3:
        raise Unbounded(res.message)
    if res.status != 0:
        raise InvariantViolation(res.message)
    return sign * float(res.fun), res.x


def assert_solves_as_milp(problem):
    """lp_solve returns milp's optimum and solution bit for bit, or raises exactly the
    class milp_solve raises (Infeasible and Unbounded subclass InvariantViolation)."""
    try:
        expected = milp_solve(problem)
    except (ValueError, InvariantViolation) as exc:
        with pytest.raises((ValueError, InvariantViolation)) as info:
            lp_solve(problem)
        assert type(info.value) is type(exc)
        return
    value, x = lp_solve(problem)
    assert np.array_equal([value], [expected[0]]) and np.array_equal(x, expected[1])


def test_single_variable_max():
    p = LpProblem(c=np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([0.7]),
                  sense="max")
    value, x = lp_solve(p)
    assert value == pytest.approx(0.7, abs=1e-9)
    assert x[0] == pytest.approx(0.7, abs=1e-9)


def test_transportation_corner():
    # 2x2 transportation polytope with row marginals (0.4, 0.6), column (0.5, 0.5).
    # Vertex enumeration of q00: it ranges over [max(0, 0.4 + 0.5 - 1), min(0.4, 0.5)].
    r, c = np.array([0.4, 0.6]), np.array([0.5, 0.5])
    lo_expected = max(0.0, r[0] + c[0] - 1.0)
    hi_expected = min(r[0], c[0])
    a_eq = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
    ])
    b_eq = np.concatenate([r, c])
    obj = np.array([1.0, 0.0, 0.0, 0.0])
    lo, _ = lp_solve(LpProblem(c=obj, a_eq=a_eq, b_eq=b_eq))
    hi, _ = lp_solve(LpProblem(c=obj, a_eq=a_eq, b_eq=b_eq, sense="max"))
    assert lo == pytest.approx(lo_expected, abs=1e-9)
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert hi == pytest.approx(hi_expected, abs=1e-9)


def test_infeasible():
    p = LpProblem(c=np.array([1.0]),
                  a_ub=np.array([[1.0], [-1.0]]), b_ub=np.array([0.2, -0.5]))
    with pytest.raises(Infeasible):
        lp_solve(p)


def test_unbounded():
    p = LpProblem(c=np.array([1.0]), sense="max")
    with pytest.raises(Unbounded):
        lp_solve(p)


def test_solution_satisfies_constraints(rng):
    n = 6
    a_eq = rng.random((2, n))
    x_feasible = rng.random(n)
    b_eq = a_eq @ x_feasible
    c = rng.normal(size=n)
    value, x = lp_solve(LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, upper=np.full(n, 2.0)))
    assert np.abs(a_eq @ x - b_eq).max() < 1e-9
    assert np.all(x >= -1e-9) and np.all(x <= 2.0 + 1e-9)
    assert value == pytest.approx(c @ x, abs=1e-9)


def coupling_blocks(m, obs, assumptions):
    """Both senses of every reachable coupling-LP query of one observed triple."""
    blocks = []
    for s in range(m.num_states):
        for a in range(m.num_actions):
            problem, i, j = _coupling_lp(m, obs, (s, a), assumptions)
            for s_cf in np.flatnonzero(m.transition[s, a]):
                blocks += _bound_blocks(problem, i, j, obs[2], s_cf)
    return blocks


def generic_blocks(rng, n=5):
    """Feasible, bounded LPs in the container's other forms: dense and sparse matrices,
    inequality rows with and without equality rows, scalar and per-variable bounds."""
    a, x0 = rng.random((2, n)), rng.random(n)
    return [LpProblem(c=rng.normal(size=n), a_eq=a, b_eq=a @ x0, upper=np.full(n, 2.0)),
            LpProblem(c=rng.normal(size=n), a_ub=sp.csr_matrix(a), b_ub=a @ x0, upper=1.0,
                      sense="max"),
            LpProblem(c=rng.normal(size=n), a_eq=a[:1], b_eq=a[:1] @ x0, a_ub=a[1:],
                      b_ub=a[1:] @ x0, upper=3.0)]


@pytest.mark.parametrize("sparse", [False, True])
def test_stacked_block_values_equal_separate_solves(rng, sparse):
    # HiGHS applies its tolerances to the stacked problem, so pin each block's value.
    for _ in range(4):
        m = make_random_mdp(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)),
                            sparse=sparse)
        obs = random_observed(m, rng)
        for assumptions in Assumptions:
            blocks = coupling_blocks(m, obs, assumptions) + generic_blocks(rng)
            blocks = [blocks[k] for k in rng.permutation(len(blocks))]
            _, x = lp_solve(stack(blocks))
            separate = [lp_solve(block)[0] for block in blocks]
            assert np.abs(block_values(blocks, x) - separate).max() <= 1e-12


def test_stack_with_one_infeasible_block_is_infeasible(rng):
    infeasible = LpProblem(c=np.array([1.0]),
                           a_ub=np.array([[1.0], [-1.0]]), b_ub=np.array([0.2, -0.5]))
    blocks = generic_blocks(rng)
    lp_solve(stack(blocks))  # feasible without it
    with pytest.raises(Infeasible):
        lp_solve(stack(blocks[:1] + [infeasible] + blocks[1:]))


def test_direct_solves_match_milp_bit_for_bit(rng):
    for sparse in (False, True):
        for _ in range(4):
            m = make_random_mdp(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)),
                                sparse=sparse)
            obs = random_observed(m, rng)
            for assumptions in Assumptions:
                assert_solves_as_milp(stack(coupling_blocks(m, obs, assumptions)))
    for _ in range(4):
        blocks = generic_blocks(rng)
        for problem in blocks + [stack(blocks[:1]), stack(blocks[1:2]), stack(blocks)]:
            assert_solves_as_milp(problem)


def test_enumeration_lp_matches_milp_bit_for_bit(monkeypatch):
    captured = []
    monkeypatch.setattr(coupling, "_solve_blocks",
                        lambda blocks: captured.append(stack(blocks)) or np.zeros(len(blocks)))
    enumerate_theta_bounds(build_toy_mdp(), (0, 0, 1), (1, 0, 1), Assumptions.CS_MON)
    problem, = captured
    assert problem.a_eq is not None and problem.a_ub is not None and problem.a_ub.shape[0]
    assert_solves_as_milp(problem)


_ONE_ROW = dict(a_eq=np.ones((1, 2)), b_eq=np.array([1.0]))
MALFORMED = {
    "nan-c": LpProblem(c=np.array([np.nan, 1.0]), **_ONE_ROW),
    "inf-c": LpProblem(c=np.array([np.inf, 1.0]), **_ONE_ROW),
    "empty-c": LpProblem(c=np.array([])),
    "2d-c": LpProblem(c=np.ones((2, 2))),
    "nan-b_eq": LpProblem(c=np.array([1.0, 2.0]), a_eq=np.ones((1, 2)), b_eq=np.array([np.nan])),
    "nan-b_ub": LpProblem(c=np.array([1.0, 2.0]), a_ub=np.ones((1, 2)), b_ub=np.array([np.nan])),
    "nan-lower": LpProblem(c=np.array([1.0, 2.0]), lower=np.array([np.nan, 0.0]), **_ONE_ROW),
    "nan-upper": LpProblem(c=np.array([1.0, 2.0]), upper=np.nan, **_ONE_ROW),
    "matrix-columns": LpProblem(c=np.ones(3), **_ONE_ROW),
    "matrix-rows": LpProblem(c=np.ones(2), a_ub=sp.csr_matrix(np.ones((2, 2))),
                             b_ub=np.ones(3)),
    "bounds-shape": LpProblem(c=np.ones(2), upper=np.ones(3)),
    "lower-above-upper": LpProblem(c=np.ones(2), lower=np.array([1.0, 0.0]),
                                   upper=np.array([0.5, 1.0])),
    "infeasible-rows": LpProblem(c=np.array([1.0]), a_ub=np.array([[1.0], [-1.0]]),
                                 b_ub=np.array([0.2, -0.5])),
    "infeasible-eq": LpProblem(c=np.ones(2), a_eq=np.ones((2, 2)), b_eq=np.array([1.0, 2.0])),
    "unbounded": LpProblem(c=np.array([1.0]), sense="max"),
    # Primal and dual both infeasible (free x, y with x - y <= -1 and y - x <= -1);
    # HiGHS's presolve reports it infeasible.
    "unbounded-or-infeasible": LpProblem(c=np.array([-1.0, -1.0]),
                                         a_ub=np.array([[1.0, -1.0], [-1.0, 1.0]]),
                                         b_ub=np.array([-1.0, -1.0]), lower=-np.inf),
    "scalar-b_eq": LpProblem(c=np.array([1.0, 2.0]), a_eq=np.ones((2, 2)), b_eq=1.0),
}


@pytest.mark.parametrize("problem", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_and_degenerate_lps_fail_as_milp(problem):
    assert_solves_as_milp(problem)


def test_other_solver_status_is_an_invariant_violation(monkeypatch):
    class Solver(lp.highs._Highs):
        def getModelStatus(self):
            return lp.highs.HighsModelStatus.kUnboundedOrInfeasible

    monkeypatch.setattr(lp.highs, "_Highs", Solver)
    with pytest.raises(InvariantViolation, match="model status"):
        lp_solve(LpProblem(c=np.array([1.0]), upper=1.0))
