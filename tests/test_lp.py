import numpy as np
import pytest
import scipy.sparse as sp

from icfmdp import (Assumptions, Infeasible, LpProblem, Unbounded, block_values, lp_solve,
                    stack)
from icfmdp.coupling import _bound_blocks, _coupling_lp
from helpers import make_random_mdp, random_observed


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
