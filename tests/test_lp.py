import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from icfmdp import (Assumptions, Infeasible, InvariantViolation, Unbounded, build_gridworld,
                    build_toy_mdp, enumerate_theta_bounds, gridworld_spec, lp, oracle_layer)
from icfmdp.lp import CscMatrix, LpProblem, block_values, lp_solve, stack
from icfmdp import coupling
from icfmdp.coupling import _bound_blocks, _coupling_lp, _successor_table
from helpers import csc, make_random_mdp, random_observed, reference_stack, same_bits


def scipy_matrix(a):
    """A CscMatrix as a scipy csc_array."""
    return sp.csc_array((a.value, a.index, a.start), shape=(a.num_row, a.start.size - 1))


def no_rows(c, **kw):
    """An LpProblem with cost `c` and no constraint rows."""
    return LpProblem(c=c, a=csc(np.zeros((0, np.size(c)))), row_lower=np.empty(0),
                     row_upper=np.empty(0), **kw)


def eq_rows(c, a, b, **kw):
    """An LpProblem with the equality rows a @ x = b."""
    return LpProblem(c=c, a=csc(a), row_lower=b, row_upper=b, **kw)


def ub_rows(c, a, b, **kw):
    """An LpProblem with the rows a @ x <= b."""
    return LpProblem(c=c, a=csc(a), row_lower=-np.inf, row_upper=b, **kw)


def milp_solve(problem):
    """Reference: the problem through scipy `milp`, with the same error contract."""
    sign = {"min": 1.0, "max": -1.0}[problem.sense]
    constraints = [LinearConstraint(scipy_matrix(problem.a), problem.row_lower,
                                    problem.row_upper)] if problem.a.num_row else []
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
    p = ub_rows(np.array([1.0]), np.array([[1.0]]), np.array([0.7]), sense="max")
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
    lo, _ = lp_solve(eq_rows(obj, a_eq, b_eq))
    hi, _ = lp_solve(eq_rows(obj, a_eq, b_eq, sense="max"))
    assert lo == pytest.approx(lo_expected, abs=1e-9)
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert hi == pytest.approx(hi_expected, abs=1e-9)


def test_infeasible():
    p = ub_rows(np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([0.2, -0.5]))
    with pytest.raises(Infeasible):
        lp_solve(p)


def test_unbounded():
    p = no_rows(np.array([1.0]), sense="max")
    with pytest.raises(Unbounded):
        lp_solve(p)


def test_solution_satisfies_constraints(rng):
    n = 6
    a_eq = rng.random((2, n))
    x_feasible = rng.random(n)
    b_eq = a_eq @ x_feasible
    c = rng.normal(size=n)
    value, x = lp_solve(eq_rows(c, a_eq, b_eq, upper=np.full(n, 2.0)))
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
    """Feasible, bounded LPs unlike the coupling LP's: inequality rows with and without
    equality rows, scalar and per-row row bounds, scalar and per-variable bounds, and a
    CscMatrix built by hand."""
    a, x0 = rng.random((2, n)), rng.random(n)
    b = a @ x0
    blocks = [eq_rows(rng.normal(size=n), a, b, upper=np.full(n, 2.0)),
              ub_rows(rng.normal(size=n), a, b, upper=1.0, sense="max"),
              LpProblem(c=rng.normal(size=n), a=csc(a), row_lower=np.array([b[0], -np.inf]),
                        row_upper=b, upper=3.0)]
    # Every entry of `a` is positive, so column k of its CscMatrix holds rows 0 and 1.
    by_hand = CscMatrix(np.arange(0, 2 * n + 1, 2), np.tile([0, 1], n), a.T.ravel(), 2)
    return blocks + [LpProblem(c=rng.normal(size=n), a=by_hand, row_lower=b, row_upper=b,
                               upper=1.5, sense="max")]


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


def stack_cases(rng):
    """Block lists for `stack`: scalar and array bounds, blocks with no rows, one min/max
    pair of a coupling query, and every block of a GridWorld `oracle_layer` stack."""
    m = make_random_mdp(rng, 3, 2, sparse=True)
    obs = random_observed(m, rng)
    problem, i, j = _coupling_lp(m, obs, (1, 1), Assumptions.CS_MON)
    generic = generic_blocks(rng)
    grid = build_gridworld(gridworld_spec(0.4))
    return {"scalar-and-array-bounds": generic,
            "no-rows": [no_rows(np.ones(2), upper=1.0), generic[0],
                        no_rows(np.ones(3), lower=np.arange(3.0), upper=5.0, sense="max")],
            "min-max-pair": _bound_blocks(problem, i, j, obs[2], j[-1]),
            "gridworld-layer": coupling_blocks(grid, (6, 1, 10), Assumptions.CS_MON)}


def test_stack_matches_block_diag_reference(rng):
    cases = stack_cases(rng)
    assert len(cases["gridworld-layer"]) == 448
    for name, blocks in cases.items():
        got, want = stack(blocks), reference_stack(blocks)
        for field in ("c", "row_lower", "row_upper", "lower", "upper"):
            assert same_bits(getattr(got, field), getattr(want, field)), (name, field)
        # scipy picks its own index dtype, so starts and row indices compare by value.
        assert np.array_equal(got.a.start, want.a.start), name
        assert np.array_equal(got.a.index, want.a.index), name
        assert same_bits(got.a.value, want.a.value) and got.a.num_row == want.a.num_row
        assert got.sense == "min"


def test_lp_builders_make_int32_column_arrays(rng, monkeypatch):
    captured = []
    monkeypatch.setattr(coupling, "_solve_blocks",
                        lambda blocks: captured.append(blocks) or np.zeros(len(blocks)))
    for sparse in (False, True):
        m = make_random_mdp(rng, 3, 2, sparse=sparse)
        obs = random_observed(m, rng)
        for assumptions in Assumptions:
            enumerate_theta_bounds(m, obs, (1, 1, int(np.argmax(m.transition[1, 1]))),
                                   assumptions)
            oracle_layer(m, obs, assumptions)
    cases = stack_cases(rng)
    layers = [cases["min-max-pair"], cases["gridworld-layer"]]
    matrices = [b.a for blocks in captured + layers for b in blocks]
    for a in matrices + [stack(blocks).a for blocks in captured + layers]:
        assert a.start.dtype == a.index.dtype == np.int32


def test_stack_with_one_infeasible_block_is_infeasible(rng):
    infeasible = ub_rows(np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([0.2, -0.5]))
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
    assert problem.a.num_row and np.isinf(problem.row_lower).any()  # it has box rows
    assert_solves_as_milp(problem)


def enumeration_rows(m, obs, query_triple, assumptions):
    """The enumeration LP's rows as dense (matrix, row_lower, row_upper): one equality
    row per positive transition entry, then the box rows joint[capped] <= hi[capped]
    and -joint[floored] <= -lo[floored], where joint[j] marks the mechanisms that map
    the observed pair to its outcome and the query pair to j."""
    (s_t, a_t, s_next), (s, a, _) = obs, query_triple
    k, flat = m.num_actions, m.transition.ravel()
    succ = _successor_table(m)
    entries = np.flatnonzero(flat)
    eq = (np.arange(succ.shape[0])[:, None] * m.num_states + succ
          == entries[:, None, None]).any(axis=1).astype(float)
    lo, hi = coupling._observed_outcome_box(m.transition[s_t, a_t], s_next,
                                            m.transition[s, a], assumptions)
    joint = ((succ[s_t * k + a_t] == s_next)
             & (succ[s * k + a] == np.arange(m.num_states)[:, None])).astype(float)
    capped, floored = np.isfinite(hi) & (m.transition[s, a] > 0), lo > 0
    box = np.concatenate([joint[capped], -joint[floored]])
    return (np.vstack([eq, box]), np.concatenate([flat[entries], np.full(len(box), -np.inf)]),
            np.concatenate([flat[entries], hi[capped], -lo[floored]]))


def test_enumeration_rows_are_the_equalities_then_the_box(rng, monkeypatch):
    captured = []
    monkeypatch.setattr(coupling, "_solve_blocks",
                        lambda blocks: captured.append(blocks) or np.zeros(len(blocks)))
    box_rows = 0
    for _ in range(6):
        m = make_random_mdp(rng, int(rng.integers(2, 4)), int(rng.integers(1, 3)),
                            sparse=True)
        obs = random_observed(m, rng)
        for assumptions in Assumptions:
            for query in np.ndindex(m.num_states, m.num_actions, m.num_states):
                enumerate_theta_bounds(m, obs, query, assumptions)
                low, high = captured.pop()
                assert (low.sense, high.sense) == ("min", "max") and high.a is low.a
                matrix, row_lower, row_upper = enumeration_rows(m, obs, query, assumptions)
                assert np.array_equal(scipy_matrix(low.a).toarray(), matrix)
                assert scipy_matrix(low.a).has_sorted_indices  # rows ascend in each column
                assert row_lower.tobytes() == low.row_lower.tobytes()
                assert row_upper.tobytes() == low.row_upper.tobytes()
                box_rows += len(row_lower) - np.count_nonzero(m.transition)
    assert box_rows


_ONE_ROW = dict(a=csc(np.ones((1, 2))), row_lower=np.array([1.0]), row_upper=np.array([1.0]))
_TWO_ROWS = csc(np.ones((2, 2)))
MALFORMED = {
    "nan-c": LpProblem(c=np.array([np.nan, 1.0]), **_ONE_ROW),
    "inf-c": LpProblem(c=np.array([np.inf, 1.0]), **_ONE_ROW),
    "empty-c": no_rows(np.array([])),
    "2d-c": no_rows(np.ones((2, 2))),
    "nan-b_eq": eq_rows(np.array([1.0, 2.0]), np.ones((1, 2)), np.array([np.nan])),
    "nan-b_ub": ub_rows(np.array([1.0, 2.0]), np.ones((1, 2)), np.array([np.nan])),
    "nan-row_lower": LpProblem(c=np.array([1.0, 2.0]), a=_ONE_ROW["a"],
                               row_lower=np.array([np.nan]), row_upper=np.array([1.0])),
    "nan-lower": LpProblem(c=np.array([1.0, 2.0]), lower=np.array([np.nan, 0.0]), **_ONE_ROW),
    "nan-upper": LpProblem(c=np.array([1.0, 2.0]), upper=np.nan, **_ONE_ROW),
    "matrix-columns": LpProblem(c=np.ones(3), **_ONE_ROW),
    "matrix-rows": LpProblem(c=np.ones(2), a=_TWO_ROWS, row_lower=-np.inf,
                             row_upper=np.ones(3)),
    "row_lower-shape": LpProblem(c=np.ones(2), a=_TWO_ROWS, row_lower=np.zeros(3),
                                 row_upper=np.ones(2)),
    "bounds-shape": no_rows(np.ones(2), upper=np.ones(3)),
    "lower-above-upper": no_rows(np.ones(2), lower=np.array([1.0, 0.0]),
                                 upper=np.array([0.5, 1.0])),
    "infeasible-rows": ub_rows(np.array([1.0]), np.array([[1.0], [-1.0]]),
                               np.array([0.2, -0.5])),
    "infeasible-eq": eq_rows(np.ones(2), np.ones((2, 2)), np.array([1.0, 2.0])),
    "row_lower-above-row_upper": LpProblem(c=np.ones(2), a=_TWO_ROWS,
                                           row_lower=np.array([1.0, 2.0]),
                                           row_upper=np.array([1.0, 1.5])),
    "unbounded": no_rows(np.array([1.0]), sense="max"),
    # Primal and dual both infeasible (free x, y with x - y <= -1 and y - x <= -1);
    # HiGHS's presolve reports it infeasible.
    "unbounded-or-infeasible": ub_rows(np.array([-1.0, -1.0]),
                                       np.array([[1.0, -1.0], [-1.0, 1.0]]),
                                       np.array([-1.0, -1.0]), lower=-np.inf),
    "scalar-b_eq": LpProblem(c=np.array([1.0, 2.0]), a=_TWO_ROWS, row_lower=1.0,
                             row_upper=1.0),
}


@pytest.mark.parametrize("problem", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_and_degenerate_lps_fail_as_milp(problem):
    assert_solves_as_milp(problem)


def test_other_solver_status_is_an_invariant_violation(monkeypatch):
    class Solver(lp.highs._Highs):
        def getModelStatus(self):
            return lp.highs.HighsModelStatus.kUnboundedOrInfeasible

    solver = Solver()
    solver.setOptionValue("log_to_console", False)
    monkeypatch.setattr(lp, "_solver", lambda: solver)
    with pytest.raises(InvariantViolation, match="model status"):
        lp_solve(no_rows(np.array([1.0]), upper=1.0))


# Not in the milp-parity table: milp accepts a non-finite matrix entry.
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rows", [eq_rows, ub_rows], ids=["eq", "ub"])
def test_non_finite_matrix_entry_is_rejected(rows, entry):
    problem = rows(np.array([1.0, 2.0]), np.array([[entry, 1.0]]), np.array([1.0]))
    for candidate in (problem, stack([problem])):
        with pytest.raises(ValueError, match="finite"):
            lp_solve(candidate)


# Not in the milp-parity table either: bounds of more than one dimension.
@pytest.mark.parametrize("field", ["row_lower", "row_upper", "lower", "upper"])
def test_two_dimensional_bound_is_rejected(field):
    problem = LpProblem(c=np.ones(2), a=_TWO_ROWS, row_lower=np.zeros(2), row_upper=np.ones(2),
                        lower=np.zeros(2), upper=np.ones(2))
    setattr(problem, field, np.ones((1, 2)))
    with pytest.raises(ValueError, match="one-dimensional"):
        lp_solve(problem)
    with pytest.raises(ValueError, match="one-dimensional"):
        stack([problem])


# Column arrays that HiGHS would read past, or index rows that do not exist; each
# matrix has 2 columns and, unless its starts end past them, 2 stored entries.
_ONES = np.ones(2)
MALFORMED_MATRICES = {
    "starts-past-entries": CscMatrix(np.array([0, 2, 4]), np.array([0, 0]), _ONES, 1),
    "too-few-values": CscMatrix(np.array([0, 1, 2]), np.array([0, 0]), np.ones(1), 1),
    "start-not-zero": CscMatrix(np.array([1, 1, 2]), np.array([0, 0]), _ONES, 1),
    "start-decreasing": CscMatrix(np.array([0, 2, 1]), np.array([0, 0]), _ONES, 1),
    "row-index-past-rows": CscMatrix(np.array([0, 1, 2]), np.array([0, 1]), _ONES, 1),
    "negative-row-index": CscMatrix(np.array([0, 1, 2]), np.array([0, -1]), _ONES, 1),
}


@pytest.mark.parametrize("a", MALFORMED_MATRICES.values(), ids=MALFORMED_MATRICES.keys())
def test_malformed_matrix_is_rejected(a):
    problem = LpProblem(c=np.array([-1.0, -1.0]), a=a, row_lower=-np.inf, row_upper=1.0,
                        upper=1.0)
    with pytest.raises(ValueError, match="constraint matrix"):
        lp_solve(problem)


def outcome(problem):
    """lp_solve's (optimum, solution), or the class of the error it raises."""
    try:
        return lp_solve(problem)
    except (ValueError, InvariantViolation) as exc:
        return type(exc)


def fresh_solver():
    solver = lp.highs._Highs()
    solver.setOptionValue("log_to_console", False)
    return solver


class HighsLpSolver:
    """A fresh solver that gets the model of `lp_solve`'s array `passModel` call as a
    `HighsLp` filled attribute by attribute, the other form the binding takes."""

    def __init__(self):
        self.solver = fresh_solver()

    def passModel(self, num_col, num_row, num_nz, a_format, sense, offset, cost, col_lower,
                  col_upper, row_lower, row_upper, start, index, value, integrality):
        assert (a_format, sense, offset) == (1, 1, 0.0) and not np.any(integrality)
        assert start[-1] == num_nz == value.size
        model = lp.highs.HighsLp()
        model.num_col_, model.num_row_ = num_col, num_row
        model.col_cost_, model.col_lower_, model.col_upper_ = cost, col_lower, col_upper
        model.row_lower_, model.row_upper_ = row_lower, row_upper
        model.a_matrix_.start_, model.a_matrix_.index_, model.a_matrix_.value_ = (
            start, index, value)
        return self.solver.passModel(model)

    def __getattr__(self, name):
        return getattr(self.solver, name)


def test_shared_solver_carries_no_state_between_calls(rng, monkeypatch):
    """The one reused solver, fed arrays, matches a fresh solver per solve, fed either
    arrays or a `HighsLp`, bit for bit."""
    m = make_random_mdp(rng, 3, 2)
    first = stack(coupling_blocks(m, random_observed(m, rng), Assumptions.CS_MON))
    captured = []
    monkeypatch.setattr(coupling, "_solve_blocks",
                        lambda blocks: captured.append(blocks[0]) or np.zeros(len(blocks)))
    big = make_random_mdp(rng, 4, 2)  # every row positive: 4 ** 8 mechanisms
    enumerate_theta_bounds(big, random_observed(big, rng), (1, 1, 2), Assumptions.CS_MON)
    enumeration, = captured
    assert enumeration.c.size == 65_536
    # passModel rejects the NaN right-hand side; the next two fail in the solve.
    problems = [first, MALFORMED["nan-b_eq"], MALFORMED["infeasible-rows"],
                MALFORMED["unbounded"], enumeration, first]
    assert lp._solver() is lp._solver()
    shared = [outcome(problem) for problem in problems]
    assert shared[1:4] == [Infeasible, Infeasible, Unbounded]
    for reference in (fresh_solver, HighsLpSolver):
        monkeypatch.setattr(lp, "_solver", reference)
        for problem, got in zip(problems, shared):
            want = outcome(problem)
            if isinstance(want, type):
                assert got is want
            else:
                assert np.array_equal([got[0]], [want[0]]) and np.array_equal(got[1], want[1])
