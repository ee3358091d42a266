import itertools

import numpy as np
import pytest

from icfmdp import (Assumptions, InvariantViolation, Mdp, ScaleExceeded, coupling,
                    enumerate_theta_bounds, oracle_bounds, oracle_layer, transition_row_bounds)
from icfmdp.bounds import CLAMP_TOL, clamp_intervals, make_interval
from icfmdp.coupling import _successor_table
from helpers import (check_coupling_feasible, make_random_mdp, oracle_solution, random_observed,
                     same_bits)


class TestOracleBounds:
    def test_toy_reference_values(self, toy, toy_obs):
        iv = oracle_bounds(toy, toy_obs, (1, 0), 0, Assumptions.CS_MON)
        assert iv.lb == pytest.approx(0.4, abs=1e-9)
        assert iv.ub == pytest.approx(0.4, abs=1e-9)
        iv = oracle_bounds(toy, toy_obs, (1, 0), 2, Assumptions.NONE)
        assert (iv.lb, iv.ub) == (pytest.approx(0.0, abs=1e-9), pytest.approx(1.0, abs=1e-9))
        iv = oracle_bounds(toy, toy_obs, (0, 0), 1, Assumptions.NONE)
        assert iv.lb == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_matches_closed_form_on_random_mdps(self, rng, sparse):
        for _ in range(12):
            m = make_random_mdp(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)),
                                sparse=sparse)
            obs = random_observed(m, rng)
            for assumptions in Assumptions:
                layer_lb, layer_ub = oracle_layer(m, obs, assumptions)
                for s in range(m.num_states):
                    for a in range(m.num_actions):
                        lb, ub = transition_row_bounds(m, obs, (s, a), assumptions)
                        for s2 in range(m.num_states):
                            iv = oracle_bounds(m, obs, (s, a), s2, assumptions)
                            assert lb[s2] == pytest.approx(iv.lb, abs=1e-8)
                            assert ub[s2] == pytest.approx(iv.ub, abs=1e-8)
                            # one stacked LP per triple answers as one per query
                            assert abs(layer_lb[s, a, s2] - iv.lb) <= 1e-12
                            assert abs(layer_ub[s, a, s2] - iv.ub) <= 1e-12


    @pytest.mark.parametrize("ub, message", [(1.0 + 1e-12, None),
                                              (1.5, "violates interval invariants")])
    def test_layer_clamps_dust_and_rejects_out_of_range_values(self, toy, toy_obs, monkeypatch,
                                                               ub, message):
        # The first block is the min, the second the max, of query (0, 0, 0): give that
        # max the value ub before the division by P(s_next | s_t, a_t).
        solve = coupling._solve_blocks

        def shifted(blocks):
            values = solve(blocks)
            values[1] = ub * toy.transition[toy_obs]
            return values

        monkeypatch.setattr(coupling, "_solve_blocks", shifted)
        if message is None:
            assert oracle_layer(toy, toy_obs, Assumptions.CS_MON)[1][0, 0, 0] == 1.0
        else:
            with pytest.raises(InvariantViolation, match=message):
                oracle_layer(toy, toy_obs, Assumptions.CS_MON)

    @pytest.mark.parametrize("block, value", [(0, -2 * CLAMP_TOL), (1, 1.0 + 2 * CLAMP_TOL),
                                              (0, np.nan), (1, np.nan)],
                             ids=["min-below-0", "max-above-1", "nan-min", "nan-max"])
    def test_layer_rejects_values_beyond_the_tolerance_and_nan(self, toy, toy_obs, monkeypatch,
                                                               block, value):
        # Blocks 0 and 1 are the min and the max of query (0, 0, 0); move one by
        # 2 * CLAMP_TOL past its end, or make it NaN, before the division by P(s_next).
        solve = coupling._solve_blocks

        def moved(blocks):
            values = solve(blocks)
            values[block] = value * toy.transition[toy_obs]
            return values

        monkeypatch.setattr(coupling, "_solve_blocks", moved)
        with pytest.raises(InvariantViolation, match="violates interval invariants"):
            oracle_layer(toy, toy_obs, Assumptions.CS_MON)

    def test_layer_clamps_as_make_interval_does(self):
        # Every pair of edge values, signed zeros and non-finite ones included: the layer's
        # array rule raises where make_interval raises, and otherwise gives its bits.
        edges = [np.nan, -np.inf, -1.0, -2 * CLAMP_TOL, -CLAMP_TOL, -CLAMP_TOL / 2, -0.0, 0.0,
                 1e-300, 0.3, 1.0 - CLAMP_TOL, 1.0, 1.0 + CLAMP_TOL / 2, 1.0 + CLAMP_TOL,
                 1.0 + 2 * CLAMP_TOL, 2.0, np.inf]
        kept, want = [], []
        for lo, hi in itertools.product(edges, repeat=2):
            try:
                iv = make_interval(lo, hi)
            except InvariantViolation:
                with pytest.raises(InvariantViolation):
                    clamp_intervals(np.array([lo]), np.array([hi]))
                continue
            kept.append((lo, hi))
            want.append((iv.lb, iv.ub))
        assert len(kept) > 20
        got = clamp_intervals(*np.array(kept).T)
        assert same_bits(np.column_stack(got), np.array(want))

    def test_zero_query_entries_are_zero_in_the_lp(self, rng):
        # oracle_bounds answers these without a solve; the full LP must agree.
        for _ in range(8):
            m = make_random_mdp(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)),
                                sparse=True)
            obs = random_observed(m, rng)
            for s, a, s_cf in np.argwhere(m.transition == 0).tolist():
                for assumptions in Assumptions:
                    for sense in ("min", "max"):
                        value, _ = oracle_solution(m, obs, (s, a), s_cf, assumptions, sense)
                        assert abs(value) <= 1e-12

    def test_zero_query_entry_skips_the_lp(self, rng, monkeypatch):
        m = make_random_mdp(rng, 4, 2, sparse=True)
        obs = random_observed(m, rng)
        zeros = np.argwhere(m.transition == 0).tolist()
        assert zeros

        def no_solve(problem):
            raise AssertionError("LP solved for a zero-query entry")

        monkeypatch.setattr("icfmdp.coupling.lp_solve", no_solve)
        for s, a, s_cf in zeros:
            for assumptions in Assumptions:
                iv = oracle_bounds(m, obs, (s, a), s_cf, assumptions)
                assert (iv.lb, iv.ub) == (0.0, 0.0)


class TestCouplingFeasibility:
    def test_independent_coupling_feasible_without_assumptions(self, toy, toy_obs):
        q = np.outer(toy.transition[0, 0], toy.transition[1, 0])
        assert check_coupling_feasible(q, toy, toy_obs, (1, 0), Assumptions.NONE)

    def test_marginal_violation_detected(self, toy, toy_obs):
        q = np.outer(toy.transition[0, 0], toy.transition[1, 0])
        q[0, 0] += 0.1
        assert not check_coupling_feasible(q, toy, toy_obs, (1, 0), Assumptions.NONE)

    @pytest.mark.parametrize("query_row, pair, q, assumptions, looser", [
        # stability: outcome 1 lost relative likelihood, so q[0, 1] must be 0
        ([0.6, 0.2, 0.2], (1, 0), [[0.3, 0.1, 0.1], [0.3, 0.1, 0.1], [0, 0, 0]],
         Assumptions.CS, Assumptions.NONE),
        # monotonicity floor: q[0, 0] >= 0.4 * 0.5
        ([0.4, 0.4, 0.2], (1, 0), [[0.15, 0.15, 0.2], [0.25, 0.25, 0], [0, 0, 0]],
         Assumptions.CS_MON, Assumptions.CS),
        # monotonicity cap: q[0, 1] <= 0.4 * 0.5
        ([0.4, 0.4, 0.2], (1, 0), [[0.25, 0.25, 0], [0.15, 0.15, 0.2], [0, 0, 0]],
         Assumptions.CS_MON, Assumptions.CS),
        # the observed pair itself: outcomes agree, so q is diagonal
        ([0.4, 0.4, 0.2], (0, 0), [[0.25, 0.25, 0], [0.25, 0.25, 0], [0, 0, 0]],
         Assumptions.NONE, None),
        # a negative mass outside the observed-outcome row
        ([0.4, 0.4, 0.2], (1, 0), [[0.0, 0.5, 0.0], [0.4, -0.1, 0.2], [0, 0, 0]],
         Assumptions.NONE, None),
    ], ids=["cs-zero", "mon-floor", "mon-cap", "same-pair-off-diagonal", "negative"])
    def test_each_constraint_kind_rejects(self, query_row, pair, q, assumptions, looser):
        t = np.zeros((3, 1, 3))
        t[0, 0] = [0.5, 0.5, 0.0]
        t[1, 0] = query_row
        t[2, 0, 2] = 1.0
        m = Mdp(3, 1, t, np.zeros((3, 1)), np.array([1.0, 0.0, 0.0]))
        coupling = np.array(q, dtype=float)
        assert not check_coupling_feasible(coupling, m, (0, 0, 0), pair, assumptions)
        if looser is not None:  # the marginals and every looser constraint hold
            assert check_coupling_feasible(coupling, m, (0, 0, 0), pair, looser)

    def test_lp_solutions_are_feasible_and_attained(self, rng):
        # Bounds are achieved by explicit couplings, not just approached.
        for _ in range(6):
            m = make_random_mdp(rng, 3, 2, sparse=True)
            obs = random_observed(m, rng)
            for assumptions in Assumptions:
                for s in range(3):
                    for a in range(2):
                        for s2 in range(3):
                            for sense in ("min", "max"):
                                value, coupling = oracle_solution(
                                    m, obs, (s, a), s2, assumptions, sense)
                                assert check_coupling_feasible(
                                    coupling, m, obs, (s, a), assumptions, tol=1e-8)
                                replay = coupling[obs[2], s2] / m.transition[obs[0], obs[1], obs[2]]
                                assert replay == pytest.approx(value, abs=1e-9)


class TestThetaEnumeration:
    def test_toy_reproduces_reference_table(self, toy, toy_obs):
        table_none = {(0, 0, 0): (0, 0), (0, 0, 1): (1, 1), (0, 0, 2): (0, 0),
                      (1, 0, 0): (0, 1), (1, 0, 1): (0, 0), (1, 0, 2): (0, 1),
                      (2, 0, 0): (0, 0), (2, 0, 1): (0, 0), (2, 0, 2): (1, 1)}
        for (s, a, s2), (lb, ub) in table_none.items():
            iv = enumerate_theta_bounds(toy, toy_obs, (s, a, s2), Assumptions.NONE)
            assert iv.lb == pytest.approx(lb, abs=1e-8)
            assert iv.ub == pytest.approx(ub, abs=1e-8)
        table_csm = {(1, 0, 0): (0.4, 0.4), (1, 0, 2): (0.6, 0.6), (2, 0, 2): (1, 1)}
        for (s, a, s2), (lb, ub) in table_csm.items():
            iv = enumerate_theta_bounds(toy, toy_obs, (s, a, s2), Assumptions.CS_MON)
            assert iv.lb == pytest.approx(lb, abs=1e-8)
            assert iv.ub == pytest.approx(ub, abs=1e-8)

    def test_agrees_with_coupling_oracle_on_random_mdps(self, rng):
        for trial in range(4):
            m = make_random_mdp(rng, 2, 2, sparse=bool(trial % 2))
            obs = random_observed(m, rng)
            for assumptions in Assumptions:
                for s in range(2):
                    for a in range(2):
                        for s2 in range(2):
                            via_q = oracle_bounds(m, obs, (s, a), s2, assumptions)
                            via_theta = enumerate_theta_bounds(m, obs, (s, a, s2), assumptions)
                            assert via_q.lb == pytest.approx(via_theta.lb, abs=1e-8)
                            assert via_q.ub == pytest.approx(via_theta.ub, abs=1e-8)

    def test_deterministic_mdp_degenerate(self):
        t = np.zeros((2, 1, 2))
        t[0, 0, 1] = t[1, 0, 0] = 1.0
        m = Mdp(2, 1, t, np.zeros((2, 1)), np.array([1.0, 0.0]))
        for s in range(2):
            for s2 in range(2):
                iv = enumerate_theta_bounds(m, (0, 0, 1), (s, 0, s2), Assumptions.NONE)
                assert iv.lb == pytest.approx(t[s, 0, s2], abs=1e-9)
                assert iv.ub == pytest.approx(t[s, 0, s2], abs=1e-9)

    def test_scale_guard(self):
        m = make_random_mdp(np.random.default_rng(0), 5, 3)
        with pytest.raises(ScaleExceeded):
            enumerate_theta_bounds(m, (0, 0, 0), (1, 0, 1), Assumptions.NONE)


def test_successor_table_spans_the_supports(rng):
    for sparse in (False, True):
        m = make_random_mdp(rng, 3, 2, sparse=sparse)
        succ = _successor_table(m)
        rows = m.transition.reshape(6, 3)
        assert succ.shape == (6, np.prod(np.count_nonzero(rows, axis=1)))
        assert np.all(np.take_along_axis(rows, succ, axis=1) > 0)
        assert len({tuple(col) for col in succ.T}) == succ.shape[1]
