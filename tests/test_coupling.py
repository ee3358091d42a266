import numpy as np
import pytest

from icfmdp import (Assumptions, Coupling, Mdp, ScaleExceeded, check_coupling_feasible,
                    enumerate_theta_bounds, oracle_bounds, oracle_solution,
                    transition_row_bounds)
from icfmdp.coupling import CanonicalTheta, mechanism_next_state
from helpers import make_random_mdp, random_observed


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
                for s in range(m.num_states):
                    for a in range(m.num_actions):
                        lb, ub = transition_row_bounds(m, obs, (s, a), assumptions)
                        for s2 in range(m.num_states):
                            iv = oracle_bounds(m, obs, (s, a), s2, assumptions)
                            assert lb[s2] == pytest.approx(iv.lb, abs=1e-8)
                            assert ub[s2] == pytest.approx(iv.ub, abs=1e-8)


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
        assert check_coupling_feasible(Coupling(q), toy, toy_obs, (1, 0), Assumptions.NONE)

    def test_marginal_violation_detected(self, toy, toy_obs):
        q = np.outer(toy.transition[0, 0], toy.transition[1, 0])
        q[0, 0] += 0.1
        assert not check_coupling_feasible(Coupling(q), toy, toy_obs, (1, 0), Assumptions.NONE)

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
                                replay = coupling.q[obs[2], s2] / m.transition[obs[0], obs[1], obs[2]]
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


def test_mechanism_encoding_round_trip():
    ns, na = 3, 2
    theta = CanonicalTheta(np.full(ns ** (ns * na), 1.0 / ns ** (ns * na)), ns, na)
    # mechanism 0 maps everything to state 0; the last maps everything to ns - 1
    assert mechanism_next_state(0, 2, 1, ns, na) == 0
    last = ns ** (ns * na) - 1
    assert mechanism_next_state(last, 0, 0, ns, na) == ns - 1
    for s in range(ns):
        for a in range(na):
            digits = theta.next_states(s, a)
            # every mechanism assigns exactly one successor, uniformly across the encoding
            assert digits.shape == theta.theta.shape
            assert set(np.unique(digits)) == set(range(ns))
