from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icfmdp import (Assumptions, Mdp, ObservedPath, ProbInterval, build_gridworld,
                    build_interval_cfmdp, gridworld_spec, oracle_bounds, transition_row_bounds)
from icfmdp.bounds import _cs_mask, make_interval
from icfmdp.errors import InfeasibleRow, InvariantViolation
from helpers import (KERNEL_ENVS, icfmdp_from_dense, kernel_env, make_random_mdp,
                     per_triple_layers, random_interval_bounds, random_observed, random_path,
                     same_bits, supports_overlap)

# Reference intervals for the toy MDP after observing 0 -> 1, per (s, a, s'):
# no-assumption column and stability+monotonicity column.
TOY_TABLE = {
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


def disjoint_pair_mdp(p_query, p_obs):
    """4-state, 1-action MDP where pair (0, 0) and pair (1, 0) have disjoint supports
    realizing the marginals P(s'=2 | 1, 0) = p_query and P(s'=0 | 0, 0) = p_obs."""
    t = np.zeros((4, 1, 4))
    t[0, 0, 0] = p_obs
    t[0, 0, 1] = 1.0 - p_obs
    t[1, 0, 2] = p_query
    t[1, 0, 3] = 1.0 - p_query
    t[2, 0, 2] = 1.0
    t[3, 0, 3] = 1.0
    return Mdp(4, 1, t, np.zeros((4, 1)), np.array([1.0, 0, 0, 0]))


def cs_firing_mdp():
    """MDP where the stability condition fires for query (1, 0) -> 1 after
    observing (0, 0) -> 0: likelihood ratios 0.6/0.4 > 0.1/0.5."""
    t = np.zeros((3, 1, 3))
    t[0, 0] = [0.4, 0.5, 0.1]
    t[1, 0] = [0.6, 0.1, 0.3]
    t[2, 0] = [0.0, 0.0, 1.0]
    return Mdp(3, 1, t, np.zeros((3, 1)), np.array([1.0, 0, 0]))


def cs_mon_row(m, obs, pair):
    return transition_row_bounds(m, obs, pair, Assumptions.CS_MON)


class TestClassifySupport:
    """The bound kernel picks the observed-pair, overlapping or disjoint formulas per row."""

    def test_observed_pair(self, toy):
        # Observing 0 -> 0 (prob. 0.2) makes pair (0, 0) one-hot on 0, not its nominal row.
        lb, ub = cs_mon_row(toy, (0, 0, 0), (0, 0))
        assert lb.tolist() == ub.tolist() == [1.0, 0.0, 0.0]

    def test_toy_overlapping(self, toy, toy_obs):
        # (1, 0) puts mass on states 0 and 2, both reachable from (0, 0): monotonicity
        # pins the row to its nominal value, which the disjoint formulas would not.
        assert supports_overlap(toy, toy_obs[:2], (1, 0))
        lb, ub = cs_mon_row(toy, toy_obs, (1, 0))
        assert lb == pytest.approx([0.4, 0.0, 0.6]) and ub == pytest.approx([0.4, 0.0, 0.6])

    def test_point_masses_disjoint(self):
        t = np.zeros((3, 1, 3))
        t[0, 0, 1] = 1.0
        t[1, 0, 2] = 1.0
        t[2, 0, 2] = 1.0
        m = Mdp(3, 1, t, np.zeros((3, 1)), np.array([1.0, 0, 0]))
        assert not supports_overlap(m, (0, 0), (1, 0))
        for assumptions in Assumptions:
            lb, ub = transition_row_bounds(m, (0, 0, 1), (1, 0), assumptions)
            assert lb.tolist() == [0.0, 0.0, 1.0] and ub.tolist() == [0.0, 0.0, 1.0]


class TestCsCondition:
    """`_cs_mask` of the observed row (s_t, a_t) and query row (s, a): does stability force
    the probability of each successor to zero?"""

    def test_toy_does_not_fire(self, toy):
        # observed 0 -> 1, query (1, 0) -> 0: ratio 0 / 0.4 = 0 is not > 0.4 / 0.3
        obs_row, query_row = toy.transition[0, 0], toy.transition[1, 0]
        assert not _cs_mask(obs_row, obs_row[1], query_row, query_row[1])[0]

    def test_zero_probability_under_observed_pair_guards(self, toy):
        obs_row, query_row = np.array([0.0, 0.4, 0.6]), toy.transition[1, 0]
        # P(0 | 0, 0) == 0, so the condition cannot fire regardless of the ratios
        assert not _cs_mask(obs_row, obs_row[1], query_row, query_row[1])[0]

    def test_ratio_arithmetic_fires(self):
        m = cs_firing_mdp()
        # observed 0 -> 0, query (1, 0) -> 1
        obs_row, query_row = m.transition[0, 0], m.transition[1, 0]
        assert _cs_mask(obs_row, obs_row[0], query_row, query_row[0])[1]
        # Cross-check: the LP oracle must force this probability to zero under CS.
        iv = oracle_bounds(m, (0, 0, 0), (1, 0), 1, Assumptions.CS)
        assert iv.ub == pytest.approx(0.0, abs=1e-9)


class TestObservedPair:
    @pytest.mark.parametrize("assumptions", list(Assumptions))
    def test_degenerate_for_every_assumption(self, toy, toy_obs, assumptions):
        lb, ub = transition_row_bounds(toy, toy_obs, (0, 0), assumptions)
        assert lb[1] == ub[1] == 1.0
        assert np.all(lb[[0, 2]] == 0.0) and np.all(ub[[0, 2]] == 0.0)

    def test_rows_directly(self, toy, toy_obs):
        lb, ub = transition_row_bounds(toy, toy_obs, (0, 0), Assumptions.NONE)
        assert lb[1] == ub[1] == 1.0 and lb.sum() == ub.sum() == 1.0


class TestDisjoint:
    def test_half_against_point_eight(self):
        m = disjoint_pair_mdp(p_query=0.5, p_obs=0.8)
        lp = oracle_bounds(m, (0, 0, 0), (1, 0), 2, Assumptions.CS_MON)
        for assumptions in Assumptions:
            lb, ub = transition_row_bounds(m, (0, 0, 0), (1, 0), assumptions)
            assert lb[2] == pytest.approx(0.375, abs=1e-12)
            assert ub[2] == pytest.approx(0.625, abs=1e-12)
            assert lb[2] == pytest.approx(lp.lb, abs=1e-9)
            assert ub[2] == pytest.approx(lp.ub, abs=1e-9)

    def test_deterministic_counterfactual_row(self):
        m = disjoint_pair_mdp(p_query=1.0, p_obs=0.8)
        lb, ub = cs_mon_row(m, (0, 0, 0), (1, 0))
        assert (lb[2], ub[2]) == (1.0, 1.0)

    def test_small_query_probability(self):
        m = disjoint_pair_mdp(p_query=0.1, p_obs=0.8)
        lb, ub = cs_mon_row(m, (0, 0, 0), (1, 0))
        assert lb[2] == pytest.approx(0.0, abs=1e-12)
        assert ub[2] == pytest.approx(0.125, abs=1e-12)
        lp = oracle_bounds(m, (0, 0, 0), (1, 0), 2, Assumptions.CS_MON)
        assert ub[2] == pytest.approx(lp.ub, abs=1e-9)


class TestOverlapping:
    def test_upper_bounds_toy(self, toy, toy_obs):
        assert cs_mon_row(toy, toy_obs, (1, 0))[1][0] == pytest.approx(0.4)
        assert cs_mon_row(toy, toy_obs, (1, 0))[1][1] == pytest.approx(0.0)
        assert cs_mon_row(toy, toy_obs, (2, 0))[1][2] == pytest.approx(1.0)

    def test_lower_bounds_toy(self, toy, toy_obs):
        lb, _ = cs_mon_row(toy, toy_obs, (1, 0))
        assert lb[0] == pytest.approx(0.4)
        assert lb[2] == pytest.approx(0.6)
        assert lb[1] == pytest.approx(0.0)


class TestNoAssumption:
    def test_toy_values(self, toy, toy_obs):
        def iv(pair, s_cf):
            lb, ub = transition_row_bounds(toy, toy_obs, pair, Assumptions.NONE)
            return ProbInterval(lb[s_cf], ub[s_cf])
        assert iv((1, 0), 0) == ProbInterval(0.0, 1.0)
        assert iv((2, 0), 2) == ProbInterval(1.0, 1.0)
        assert iv((1, 0), 1) == ProbInterval(0.0, 0.0)


class TestCsOnly:
    def test_toy_trivial_interval(self, toy, toy_obs):
        lb, ub = transition_row_bounds(toy, toy_obs, (1, 0), Assumptions.CS)
        assert (lb[0], ub[0]) == (0.0, 1.0)
        lp = oracle_bounds(toy, toy_obs, (1, 0), 0, Assumptions.CS)
        assert (lp.lb, lp.ub) == (pytest.approx(0.0, abs=1e-9), pytest.approx(1.0, abs=1e-9))

    def test_disjoint_branch_deterministic_row(self):
        m = disjoint_pair_mdp(p_query=1.0, p_obs=0.8)
        lb, ub = transition_row_bounds(m, (0, 0, 0), (1, 0), Assumptions.CS)
        assert (lb[2], ub[2]) == (1.0, 1.0)

    def test_cs_branch_forces_zero(self):
        m = cs_firing_mdp()
        lb, ub = transition_row_bounds(m, (0, 0, 0), (1, 0), Assumptions.CS)
        assert (lb[1], ub[1]) == (0.0, 0.0)


class TestBuildIntervalCfMdp:
    def test_toy_reproduces_reference_table(self, toy, toy_path):
        none = build_interval_cfmdp(toy, toy_path, Assumptions.NONE)
        csm = build_interval_cfmdp(toy, toy_path, Assumptions.CS_MON)
        for (s, a, s2), ((nlb, nub), (clb, cub)) in TOY_TABLE.items():
            assert none.lb[0, s, a, s2] == pytest.approx(nlb, abs=1e-12)
            assert none.ub[0, s, a, s2] == pytest.approx(nub, abs=1e-12)
            assert csm.lb[0, s, a, s2] == pytest.approx(clb, abs=1e-12)
            assert csm.ub[0, s, a, s2] == pytest.approx(cub, abs=1e-12)

    @pytest.mark.parametrize("assumptions", list(Assumptions))
    def test_deterministic_mdp_degenerate(self, assumptions):
        t = np.zeros((2, 2, 2))
        t[0, 0, 1] = t[0, 1, 0] = t[1, 0, 0] = t[1, 1, 1] = 1.0
        m = Mdp(2, 2, t, np.zeros((2, 2)), np.array([1.0, 0.0]))
        path = ObservedPath((0, 1, 0), (0, 0))
        icf = build_interval_cfmdp(m, path, assumptions)
        assert np.allclose(icf.lb, np.broadcast_to(t, icf.lb.shape))
        assert np.allclose(icf.ub, np.broadcast_to(t, icf.ub.shape))

    @pytest.mark.parametrize("assumptions", [Assumptions.CS, Assumptions.CS_MON])
    def test_exact_zero_lower_bound_has_no_float_dust(self, assumptions):
        # 1 - (sum(ub) - ub) is 0 in exact arithmetic here; the LP gives 0 too.
        m = build_gridworld(gridworld_spec(0.4))
        icf = build_interval_cfmdp(m, ObservedPath((0, 0, 1, 0), (2, 0, 1)), assumptions)
        assert icf.lb[0, 4, 2, 4] == 0.0
        assert oracle_bounds(m, (0, 2, 0), (4, 2), 4, assumptions).lb == 0.0
        assert not np.any((icf.lb > 0) & (icf.lb < 1e-12))

    def test_invalid_path_rejected(self, toy):
        with pytest.raises(ValueError, match="step 0"):
            build_interval_cfmdp(toy, ObservedPath((1, 1), (0,)), Assumptions.NONE)

    @pytest.mark.parametrize("assumptions", list(Assumptions))
    def test_layers_equal_stacked_rows(self, rng, assumptions):
        """Each layer, built in one block with every other layer, equals the one-row
        bounds bitwise."""
        cases = [(m, random_path(m, rng, 4)) for m in
                 [build_gridworld(gridworld_spec(p)) for p in (0.4, 0.9)]
                 + [kernel_env(env, rng) for env in KERNEL_ENVS]
                 + [make_random_mdp(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)),
                                    sparse=True) for _ in range(20)]]
        for m, path in cases:
            icf = build_interval_cfmdp(m, path, assumptions)
            for t in range(path.horizon):
                rows = [[transition_row_bounds(m, path.step(t), (s, a), assumptions)
                         for a in range(m.num_actions)] for s in range(m.num_states)]
                lb, ub = np.moveaxis(np.array(rows), 2, 0)
                assert same_bits(icf.lb[t], lb) and same_bits(icf.ub[t], ub)

    def test_infeasible_row_named(self, toy, toy_path):
        # Rows of a valid MDP always leave a distribution, so corrupt one to sum to 2.
        t = np.array(toy.transition)
        t[1, 0] = [1.0, 0.0, 1.0]
        m = Mdp(3, 1, t, toy.reward, toy.initial_dist)
        with pytest.raises(InvariantViolation, match=r"\(t=0, s=1, a=0\).*sum\(lb\)=2,"):
            build_interval_cfmdp(m, toy_path, Assumptions.NONE)
        with pytest.raises(InvariantViolation, match=r"pair \(1, 0\)"):
            transition_row_bounds(m, (0, 0, 1), (1, 0), Assumptions.NONE)


class TestCompactLayout:
    def test_repeated_triple_shares_its_layer(self):
        m = build_gridworld(gridworld_spec(0.4))
        path = ObservedPath((0, 1, 0, 1, 1, 0), (3, 2, 3, 0, 2))
        triples = [path.step(t) for t in range(path.horizon)]
        assert triples[0] == triples[2] and triples[1] == triples[4]
        icf = build_interval_cfmdp(m, path, Assumptions.CS_MON)
        assert icf.layer.tolist() == [0, 1, 0, 2, 1]
        assert icf.layer_lb.shape == (len(set(triples)),) + m.support_cols.shape
        assert np.array_equal(icf.lb[0], icf.lb[2]) and np.array_equal(icf.ub[4], icf.ub[1])

    def test_dense_view_is_one_cached_read_only_array(self, rng):
        m = build_gridworld(gridworld_spec(0.4))
        icf = build_interval_cfmdp(m, random_path(m, rng, 4), Assumptions.CS)
        assert "lb" not in vars(icf) and "ub" not in vars(icf)
        assert icf.lb is icf.lb and not icf.lb.flags.writeable and not icf.ub.flags.writeable
        off_support = np.broadcast_to(m.transition == 0, icf.ub.shape)
        assert not icf.ub[off_support].any()

    def test_from_dense_round_trips(self, rng):
        for sizes in [(3, 2), (6, 3)]:
            m, path, lb, ub = random_interval_bounds(rng, *sizes, horizon=4)
            icf = icfmdp_from_dense(lb, ub, Assumptions.NONE, m, path)
            assert np.array_equal(icf.lb, lb) and np.array_equal(icf.ub, ub)
        m = build_gridworld(gridworld_spec(0.9))  # sparse rows: padded columns
        for assumptions in Assumptions:
            built = build_interval_cfmdp(m, random_path(m, rng, 6), assumptions)
            again = icfmdp_from_dense(built.lb, built.ub, assumptions, m, built.path)
            assert again.layer_lb.shape[-1] <= m.support_cols.shape[-1]
            assert np.array_equal(again.lb, built.lb) and np.array_equal(again.ub, built.ub)

    def test_interval_reads_the_compact_layers(self, rng):
        """The dense views hold each step's layer on its row's columns, zero elsewhere."""
        m = make_random_mdp(rng, 5, 2, sparse=True)
        icf = build_interval_cfmdp(m, random_path(m, rng, 3), Assumptions.CS_MON)
        off_cols = np.ones(icf.lb.shape, dtype=bool)
        np.put_along_axis(off_cols, icf.cols[None], False, axis=3)
        for dense, layers in [(icf.lb, icf.layer_lb), (icf.ub, icf.layer_ub)]:
            on_cols = np.take_along_axis(dense, icf.cols[None], axis=3)
            assert np.array_equal(on_cols, layers[icf.layer]) and not dense[off_cols].any()

    def test_direct_construction_names_the_first_step_of_a_bad_layer(self):
        m = build_gridworld(gridworld_spec(0.4))
        icf = build_interval_cfmdp(m, ObservedPath((0, 1, 0, 1, 1, 0), (3, 2, 3, 0, 2)),
                                   Assumptions.CS_MON)
        lb = icf.layer_lb.copy()
        lb[1, 4, 2] = 1.0  # layer 1 serves steps 1 and 4
        with pytest.raises(InfeasibleRow, match=r"\(t=1, s=4, a=2\).*sum\(lb\)="):
            replace(icf, layer_lb=lb)

    def test_one_block_build_names_the_first_step_of_a_bad_triple(self):
        # Row (2, 0) sums to 1.2. Bounded given a deterministic observed step, its lower
        # bounds are its entries; given a stochastic one, they stay below 1.
        t = np.zeros((3, 1, 3))
        t[0, 0], t[1, 0], t[2, 0] = [0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.6, 0.6, 0.0]
        m = Mdp(3, 1, t, np.zeros((3, 1)), np.array([1.0, 0.0, 0.0]))
        # Triples (0, 0, 0), (0, 0, 0), (0, 0, 1), (1, 0, 2), (2, 0, 0), (0, 0, 1), (1, 0, 2):
        # the third unique one, first observed at step 3, makes row (2, 0) infeasible.
        path = ObservedPath((0, 0, 0, 1, 2, 0, 1, 2), (0,) * 7)
        with pytest.raises(InfeasibleRow,
                           match=r"\(t=3, s=2, a=0\) given \(1, 0, 2\).*sum\(lb\)=1\.2,"):
            build_interval_cfmdp(m, path, Assumptions.NONE)
        build_interval_cfmdp(m, ObservedPath((0, 0, 1), (0, 0)), Assumptions.NONE)


class TestOneBoundBlock:
    """`build_interval_cfmdp` bounds every unique observed triple in one block, with the
    maxima over the K columns taken one column at a time."""

    @pytest.mark.parametrize("env", KERNEL_ENVS)
    @pytest.mark.parametrize("assumptions", list(Assumptions))
    def test_layers_match_per_triple_reference_bit_for_bit(self, rng, env, assumptions):
        m = kernel_env(env, rng)
        for _ in range(3):
            path = random_path(m, rng, 10)
            icf = build_interval_cfmdp(m, path, assumptions)
            lb, ub = per_triple_layers(m, path, assumptions)
            assert same_bits(icf.layer_lb, lb) and same_bits(icf.layer_ub, ub)

    def test_room_and_slack_of_each_layer_row(self, rng):
        m = kernel_env("frozen-lake", rng)
        icf = build_interval_cfmdp(m, random_path(m, rng, 10), Assumptions.CS_MON)
        assert same_bits(icf.room, icf.layer_ub - icf.layer_lb)
        assert same_bits(icf.slack, 1.0 - icf.layer_lb.sum(axis=-1))
        assert not icf.room.flags.writeable and not icf.slack.flags.writeable


def _assumption_rows(m, obs, pair):
    return {a: transition_row_bounds(m, obs, pair, a) for a in Assumptions}


class TestRowInvariants:
    def test_nesting_and_feasibility_random_mdps(self, rng):
        for trial in range(40):
            m = make_random_mdp(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)),
                                sparse=bool(trial % 2))
            obs = random_observed(m, rng)
            for s in range(m.num_states):
                for a in range(m.num_actions):
                    rows = _assumption_rows(m, obs, (s, a))
                    lb_n, ub_n = rows[Assumptions.NONE]
                    lb_c, ub_c = rows[Assumptions.CS]
                    lb_m, ub_m = rows[Assumptions.CS_MON]
                    # adding constraints can only shrink the feasible set
                    assert np.all(lb_n <= lb_c + 1e-12) and np.all(lb_c <= lb_m + 1e-12)
                    assert np.all(ub_m <= ub_c + 1e-12) and np.all(ub_c <= ub_n + 1e-12)
                    for lb, ub in rows.values():
                        assert lb.sum() <= 1.0 + 1e-9 <= ub.sum() + 2e-9
                        assert np.all(lb <= ub)

    def test_monotonicity_reflected_in_bounds(self, rng):
        seen_mon1 = seen_mon2 = 0
        for trial in range(30):
            m = make_random_mdp(rng, 4, 2, sparse=bool(trial % 2))
            obs = random_observed(m, rng)
            s_next = obs[2]
            for s in range(4):
                for a in range(2):
                    if (s, a) == obs[:2] or not supports_overlap(m, obs[:2], (s, a)):
                        continue
                    lb, ub = transition_row_bounds(m, obs, (s, a), Assumptions.CS_MON)
                    assert lb[s_next] >= m.transition[s, a, s_next] - 1e-12
                    seen_mon1 += 1
                    for j in range(4):
                        if j != s_next and m.transition[obs[0], obs[1], j] > 0 \
                                and m.transition[s, a, j] > 0:
                            assert ub[j] <= m.transition[s, a, j] + 1e-12
                            seen_mon2 += 1
        assert seen_mon1 > 0 and seen_mon2 > 0

    def test_disjoint_pairs_assumptions_vacuous(self, rng):
        seen = 0
        for _ in range(40):
            m = make_random_mdp(rng, 4, 2, sparse=True)
            obs = random_observed(m, rng)
            for s in range(4):
                for a in range(2):
                    if not supports_overlap(m, obs[:2], (s, a)):
                        rows = _assumption_rows(m, obs, (s, a))
                        for key in (Assumptions.CS, Assumptions.CS_MON):
                            assert np.allclose(rows[key], rows[Assumptions.NONE], atol=1e-12)
                        seen += 1
        assert seen > 5

    def test_no_assumption_interval_contains_nominal(self, rng):
        # The independent coupling realizes the nominal row, so it must be feasible.
        for _ in range(25):
            m = make_random_mdp(rng, int(rng.integers(2, 5)), 2)
            obs = random_observed(m, rng)
            for s in range(m.num_states):
                for a in range(2):
                    if (s, a) == obs[:2]:
                        continue
                    lb, ub = transition_row_bounds(m, obs, (s, a), Assumptions.NONE)
                    assert np.all(lb <= m.transition[s, a] + 1e-12)
                    assert np.all(m.transition[s, a] <= ub + 1e-12)


@st.composite
def tiny_mdps(draw):
    ns = draw(st.integers(2, 4))
    na = draw(st.integers(1, 2))
    raw = draw(st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=ns, max_size=ns),
        min_size=ns * na, max_size=ns * na))
    t = np.asarray(raw, dtype=float).reshape(ns, na, ns)
    t = t / t.sum(axis=2, keepdims=True)
    m = Mdp(ns, na, t, np.zeros((ns, na)), np.full(ns, 1.0 / ns))
    s_t = draw(st.integers(0, ns - 1))
    a_t = draw(st.integers(0, na - 1))
    s_next = draw(st.integers(0, ns - 1))
    return m, (s_t, a_t, s_next)


@settings(max_examples=60, deadline=None)
@given(tiny_mdps())
def test_property_nesting_holds(case):
    m, obs = case
    if m.transition[obs[0], obs[1], obs[2]] <= 0:
        return
    for s in range(m.num_states):
        for a in range(m.num_actions):
            lb_n, ub_n = transition_row_bounds(m, obs, (s, a), Assumptions.NONE)
            lb_c, ub_c = transition_row_bounds(m, obs, (s, a), Assumptions.CS)
            lb_m, ub_m = transition_row_bounds(m, obs, (s, a), Assumptions.CS_MON)
            assert np.all(lb_n <= lb_c + 1e-12) and np.all(lb_c <= lb_m + 1e-12)
            assert np.all(ub_m <= ub_c + 1e-12) and np.all(ub_c <= ub_n + 1e-12)


def test_make_interval_clamps_dust():
    iv = make_interval(0.5 + 1e-13, 0.5)
    assert iv.lb == iv.ub == 0.5
    with pytest.raises(InvariantViolation):
        make_interval(0.7, 0.5)
