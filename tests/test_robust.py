import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icfmdp import (Assumptions, GridSpec, InfeasibleRow, Mdp, Mode, ObservedPath,
                    PolicySchedule, build_gridworld, build_interval_cfmdp, exact_policy_value,
                    gridworld_spec, optimal_policy, point_policy_eval,
                    point_value_iteration, robust_policy_eval, robust_value_iteration,
                    rollout_rewards, sample_cfmdp)
from icfmdp.bounds import IntervalCfMdp
from icfmdp.mdp import _greedy, rng_from
from icfmdp.robust import FEAS_TOL, _order_fill, _sample_rows
from helpers import (interval_simplex_vertices_2, make_random_mdp, mc_nonstationary_value,
                     random_interval_cfmdp, random_path, rejection_sample_feasible,
                     sequential_fill_expectation, sequential_robust_vi)


class TestRobustExpectation:
    def test_point_intervals_are_plain_expectation(self, rng):
        p = rng.dirichlet(np.ones(4))
        v = rng.normal(size=4)
        for mode in Mode:
            assert _order_fill(v, p, p, mode) == pytest.approx(p @ v, abs=1e-12)

    def test_fully_free_mass(self):
        v = np.array([0.0, 10.0])
        for dtype in (float, int):
            lb, ub = np.zeros(2, dtype=dtype), np.ones(2, dtype=dtype)
            assert _order_fill(v, lb, ub, Mode.PESSIMISTIC) == 0.0
            assert _order_fill(v, lb, ub, Mode.OPTIMISTIC) == 10.0

    def test_two_successor_reference_case(self):
        v = np.array([0.0, 10.0])
        lb = np.array([0.3, 0.2])
        ub = np.array([0.6, 0.9])
        # independent check: the extreme sits on a vertex of the interval polytope
        vertex_values = [p @ v for p in interval_simplex_vertices_2(lb, ub)]
        assert min(vertex_values) == pytest.approx(4.0)
        assert max(vertex_values) == pytest.approx(7.0)
        assert _order_fill(v, lb, ub, Mode.PESSIMISTIC) == pytest.approx(4.0)
        assert _order_fill(v, lb, ub, Mode.OPTIMISTIC) == pytest.approx(7.0)

    def test_vertex_enumeration_on_random_two_successor_rows(self, rng):
        for _ in range(50):
            lb = rng.random(2) * 0.5
            ub = lb + rng.random(2) * (1.0 - lb)
            if lb.sum() > 1.0 or ub.sum() < 1.0:
                continue
            v = rng.normal(size=2)
            values = [p @ v for p in interval_simplex_vertices_2(lb, ub)]
            assert _order_fill(v, lb, ub, Mode.PESSIMISTIC) == pytest.approx(min(values))
            assert _order_fill(v, lb, ub, Mode.OPTIMISTIC) == pytest.approx(max(values))

    def test_infeasible_rows_rejected(self):
        v = np.zeros(2)
        with pytest.raises(InfeasibleRow):
            _order_fill(v, np.array([0.6, 0.6]), np.array([0.7, 0.7]), Mode.PESSIMISTIC)
        with pytest.raises(InfeasibleRow):
            _order_fill(v, np.array([0.0, 0.0]), np.array([0.3, 0.3]), Mode.PESSIMISTIC)

    def test_bounds_any_feasible_distribution(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            nominal = rng.dirichlet(np.ones(n))
            lb = nominal * rng.random(n)
            ub = nominal + (1.0 - nominal) * rng.random(n)
            v = rng.normal(size=n)
            lo = _order_fill(v, lb, ub, Mode.PESSIMISTIC)
            hi = _order_fill(v, lb, ub, Mode.OPTIMISTIC)
            for p in rejection_sample_feasible(lb, ub, rng, want=50):
                assert lo - 1e-9 <= p @ v <= hi + 1e-9


@st.composite
def interval_rows(draw):
    n = draw(st.integers(2, 5))
    nominal = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    nominal = nominal / nominal.sum()
    shrink = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    grow = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    values = np.asarray(draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
    return values, nominal * shrink, nominal + (1 - nominal) * grow, nominal


@settings(max_examples=80, deadline=None)
@given(interval_rows())
def test_property_nominal_between_extremes(case):
    v, lb, ub, nominal = case
    lo = _order_fill(v, lb, ub, Mode.PESSIMISTIC)
    hi = _order_fill(v, lb, ub, Mode.OPTIMISTIC)
    assert lo <= nominal @ v + 1e-9
    assert nominal @ v <= hi + 1e-9


def interval_row_batch(rng, n):
    """Feasible (lb, ub) rows of width n, stacked: random, degenerate (lb == ub),
    sum(lb) just above 1 within FEAS_TOL, 1 - sum(lb) exactly 0, and fully free."""
    nominal = rng.dirichlet(np.ones(n), size=4)
    tight = nominal * (1.0 + FEAS_TOL / 2)
    dyadic = rng.multinomial(64, np.full(n, 1.0 / n), size=4) / 64.0
    lb = np.concatenate([nominal * rng.random(nominal.shape), nominal, tight, dyadic,
                         np.zeros((1, n))])
    ub = np.concatenate([nominal + (1.0 - nominal) * rng.random(nominal.shape), nominal,
                         tight + (1.0 - nominal) * rng.random(nominal.shape),
                         dyadic + (1.0 - dyadic) * rng.random(dyadic.shape), np.ones((1, n))])
    lb_sum = lb.sum(axis=1)
    assert np.all((lb_sum[8:12] > 1.0) & (lb_sum[8:12] <= 1.0 + FEAS_TOL))
    assert np.all(1.0 - lb_sum[12:16] == 0.0)
    return lb, ub


def assert_kernel_matches_sequential_fill(v, lb, ub):
    for mode in Mode:
        got = _order_fill(np.broadcast_to(v, lb.shape), lb, ub, mode)
        want = [sequential_fill_expectation(v, lo, hi, mode) for lo, hi in zip(lb, ub)]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


class TestOrderFillKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 257])
    def test_matches_sequential_fill(self, rng, n):
        lb, ub = interval_row_batch(rng, n)
        assert_kernel_matches_sequential_fill(rng.normal(size=n), lb, ub)
        assert_kernel_matches_sequential_fill(rng.integers(-2, 3, size=n).astype(float), lb, ub)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 257), st.integers(0, 2**32 - 1), st.booleans())
    def test_property_matches_sequential_fill(self, n, seed, tied):
        rng = np.random.default_rng(seed)
        v = rng.integers(-2, 3, size=n).astype(float) if tied else rng.normal(size=n)
        assert_kernel_matches_sequential_fill(v, *interval_row_batch(rng, n))

    def test_value_iteration_matches_sequential_fill(self, rng):
        for num_states in (3, 8, 20):
            icf = random_interval_cfmdp(rng, num_states=num_states, num_actions=3, horizon=4)
            for mode in Mode:
                got = robust_value_iteration(icf, icf.base.reward, mode)
                values, policy = sequential_robust_vi(icf, icf.base.reward, mode)
                np.testing.assert_allclose(got.values.values, values, rtol=0.0, atol=1e-12)
                assert np.array_equal(got.policy.action_at, policy)

    def test_policy_matches_sequential_fill_on_gridworld(self, rng):
        # GridWorld Q-values tie exactly in many states; the kernel and the sequential
        # fill sum in different orders, so only a tie-aware action choice agrees
        m = build_gridworld(gridworld_spec(0.4))
        for _ in range(3):
            path = random_path(m, rng, 10)
            for assumptions in Assumptions:
                icf = build_interval_cfmdp(m, path, assumptions)
                for mode in Mode:
                    got = robust_value_iteration(icf, m.reward, mode).policy.action_at
                    assert np.array_equal(got, sequential_robust_vi(icf, m.reward, mode)[1])


def large_grid(side):
    """A side x side GridWorld, p=0.9, with four danger cells."""
    q = side // 4
    return build_gridworld(GridSpec(
        width=side, height=side, start=(0, 0), goal=(side - 1, side - 1),
        danger_cells=frozenset({(q - 1, q), (q + 1, 3 * q), (2 * q, 2 * q), (3 * q, q + 1)}),
        p_intended=0.9))


class TestCompactRobustDp:
    def test_robust_dp_never_builds_the_dense_view(self, rng):
        m = build_gridworld(gridworld_spec(0.4))
        icf = build_interval_cfmdp(m, random_path(m, rng, 10), Assumptions.CS_MON)
        policy, _ = optimal_policy(m, 10)
        for mode in Mode:
            robust_value_iteration(icf, m.reward, mode)
            robust_policy_eval(icf, policy, mode)
        assert "lb" not in vars(icf) and "ub" not in vars(icf)

    def test_grid16_matches_sequential_fill(self, rng):
        m = large_grid(16)
        icf = build_interval_cfmdp(m, random_path(m, rng, 10), Assumptions.CS_MON)
        assert icf.cols.shape == (257, 4, 4)
        for mode in Mode:
            got = robust_value_iteration(icf, m.reward, mode)
            values, policy = sequential_robust_vi(icf, m.reward, mode)
            err = np.abs(got.values.values - values)
            assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(values)))
            assert np.array_equal(got.policy.action_at, policy)

    def test_grid32_runs_without_the_dense_view(self, rng):
        # S = 1,025: the dense (T, S, A, S) lb/ub pair alone would take about 670 MB
        m = large_grid(32)
        icf = build_interval_cfmdp(m, random_path(m, rng, 10), Assumptions.CS_MON)
        sol = robust_value_iteration(icf, m.reward, Mode.PESSIMISTIC)
        own = robust_policy_eval(icf, sol.policy, Mode.PESSIMISTIC).values
        policy = PolicySchedule(10, rng.integers(0, 4, size=(10, m.num_states)))
        other = robust_policy_eval(icf, policy, Mode.PESSIMISTIC).values
        assert "lb" not in vars(icf) and "ub" not in vars(icf)
        assert icf.layer_lb.shape[1:] == (1025, 4, 4)
        assert np.all(np.isfinite(sol.values.values))
        np.testing.assert_allclose(own, sol.values.values, rtol=1e-12, atol=1e-12)
        assert np.all(other <= sol.values.values + 1e-9)


class TestInfeasibleRows:
    @staticmethod
    def icf_with_bad_row(rng, lb_row, ub_row):
        """An ICFMDP whose row (t=1, s=2, a=1) admits no distribution."""
        icf = random_interval_cfmdp(rng, num_states=4, num_actions=2, horizon=3)
        lb, ub = icf.lb.copy(), icf.ub.copy()
        lb[1, 2, 1], ub[1, 2, 1] = lb_row, ub_row
        return IntervalCfMdp.from_dense(lb, ub, icf.assumptions, icf.base, icf.path)

    CASES = [(0.5, 0.6, r"sum\(lb\)=2, sum\(ub\)=2\.4"),
             (0.0, 0.1, r"sum\(lb\)=0, sum\(ub\)=0\.4")]

    @pytest.mark.parametrize("lb_row, ub_row, sums", CASES)
    def test_value_iteration_names_the_row(self, rng, lb_row, ub_row, sums):
        icf = self.icf_with_bad_row(rng, lb_row, ub_row)
        for mode in Mode:
            with pytest.raises(InfeasibleRow, match=r"\(t=1, s=2, a=1\).*" + sums):
                robust_value_iteration(icf, icf.base.reward, mode)

    @pytest.mark.parametrize("lb_row, ub_row, sums", CASES)
    def test_policy_eval_names_the_row(self, rng, lb_row, ub_row, sums):
        icf = self.icf_with_bad_row(rng, lb_row, ub_row)
        takes_row = PolicySchedule(3, np.ones((3, 4), dtype=np.int64))
        avoids_row = PolicySchedule(3, np.zeros((3, 4), dtype=np.int64))
        for mode in Mode:
            with pytest.raises(InfeasibleRow, match=r"\(t=1, s=2, a=1\).*" + sums):
                robust_policy_eval(icf, takes_row, mode)
            robust_policy_eval(icf, avoids_row, mode)

    @pytest.mark.parametrize("lb_row, ub_row, sums", CASES)
    def test_sample_cfmdp_names_the_row(self, rng, lb_row, ub_row, sums):
        icf = self.icf_with_bad_row(rng, lb_row, ub_row)
        with pytest.raises(InfeasibleRow, match=r"\(t=1, s=2, a=1\).*" + sums):
            sample_cfmdp(icf, seed=0)


class TestRobustValueIteration:
    def test_zero_rewards_zero_values(self, rng):
        icf = random_interval_cfmdp(rng)
        sol = robust_value_iteration(icf, np.zeros_like(icf.base.reward), Mode.PESSIMISTIC)
        assert np.all(sol.values.values == 0.0)

    def test_degenerate_intervals_match_classic_vi(self, rng):
        for _ in range(5):
            m = make_random_mdp(rng, 4, 2)
            path = random_path(m, rng, 5)
            nominal = np.broadcast_to(m.transition, (5,) + m.transition.shape).copy()
            icf = IntervalCfMdp.from_dense(nominal, nominal, Assumptions.NONE, m, path)
            policy_star, v_star = optimal_policy(m, 5)
            for mode in Mode:
                sol = robust_value_iteration(icf, m.reward, mode)
                assert np.allclose(sol.values.values, v_star.values, atol=1e-10)
                assert np.array_equal(sol.policy.action_at, policy_star.action_at)

    def test_pessimistic_below_optimistic(self, rng):
        for _ in range(5):
            icf = random_interval_cfmdp(rng)
            lo = robust_value_iteration(icf, icf.base.reward, Mode.PESSIMISTIC)
            hi = robust_value_iteration(icf, icf.base.reward, Mode.OPTIMISTIC)
            assert np.all(lo.values.values <= hi.values.values + 1e-9)

    def test_widening_intervals_is_monotone(self, rng):
        for _ in range(5):
            icf = random_interval_cfmdp(rng, scale=0.3)
            wider = IntervalCfMdp.from_dense(icf.lb * 0.5, icf.ub + (1.0 - icf.ub) * 0.5,
                                             icf.assumptions, icf.base, icf.path)
            lo_narrow = robust_value_iteration(icf, icf.base.reward, Mode.PESSIMISTIC)
            lo_wide = robust_value_iteration(wider, icf.base.reward, Mode.PESSIMISTIC)
            hi_narrow = robust_value_iteration(icf, icf.base.reward, Mode.OPTIMISTIC)
            hi_wide = robust_value_iteration(wider, icf.base.reward, Mode.OPTIMISTIC)
            assert np.all(lo_wide.values.values <= lo_narrow.values.values + 1e-9)
            assert np.all(hi_wide.values.values >= hi_narrow.values.values - 1e-9)


class TestRobustPolicyEval:
    def test_reproduces_own_solution(self, rng):
        icf = random_interval_cfmdp(rng)
        sol = robust_value_iteration(icf, icf.base.reward, Mode.PESSIMISTIC)
        v = robust_policy_eval(icf, sol.policy, Mode.PESSIMISTIC)
        assert np.allclose(v.values, sol.values.values, atol=1e-12)

    def test_no_policy_beats_the_robust_one(self, rng):
        icf = random_interval_cfmdp(rng)
        sol = robust_value_iteration(icf, icf.base.reward, Mode.PESSIMISTIC)
        s0 = icf.path.states[0]
        for _ in range(10):
            policy = PolicySchedule(
                icf.horizon, rng.integers(0, icf.base.num_actions,
                                          size=(icf.horizon, icf.base.num_states)))
            v = robust_policy_eval(icf, policy, Mode.PESSIMISTIC)
            assert v.values[0, s0] <= sol.values.values[0, s0] + 1e-9

    def test_point_intervals_match_exact_policy_value(self, rng):
        m = make_random_mdp(rng, 4, 2)
        path = random_path(m, rng, 4)
        nominal = np.broadcast_to(m.transition, (4,) + m.transition.shape).copy()
        icf = IntervalCfMdp.from_dense(nominal, nominal, Assumptions.NONE, m, path)
        policy = PolicySchedule(4, rng.integers(0, 2, size=(4, 4)))
        expected = exact_policy_value(m, policy, 4)
        for mode in Mode:
            got = robust_policy_eval(icf, policy, mode)
            assert np.allclose(got.values, expected.values, atol=1e-12)


class TestSampleCfMdp:
    def test_degenerate_intervals_reproduce_nominal(self, rng):
        m = make_random_mdp(rng, 3, 2)
        path = random_path(m, rng, 3)
        nominal = np.broadcast_to(m.transition, (3,) + m.transition.shape).copy()
        icf = IntervalCfMdp.from_dense(nominal, nominal, Assumptions.NONE, m, path)
        cf = sample_cfmdp(icf, seed=0)
        assert np.allclose(cf.transition, nominal, atol=1e-12)

    def test_toy_cs_mon_row_is_pinned(self, toy, toy_path):
        icf = build_interval_cfmdp(toy, toy_path, Assumptions.CS_MON)
        for seed in range(20):
            cf = sample_cfmdp(icf, seed)
            assert np.allclose(cf.transition[0, 1, 0], [0.4, 0.0, 0.6], atol=1e-12)

    def test_rows_inside_intervals_and_stochastic(self, rng):
        for trial in range(10):
            icf = random_interval_cfmdp(rng, num_states=4, num_actions=2, horizon=3)
            cf = sample_cfmdp(icf, seed=trial)
            assert np.all(cf.transition >= icf.lb - 1e-9)
            assert np.all(cf.transition <= icf.ub + 1e-9)
            assert np.abs(cf.transition.sum(axis=3) - 1.0).max() < 1e-9

    def test_sampler_symmetric_on_free_row(self):
        lb = np.zeros(2)
        ub = np.ones(2)
        values = [_sample_rows(lb[None], ub[None], rng_from(9, i))[0, 0]
                  for i in range(10_000)]
        assert np.mean(values) == pytest.approx(0.5, abs=0.02)

    def test_same_seed_same_sample(self, rng):
        icf = random_interval_cfmdp(rng)
        assert np.array_equal(sample_cfmdp(icf, 5).transition, sample_cfmdp(icf, 5).transition)

    def test_layer_depends_only_on_seed_t_and_its_bounds(self, rng):
        a = random_interval_cfmdp(rng, num_states=4, num_actions=2, horizon=3)
        b = random_interval_cfmdp(rng, num_states=4, num_actions=2, horizon=3)
        mixed = IntervalCfMdp.from_dense(np.stack([b.lb[0], a.lb[1], b.lb[2]]),
                                         np.stack([b.ub[0], a.ub[1], b.ub[2]]), a.assumptions,
                                         a.base, a.path)
        short = IntervalCfMdp.from_dense(a.lb[:2], a.ub[:2], a.assumptions, a.base, a.path)
        want = sample_cfmdp(a, 7).transition
        assert np.array_equal(sample_cfmdp(mixed, 7).transition[1], want[1])
        assert np.array_equal(sample_cfmdp(short, 7).transition, want[:2])
        assert not np.array_equal(sample_cfmdp(a, 8).transition[1], want[1])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 257), st.integers(0, 2**32 - 1))
    def test_property_batched_rows_feasible(self, n, seed):
        rng = np.random.default_rng(seed)
        lb_rows, ub_rows = interval_row_batch(rng, n)
        k = -(-len(lb_rows) // n)  # enough actions to hold every row at least once
        rows = [np.arange(n * k) % len(lb_rows), rng.permutation(n * k) % len(lb_rows)]
        lb = np.stack([lb_rows[r].reshape(n, k, n) for r in rows])
        ub = np.stack([ub_rows[r].reshape(n, k, n) for r in rows])
        m = Mdp(n, k, np.full((n, k, n), 1.0 / n), np.zeros((n, k)), np.eye(n)[0])
        icf = IntervalCfMdp.from_dense(lb, ub, Assumptions.NONE, m,
                                       ObservedPath((0, 0, 0), (0, 0)))
        p = sample_cfmdp(icf, seed).transition
        assert np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-12
        # rows with sum(lb) in (1, 1 + FEAS_TOL] hold no distribution inside [lb, ub]
        tol = np.where(lb.sum(axis=-1) > 1.0, FEAS_TOL, 1e-12)[..., None]
        assert np.all(p >= lb - tol) and np.all(p <= ub + tol)


class TestMonteCarloSandwich:
    def test_sampled_cfmdp_values_inside_robust_bounds(self, rng):
        icf = random_interval_cfmdp(rng, num_states=4, num_actions=2, horizon=4)
        m = icf.base
        s0 = icf.path.states[0]
        policy = PolicySchedule(4, rng.integers(0, 2, size=(4, 4)))
        lo = robust_policy_eval(icf, policy, Mode.PESSIMISTIC).values[0, s0]
        hi = robust_policy_eval(icf, policy, Mode.OPTIMISTIC).values[0, s0]
        for j in range(5):
            cf = sample_cfmdp(icf, seed=j)
            exact = point_policy_eval(cf.transition, m.reward, policy).values[0, s0]
            assert lo - 1e-9 <= exact <= hi + 1e-9
            mc, se = mc_nonstationary_value(cf.transition, m.reward, policy, s0, 20_000, rng)
            assert lo - 3 * se - 1e-9 <= mc <= hi + 3 * se + 1e-9


class TestPointBackups:
    def test_point_vi_matches_stationary_optimal(self, rng):
        m = make_random_mdp(rng, 4, 2)
        nominal = np.broadcast_to(m.transition, (5,) + m.transition.shape).copy()
        policy, values = point_value_iteration(nominal, m.reward)
        policy_star, v_star = optimal_policy(m, 5)
        assert np.allclose(values.values, v_star.values, atol=1e-12)
        assert np.array_equal(policy.action_at, policy_star.action_at)

    def test_near_tied_actions_go_to_the_lowest(self):
        q = np.array([[1.0, 1.0 + 1e-13, 0.5], [3e12, 3e12 + 1.0, 0.0], [0.0, 1e-9, 0.0]])
        acts, values = _greedy(q)
        assert acts.tolist() == [0, 0, 1]
        assert np.array_equal(values, q.max(axis=1))

    def test_rollouts_agree_with_point_eval(self, rng):
        m = make_random_mdp(rng, 3, 2)
        nominal = np.broadcast_to(m.transition, (4,) + m.transition.shape).copy()
        policy = PolicySchedule(4, rng.integers(0, 2, size=(4, 3)))
        exact = point_policy_eval(nominal, m.reward, policy).values[0, 0]
        rewards = rollout_rewards(nominal, m.reward, policy, 0, 40_000, seed=3)
        totals = rewards.sum(axis=1)
        se = totals.std(ddof=1) / np.sqrt(len(totals))
        assert totals.mean() == pytest.approx(exact, abs=3 * se + 1e-9)


class TestOneBackwardInduction:
    SHORT_POLICY_CALLS = {
        "robust_policy_eval": lambda icf, pi: robust_policy_eval(icf, pi, Mode.PESSIMISTIC),
        "point_policy_eval": lambda icf, pi: point_policy_eval(
            sample_cfmdp(icf, 0).transition, icf.base.reward, pi),
        "exact_policy_value": lambda icf, pi: exact_policy_value(icf.base, pi, icf.horizon),
        "rollout_rewards": lambda icf, pi: rollout_rewards(
            sample_cfmdp(icf, 0).transition, icf.base.reward, pi, 0, 10, seed=0),
    }

    @pytest.mark.parametrize("call", SHORT_POLICY_CALLS)
    def test_short_policy_rejected(self, rng, call):
        icf = random_interval_cfmdp(rng, num_states=4, num_actions=2, horizon=5)
        short = PolicySchedule(3, np.zeros((3, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="policy horizon 3 is shorter than the horizon 5"):
            self.SHORT_POLICY_CALLS[call](icf, short)

    @pytest.mark.parametrize("env", ["random", "gridworld"])
    def test_stationary_and_time_indexed_dp_agree_bit_for_bit(self, rng, env):
        grid = build_gridworld(gridworld_spec(0.4))
        for _ in range(25):
            m = (make_random_mdp(rng, int(rng.integers(2, 8)), int(rng.integers(1, 4)))
                 if env == "random" else grid)
            horizon = int(rng.integers(1, 12))
            stacked = np.broadcast_to(m.transition, (horizon,) + m.transition.shape)
            policy, values = point_value_iteration(stacked, m.reward)
            policy_star, v_star = optimal_policy(m, horizon)
            assert np.array_equal(policy.action_at, policy_star.action_at)
            assert np.array_equal(values.values, v_star.values)
            pi = PolicySchedule(horizon, rng.integers(0, m.num_actions,
                                                      size=(horizon, m.num_states)))
            assert np.array_equal(point_policy_eval(stacked, m.reward, pi).values,
                                  exact_policy_value(m, pi, horizon).values)
