import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from icfmdp import (Assumptions, GridSpec, Mdp, ObservedPath, build_gridworld,
                    build_gumbel_cfmdp, build_interval_cfmdp, gridworld_spec, resolve_env,
                    rng_from, transition_row_bounds)
from icfmdp.gumbel import _score_table
from icfmdp.mdp import support_columns
from helpers import (column_loop_from_draws, column_loop_gumbel_cfmdp, dense_posterior_probs,
                     gumbel_cf_oracle, make_random_mdp, one_step_path, per_row_gumbel_cfmdp,
                     prior_gumbels, random_observed, random_path)


def one_pair_mdp(row, rng):
    """A one-action MDP whose pair (0, 0) has transition row `row`; other rows random."""
    n = row.shape[0]
    t = rng.dirichlet(np.ones(n), size=(n, 1))
    t[0, 0] = row
    return Mdp(n, 1, t, np.zeros((n, 1)), np.eye(n)[0])


def assert_observed_row_is_point_mass(m, observed, num_samples, seed):
    """Replaying the posterior through the observed pair's own row returns the observed
    outcome in every draw."""
    cf = build_gumbel_cfmdp(m, ObservedPath((0, observed), (0,)), num_samples, seed)
    assert np.array_equal(cf.transition[0, 0, 0], np.eye(m.num_states)[observed])


def test_posterior_argmax_consistency(rng):
    for trial in range(200):
        n = int(rng.integers(2, 6))
        row = rng.dirichlet(np.ones(n))
        if trial % 2:  # rows with zero-probability outcomes
            row[rng.integers(n)] = 0.0
            row = row / row.sum()
        observed = int(rng.choice(n, p=row))
        assert_observed_row_is_point_mass(one_pair_mdp(row, rng), observed, 20, seed=trial)


def test_posterior_rejects_zero_probability_outcome():
    t = np.array([[[0.5, 0.5, 0.0]], [[0.2, 0.3, 0.5]], [[1 / 3, 1 / 3, 1 / 3]]])
    m = Mdp(3, 1, t, np.zeros((3, 1)), np.array([1.0, 0.0, 0.0]))
    path = ObservedPath((0, 2), (0,))
    with pytest.raises(ValueError, match="path invalid for this MDP"):
        build_gumbel_cfmdp(m, path, num_samples=100, seed=0)
    with pytest.raises(ValueError, match="path invalid for this MDP"):
        build_interval_cfmdp(m, path, Assumptions.CS)


@pytest.mark.parametrize("path", [ObservedPath((0, 7), (0,)), ObservedPath((0, 1), (3,))])
def test_out_of_range_path_rejected(toy, path):
    with pytest.raises(ValueError, match=r"path invalid for this MDP: step 0: indices .* out of "
                                         r"range"):
        build_gumbel_cfmdp(toy, path, num_samples=100, seed=0)


def test_deterministic_row_replays_observed():
    row = np.array([0.0, 1.0, 0.0])
    m = Mdp(3, 1, np.tile(row, (3, 1, 1)), np.zeros((3, 1)), np.array([1.0, 0, 0]))
    cf = build_gumbel_cfmdp(m, ObservedPath((0, 1), (0,)), num_samples=500, seed=1)
    assert np.array_equal(cf.transition[0, 1, 0], row)


def test_uniform_row_replay_is_exact(rng):
    row = np.full(3, 1.0 / 3.0)
    assert_observed_row_is_point_mass(one_pair_mdp(row, rng), 1, num_samples=2000, seed=0)


def test_toy_counterfactual_probabilities(toy, toy_path):
    probs = build_gumbel_cfmdp(toy, toy_path, num_samples=100_000, seed=11).transition[0, 1, 0]
    assert probs[0] == pytest.approx(0.35, abs=0.02)
    assert probs[1] == 0.0
    assert probs[2] == pytest.approx(0.65, abs=0.02)
    assert probs.sum() == 1.0


def test_observed_pair_is_exact_delta_for_any_sample_count(toy, toy_path):
    for n in (1, 3, 50):
        cf = build_gumbel_cfmdp(toy, toy_path, num_samples=n, seed=5)
        assert np.array_equal(cf.transition[0, 0, 0], [0.0, 1.0, 0.0])


def test_identical_row_gives_delta(rng):
    # a different pair whose row equals the observed row preserves the argmax
    t = np.zeros((2, 2, 2))
    t[0, 0] = [0.3, 0.7]
    t[0, 1] = [0.3, 0.7]
    t[1, :] = [0.5, 0.5]
    m = Mdp(2, 2, t, np.zeros((2, 2)), np.array([1.0, 0.0]))
    cf = build_gumbel_cfmdp(m, ObservedPath((0, 1), (0,)), num_samples=400, seed=2)
    assert np.array_equal(cf.transition[0, 0, 1], [0.0, 1.0])


def test_estimates_lie_inside_stability_bounds(rng):
    # Gumbel-max satisfies counterfactual stability, so its probabilities must fall
    # inside the stability-only intervals up to Monte-Carlo slack.
    n_samples = 4000
    for trial in range(8):
        m = make_random_mdp(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)),
                            sparse=bool(trial % 2))
        obs = random_observed(m, rng)
        cf = build_gumbel_cfmdp(m, one_step_path(obs), n_samples, seed=trial)
        for s in range(m.num_states):
            for a in range(m.num_actions):
                probs = cf.transition[0, s, a]
                lb, ub = transition_row_bounds(m, obs, (s, a), Assumptions.CS)
                slack = 3.0 * np.sqrt(probs * (1.0 - probs) / n_samples)
                assert np.all(probs >= lb - slack - 1e-12)
                assert np.all(probs <= ub + slack + 1e-12)


def test_build_gumbel_cfmdp_deterministic_mdp():
    t = np.zeros((2, 1, 2))
    t[0, 0, 1] = t[1, 0, 0] = 1.0
    m = Mdp(2, 1, t, np.zeros((2, 1)), np.array([1.0, 0.0]))
    path = ObservedPath((0, 1, 0), (0, 0))
    cf = build_gumbel_cfmdp(m, path, num_samples=50, seed=0)
    assert np.array_equal(cf.transition, np.broadcast_to(t, cf.transition.shape))


def test_build_gumbel_cfmdp_seeded_and_stochastic(toy, rng):
    path = random_path(toy, rng, 3)
    a = build_gumbel_cfmdp(toy, path, num_samples=300, seed=7)
    b = build_gumbel_cfmdp(toy, path, num_samples=300, seed=7)
    c = build_gumbel_cfmdp(toy, path, num_samples=300, seed=8)
    assert np.array_equal(a.transition, b.transition)
    assert not np.array_equal(a.transition, c.transition)
    assert np.abs(a.transition.sum(axis=3) - 1.0).max() == 0.0


@pytest.mark.parametrize("env", ["gridworld", "frozen-lake"])
def test_distinct_row_replay_matches_per_row_loop_bit_for_bit(rng, env):
    m = resolve_env(env, p=0.4 if env == "gridworld" else None)
    rows = m.transition.reshape(-1, m.num_states)
    assert len(np.unique(rows, axis=0)) < len(rows)  # some pairs share their row
    for seed in range(3):
        path = random_path(m, rng, 10)
        assert np.array_equal(build_gumbel_cfmdp(m, path, 1000, seed).transition,
                              per_row_gumbel_cfmdp(m, path, 1000, seed))


def kernel_test_mdp(rng, kind):
    """Random MDP of one kind: dense rows, sparse rows, every row deterministic (W = 1),
    or dense rows with some made deterministic, so that most rows are padded."""
    n, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
    if kind == "deterministic":
        return Mdp(n, k, np.eye(n)[rng.integers(n, size=(n, k))], np.zeros((n, k)), np.eye(n)[0])
    m = make_random_mdp(rng, n, k, sparse=kind == "sparse")
    if kind == "mixed":  # row (0, 0) deterministic, row (1, 0) dense, the rest either
        t = m.transition.copy()
        made = rng.random((n, k)) < 0.5
        made[0, 0], made[1, 0] = True, False
        t[made] = np.eye(n)[rng.integers(n, size=made.sum())]
        m = Mdp(n, k, t, m.reward, m.initial_dist)
    return m


# 7, 9 and 37 draws end their packed claim bits mid-byte.
@pytest.mark.parametrize("num_samples", [1, 7, 9, 37, 1000])
@pytest.mark.parametrize("kind", ["dense", "sparse", "deterministic", "mixed"])
def test_kernel_matches_column_loop_reference_bit_for_bit(rng, kind, num_samples):
    for trial in range(8):
        m = kernel_test_mdp(rng, kind)
        width = (m.transition > 0).sum(axis=2)
        assert kind != "deterministic" or width.max() == 1
        assert kind != "mixed" or width.min() < width.max()
        path = random_path(m, rng, 3)
        assert np.array_equal(build_gumbel_cfmdp(m, path, num_samples, trial).transition,
                              column_loop_gumbel_cfmdp(m, path, num_samples, trial))


GRID16 = GridSpec(width=16, height=16, start=(0, 0), goal=(15, 15),
                  danger_cells=frozenset({(1, 1), (8, 8)}), p_intended=0.4)
GRID32 = GridSpec(width=32, height=32, start=(0, 0), goal=(31, 31),
                  danger_cells=frozenset({(1, 1), (16, 16)}), p_intended=0.4)


# On the larger grids R, the number of distinct rows, runs to about a thousand.
@pytest.mark.parametrize("env, horizon, num_samples", [
    pytest.param("toy", 10, 1000, id="toy"),
    pytest.param("gridworld", 10, 1000, id="gridworld"),
    pytest.param("frozen-lake", 10, 1000, id="frozen-lake"),
    pytest.param("gridworld-16x16", 3, 37, id="gridworld-16x16-37"),
    pytest.param("gridworld-16x16", 3, 1000, id="gridworld-16x16-1000"),
    pytest.param("gridworld-32x32", 2, 100, id="gridworld-32x32"),
])
def test_benchmark_envs_match_column_loop_reference_bit_for_bit(rng, env, horizon, num_samples):
    grids = {"gridworld-16x16": GRID16, "gridworld-32x32": GRID32}
    m = (build_gridworld(grids[env]) if env in grids
         else resolve_env(env, p=0.4 if env == "gridworld" else None))
    for seed in range(2):
        path = random_path(m, rng, horizon)
        assert np.array_equal(build_gumbel_cfmdp(m, path, num_samples, seed).transition,
                              column_loop_gumbel_cfmdp(m, path, num_samples, seed))


def test_rows_equal_but_for_a_negative_zero_get_equal_output_rows():
    # Rows (0, 0) and (0, 1) differ only in the sign of their padding's zero, so the
    # distinct rows, keyed on their bytes, keep both; (2, 1) equals them too.
    t = np.array([[[0.5, 0.5, 0.0], [0.5, 0.5, -0.0]], [[0.2, 0.0, 0.8], [0.0, 1.0, 0.0]],
                  [[0.3, 0.3, 0.4], [0.5, 0.5, 0.0]]])
    m = Mdp(3, 2, t, np.zeros((3, 2)), np.eye(3)[0])
    assert np.signbit(m.transition[0, 1, 2]) and not np.signbit(m.transition[0, 0, 2])
    path = ObservedPath((0, 1, 1), (0, 1))
    for num_samples in (1, 37, 1000):
        got = build_gumbel_cfmdp(m, path, num_samples, 3).transition
        assert np.array_equal(got, column_loop_gumbel_cfmdp(m, path, num_samples, 3))
        assert np.array_equal(got[:, 0, 0], got[:, 0, 1])
        assert np.array_equal(got[:, 0, 0], got[:, 2, 1])


def test_ties_go_to_the_lower_state_as_in_the_column_loop():
    # A point-mass observed row leaves the prior draw as the posterior noise, except the
    # observed state's entry, which becomes `top`: integer draws then tie exactly.
    obs_row = np.array([0.0, 1.0, 0.0, 0.0])
    query = np.array([[0.25] * 4, [0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5], [0, 0, 0, 1.0]])
    top = np.array([0, 1, 1, 2], dtype=float)
    noise = np.array([[0, 9, 0, 0], [1, 9, 1, 0], [0, 9, 1, 1], [2, 9, 2, 2]], dtype=float)
    got = score_from_draws(obs_row, 1, query, top, noise.T)
    want = column_loop_from_draws(obs_row, 1, query, top, noise.T)
    assert np.array_equal(got, want)
    assert np.array_equal(got, [[0.75, 0.25, 0, 0], [0.75, 0, 0.25, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


def score_from_draws(obs_row, s_next, query, top, noise):
    """The library kernel on (R, S) query rows, given prior draws `top` (N,) and `noise`
    (S, N), as `column_loop_from_draws` takes them."""
    cols = support_columns(query > 0)
    table = _score_table(cols, np.take_along_axis(query, cols, 1), *noise.shape)
    return dense_posterior_probs(obs_row, s_next, cols, table, top, noise.copy())


def test_padding_before_real_columns_never_wins_a_tie():
    # Rows 1 and 2 pad with column 0, ahead of their real columns, and its noise is the
    # largest; their real columns tie exactly in some draws.
    obs_row = np.array([0.0, 1.0, 0.0, 0.0])
    query = np.array([[0.25, 0.25, 0.5, 0], [0, 0, 0.5, 0.5], [0, 0.5, 0, 0.5]])
    top = np.array([0.0, 1.0, 2.0])
    noise = np.array([[9, 9, 1, 1], [9, 9, 0, 0], [9, 9, 3, 2]], dtype=float)
    cols = support_columns(query > 0)
    assert np.array_equal(cols[1:, 0], [0, 0])
    got = score_from_draws(obs_row, 1, query, top, noise.T)
    assert np.array_equal(got, column_loop_from_draws(obs_row, 1, query, top, noise.T))
    assert np.array_equal(got[1:], [[0, 0, 1, 0], [0, 2 / 3, 0, 1 / 3]])


def test_entry_shared_across_rows_and_positions():
    # (column 1, q = 0.5) sits at position 1 of row 0 and position 0 of rows 1 and 2.
    obs_row = np.array([0.2, 0.3, 0.5, 0.0])
    query = np.array([[0.5, 0.5, 0, 0], [0, 0.5, 0.5, 0], [0, 0.5, 0, 0.5], [0, 0.5, 0.5, 0]])
    cols = support_columns(query > 0)
    table = _score_table(cols, np.take_along_axis(query, cols, 1), 4, 37)
    assert table.entry.shape == (2, 4) and len(table.entry_col) == 4
    assert table.entry[1, 0] == table.entry[0, 1] == table.entry[0, 2] == table.entry[0, 3]
    for seed in range(20):
        top, noise = prior_gumbels(rng_from(seed), 37, 4)
        want = column_loop_from_draws(obs_row, 2, query, top, noise)
        assert np.array_equal(score_from_draws(obs_row, 2, query, top, noise), want)


def distinct_row_table(m, num_samples):
    """Score table of the distinct compact rows of m, found as whole float rows."""
    cols = m.support_cols.reshape(-1, m.support_cols.shape[-1])
    rows = np.hstack([cols, np.take_along_axis(m.transition.reshape(-1, m.num_states), cols, 1)])
    cand, probs = np.split(np.unique(rows, axis=0), 2, axis=1)
    return _score_table(cand.astype(np.int64), probs, m.num_states, num_samples)


def test_score_table_keys_distinct_entries_on_gridworld():
    table = distinct_row_table(build_gridworld(gridworld_spec(0.4)), 1000)
    assert table.entry.size == 216 and len(table.entry_col) == 42
    assert table.sums.shape == (42, 1000)


def test_build_allocates_no_dense_rows_beside_its_output():
    # Past its output, a build's traced peak is the score table's scratch (2.8 MB here)
    # plus small arrays; one per-step (R, S) float array would add 2.1 MB (R = 1010).
    m = build_gridworld(GRID16)
    path = random_path(m, np.random.default_rng(0), 3)
    table = distinct_row_table(m, 64)
    scratch = sum(getattr(table, name).nbytes
                  for name in ("uniforms", "gumbels", "sums", "running", "reached"))
    del table
    tracemalloc.start()
    try:
        cf = build_gumbel_cfmdp(m, path, 64, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - cf.transition.nbytes <= scratch + 2**20


FAULT_SCRIPT = """
import resource
from icfmdp import (build_gridworld, build_gumbel_cfmdp, gridworld_spec, random_policy_schedule,
                    rng_from, sample_path)
m = build_gridworld(gridworld_spec(0.4))
path = sample_path(m, random_policy_schedule(m.num_states, m.num_actions, 10, rng_from(0)), 10, 1)
for seed in range(5):
    build_gumbel_cfmdp(m, path, 1000, seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(20):
    build_gumbel_cfmdp(m, path, 1000, seed)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc page-fault counts")
def test_steady_state_builds_fault_in_few_pages():
    # Scratch that a build reuses across its steps stays mapped; a same-size temporary of
    # 128 KB or more made on every step can be mapped afresh, and faults in each page.
    res = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) / 20 <= 100


def assert_within_last_bits(got, want):
    """Equal up to the rounding of two `log` implementations: 1e-15, scaled up by |want|
    where it exceeds 1 (about 4.5 units in the last place there)."""
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("num_samples, num_states", [(1, 1), (37, 5), (1000, 17)])
def test_whole_array_draw_matches_generator_gumbel(num_samples, num_states):
    for seed in range(5):
        ours, numpy_gumbel = rng_from(seed), rng_from(seed)
        top, noise = prior_gumbels(ours, num_samples, num_states)
        assert_within_last_bits(top, numpy_gumbel.gumbel(size=num_samples))
        assert_within_last_bits(noise.T, numpy_gumbel.gumbel(size=(num_samples, num_states)))
        assert ours.bit_generator.state == numpy_gumbel.bit_generator.state


def generator_drawing_zero_next():
    """A PCG64 generator stubbed to the state whose next double is exactly 0: the next
    step lands on state 0, whose 64-bit output is 0."""
    rng = rng_from(0)
    state = rng.bit_generator.state
    multiplier = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
    state["state"]["state"] = -state["state"]["inc"] * pow(multiplier, -1, 2**128) % 2**128
    rng.bit_generator.state = state
    return rng


def test_a_zero_uniform_is_redrawn_as_generator_gumbel_does():
    assert generator_drawing_zero_next().random() == 0.0
    ours, numpy_gumbel = generator_drawing_zero_next(), generator_drawing_zero_next()
    top, noise = prior_gumbels(ours, 3, 2)  # the zero is top[0]'s double
    assert np.all(np.isfinite(top)) and np.all(np.isfinite(noise))
    assert_within_last_bits(top, numpy_gumbel.gumbel(size=3))
    assert_within_last_bits(noise.T, numpy_gumbel.gumbel(size=(3, 2)))
    assert ours.bit_generator.state == numpy_gumbel.bit_generator.state


def test_sample_count_validated(toy, toy_path):
    with pytest.raises(ValueError):
        build_gumbel_cfmdp(toy, toy_path, num_samples=0, seed=0)


def assert_rows_match_oracle(m, path, num_samples, seed):
    """Every row of the Gumbel CFMDP lies within 4 standard errors of the quadrature
    oracle; the SE is floored at one count's worth, 1/num_samples, so that near-zero
    probabilities do not demand an exact zero."""
    cf = build_gumbel_cfmdp(m, path, num_samples, seed)
    for t in range(path.horizon):
        s_t, a_t, s_next = path.step(t)
        for s in range(m.num_states):
            for a in range(m.num_actions):
                want = gumbel_cf_oracle(m.transition[s_t, a_t], s_next, m.transition[s, a])
                assert abs(want.sum() - 1.0) <= 1e-12
                se = np.sqrt(np.maximum(want * (1.0 - want), 1.0 / num_samples) / num_samples)
                assert np.all(np.abs(cf.transition[t, s, a] - want) <= 4.0 * se), (t, s, a)


def test_rows_match_quadrature_oracle(rng):
    m = build_gridworld(gridworld_spec(0.4))
    assert_rows_match_oracle(m, random_path(m, rng, 3), num_samples=2000, seed=1)
    for trial in range(10):
        m = make_random_mdp(rng, int(rng.integers(2, 6)), int(rng.integers(1, 3)), sparse=True)
        assert_rows_match_oracle(m, random_path(m, rng, 2), num_samples=2000, seed=trial)


def test_quadrature_oracle_on_toy(toy, toy_obs):
    # one independent check of the oracle itself: the toy row (1, 0) sits near the
    # 0.35/0.65 the acceptance test C05 expects of Monte Carlo
    want = gumbel_cf_oracle(toy.transition[0, 0], toy_obs[2], toy.transition[1, 0])
    assert want[1] == 0.0
    assert want[0] == pytest.approx(0.35, abs=0.005)
    assert want.sum() == pytest.approx(1.0, abs=1e-12)
