import json
import re

import numpy as np
import pytest

from icfmdp import (Assumptions, ConfigError, Mdp, ObservedPath, PolicySchedule,
                    enumerate_theta_bounds, exact_policy_value, mdp_from_json, mdp_to_json,
                    optimal_policy, oracle_bounds, path_from_json, resolve_env, sample_path,
                    transition_row_bounds, validate_mdp)
from icfmdp.mdp import check_path
from helpers import make_random_mdp, mc_policy_value, path_to_json, stationary_policy


def two_state_chain(reward=1.0):
    """Deterministic 2-cycle with constant reward."""
    t = np.zeros((2, 1, 2))
    t[0, 0, 1] = 1.0
    t[1, 0, 0] = 1.0
    return Mdp(2, 1, t, np.full((2, 1), reward), np.array([1.0, 0.0]))


def test_validate_well_formed(toy):
    assert validate_mdp(toy) == []


def test_validate_flags_bad_row_sum():
    t = np.zeros((2, 1, 2))
    t[0, 0, 0] = 0.9
    t[1, 0, 1] = 1.0
    m = Mdp(2, 1, t, np.zeros((2, 1)), np.array([1.0, 0.0]))
    problems = validate_mdp(m)
    assert len(problems) == 1
    assert "(s=0, a=0)" in problems[0]


def test_negative_rewards_are_fine():
    m = two_state_chain(reward=-5.0)
    assert validate_mdp(m) == []


def test_path_length_invariant():
    with pytest.raises(ValueError):
        ObservedPath((0, 1, 2), (0,))


def test_check_path_zero_probability_transition(toy):
    bad = ObservedPath((1, 1), (0,))  # P(1 | 1, 0) == 0
    message = "path invalid for this MDP: step 0: observed transition (1, 0 -> 1) has probability 0"
    with pytest.raises(ConfigError, match=re.escape(message)):
        check_path(toy, bad)
    check_path(toy, ObservedPath((0, 2), (0,)))


NONE = Assumptions.NONE
MALFORMED_QUERIES = {  # on the toy MDP, where (1, 0 -> 1) has probability 0
    "transition_row_bounds, observed state -1": lambda m: transition_row_bounds(
        m, (-1, 0, 1), (0, 0), NONE),
    "transition_row_bounds, query action 1": lambda m: transition_row_bounds(
        m, (0, 0, 1), (0, 1), NONE),
    "transition_row_bounds, observed probability 0": lambda m: transition_row_bounds(
        m, (1, 0, 1), (0, 0), NONE),
    "oracle_bounds, query outcome 3": lambda m: oracle_bounds(m, (0, 0, 1), (0, 0), 3, NONE),
    "oracle_bounds, query outcome -1": lambda m: oracle_bounds(m, (0, 0, 1), (0, 0), -1, NONE),
    "oracle_bounds, observed probability 0": lambda m: oracle_bounds(m, (1, 0, 1), (0, 0), 0,
                                                                     NONE),
    "enumerate_theta_bounds, observed outcome 3": lambda m: enumerate_theta_bounds(
        m, (0, 0, 3), (0, 0, 0), NONE),
    "enumerate_theta_bounds, observed probability 0": lambda m: enumerate_theta_bounds(
        m, (1, 0, 1), (0, 0, 0), NONE),
}


@pytest.mark.parametrize("call", MALFORMED_QUERIES.values(), ids=MALFORMED_QUERIES.keys())
def test_malformed_query_rejected(toy, call):
    with pytest.raises(ValueError, match="path invalid for this MDP: .*(out of range|probability 0)"):
        call(toy)


def test_sample_path_deterministic_mdp_unique():
    m = two_state_chain()
    policy = stationary_policy([0, 0], horizon=4)
    for seed in range(5):
        path = sample_path(m, policy, 4, seed)
        assert path.states == (0, 1, 0, 1, 0)


def test_sample_path_seed_reproducible(toy):
    policy = stationary_policy([0, 0, 0], horizon=6)
    a = sample_path(toy, policy, 6, seed=42)
    b = sample_path(toy, policy, 6, seed=42)
    assert a == b
    assert sample_path(toy, policy, 6, seed=43) != a


def test_sample_path_frequencies_match_row(toy):
    # Law of large numbers on the first step from state 0.
    policy = stationary_policy([0, 0, 0], horizon=1)
    counts = np.zeros(3)
    n = 100_000
    for seed in range(n):
        counts[sample_path(toy, policy, 1, seed).states[1]] += 1
    assert np.abs(counts / n - toy.transition[0, 0]).max() < 0.01


def test_exact_policy_value_zero_rewards(toy):
    policy = stationary_policy([0, 0, 0], horizon=4)
    v = exact_policy_value(toy, policy, 4)
    assert np.all(v.values == 0.0)


def test_exact_policy_value_deterministic_chain():
    m = two_state_chain(reward=1.0)
    policy = stationary_policy([0, 0], horizon=5)
    v = exact_policy_value(m, policy, 5)
    assert v.values[0, 0] == 5.0
    assert np.all(v.values[5] == 0.0)


def test_exact_policy_value_matches_monte_carlo(rng):
    for _ in range(3):
        m = make_random_mdp(rng, num_states=int(rng.integers(2, 6)), num_actions=2)
        horizon = 4
        policy = PolicySchedule(horizon, rng.integers(0, 2, size=(horizon, m.num_states)))
        exact = exact_policy_value(m, policy, horizon).initial_value(m)
        mc, se = mc_policy_value(m, policy, horizon, 100_000, rng)
        assert abs(exact - mc) < 3 * se + 1e-9


def test_optimal_policy_beats_fixed_policies(rng):
    m = make_random_mdp(rng, 4, 2)
    horizon = 5
    _, v_star = optimal_policy(m, horizon)
    for _ in range(10):
        policy = PolicySchedule(horizon, rng.integers(0, 2, size=(horizon, 4)))
        v = exact_policy_value(m, policy, horizon)
        assert np.all(v.values <= v_star.values + 1e-12)


def test_mdp_json_round_trip(toy):
    again = mdp_from_json(json.loads(json.dumps(mdp_to_json(toy))))
    assert np.allclose(again.transition, toy.transition)
    assert np.allclose(again.reward, toy.reward)
    assert again.state_labels == toy.state_labels


@pytest.mark.parametrize("env, p", [("toy", None), ("gridworld", 0.4), ("gridworld", 0.9),
                                    ("frozen_lake", None)])
def test_mdp_json_round_trip_is_bit_for_bit(env, p):
    m = resolve_env(env, p)
    again = mdp_from_json(json.loads(json.dumps(mdp_to_json(m))))
    for name in ("transition", "reward", "initial_dist"):
        assert getattr(again, name).tobytes() == getattr(m, name).tobytes(), name


def test_loader_rejects_bad_row_sums(toy):
    d = mdp_to_json(toy)
    d["transition"][0][0] = [0.3, 0.3, 0.3]
    with pytest.raises(ConfigError):
        mdp_from_json(d)


def test_loader_renormalizes_tiny_slack(toy):
    d = mdp_to_json(toy)
    d["transition"][0][0] = [0.3 + 4e-10, 0.4, 0.3]
    m = mdp_from_json(d)
    assert abs(m.transition[0, 0].sum() - 1.0) < 1e-15


def test_loader_rejects_non_finite_entries(toy):
    d = mdp_to_json(toy)
    d["transition"][1][0][1] = float("nan")
    d["reward"][1] = [float("inf")]
    with pytest.raises(ConfigError, match="non-finite"):
        mdp_from_json(json.loads(json.dumps(d)))


def test_loader_rejects_initial_dist_outside_unit_interval(toy):
    d = mdp_to_json(toy)
    d["initial_dist"] = [1.5, -0.5, 0.0]
    with pytest.raises(ConfigError, match="initial_dist"):
        mdp_from_json(d)


def test_loader_rejects_wrong_reward_shape(toy):
    d = mdp_to_json(toy)
    d["reward"] = [[0.0, 0.0]] * 3
    with pytest.raises(ConfigError, match="reward shape"):
        mdp_from_json(d)


def test_loader_rejects_wrong_state_labels_length(toy):
    d = mdp_to_json(toy)
    d["state_labels"] = ["a", "b"]
    with pytest.raises(ConfigError, match="state_labels"):
        mdp_from_json(d)


def test_validate_flags_non_finite_entries(toy):
    t = np.array(toy.transition)
    t[1, 0, 1] = np.nan
    reward = np.array(toy.reward)
    reward[1, 0] = np.inf
    problems = validate_mdp(Mdp(3, 1, t, reward, toy.initial_dist))
    assert "transition[1, 0, 1] is non-finite" in problems
    assert "reward[1, 0] is non-finite" in problems


def test_path_json_round_trip():
    path = ObservedPath((0, 1, 2), (0, 0))
    assert path_from_json(json.loads(json.dumps(path_to_json(path)))) == path


def test_arrays_are_immutable(toy):
    with pytest.raises(ValueError):
        toy.transition[0, 0, 0] = 0.5
