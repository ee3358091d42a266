import numpy as np
import pytest

from icfmdp import (Assumptions, ConfigError, GridSpec, Mode, ObservedPath,
                    build_frozen_lake, build_gridworld, build_interval_cfmdp,
                    build_toy_mdp, gridworld_spec, optimal_policy, resolve_env,
                    robust_value_iteration, sample_path, validate_mdp)
from icfmdp.envs import DOWN, RIGHT, grid_spec_from_json
from icfmdp.mdp import random_policy_schedule, rng_from


def cell(r, c, width=4):
    return r * width + c


class TestToy:
    def test_edge_probabilities(self):
        m = build_toy_mdp()
        assert m.transition[0, 0, 1] == 0.4
        assert m.transition[2, 0, 2] == 1.0

    def test_valid(self):
        assert validate_mdp(build_toy_mdp()) == []


class TestGridWorld:
    def test_deterministic_when_p_is_one(self):
        m = build_gridworld(gridworld_spec(1.0))
        assert set(np.unique(m.transition)) <= {0.0, 1.0}

    def test_split_rule(self):
        m = build_gridworld(gridworld_spec(0.4))
        # interior cell (2, 1): all four neighbours distinct, no wall dedup
        s = cell(2, 1)
        row = m.transition[s, RIGHT]
        assert row[cell(2, 2)] == pytest.approx(0.4)
        for other in (cell(1, 1), cell(3, 1), cell(2, 0)):
            assert row[other] == pytest.approx(0.2)

    def test_wall_bounce_accumulates_in_place(self):
        m = build_gridworld(gridworld_spec(0.4))
        row = m.transition[cell(0, 0), DOWN]
        # up and left both bounce back into the corner
        assert row[cell(0, 0)] == pytest.approx(0.4)

    def test_all_builders_valid(self):
        for p in (0.1, 0.4, 0.9, 1.0):
            assert validate_mdp(build_gridworld(gridworld_spec(p))) == []

    def test_goal_and_danger_absorb_into_terminal(self):
        m = build_gridworld(gridworld_spec(0.9))
        terminal = 16
        for s in (cell(1, 1), cell(3, 3), terminal):
            for a in range(4):
                assert m.transition[s, a, terminal] == 1.0

    def test_rewards(self):
        m = build_gridworld(gridworld_spec(0.9))
        assert np.all(m.reward[cell(3, 3)] == 100.0)
        assert np.all(m.reward[cell(1, 1)] == -100.0)
        assert np.all(m.reward[16] == 0.0)
        assert np.all(m.reward[cell(0, 0)] == 0.0)  # distance 6 of max 6
        assert np.all(m.reward[cell(3, 2)] == 5.0)

    def test_shortest_path_reaches_goal_with_certainty(self):
        m = build_gridworld(gridworld_spec(1.0))
        horizon = 6  # manhattan distance from (0, 0) to (3, 3)
        policy, _ = optimal_policy(m, horizon + 1)
        path = sample_path(m, policy, horizon, seed=0)
        assert path.states[horizon] == cell(3, 3)

    def test_catastrophic_path_reward_hits_minus_100(self):
        m = build_gridworld(gridworld_spec(0.9))
        path = ObservedPath((cell(0, 0), cell(0, 1), cell(1, 1), 16),
                            (RIGHT, DOWN, DOWN))
        assert m.transition[cell(0, 1), DOWN, cell(1, 1)] > 0
        rewards = [m.reward[s, a] for s, a in zip(path.states, path.actions)]
        assert rewards[2] == -100.0


class TestFrozenLake:
    def test_valid_and_stochastic(self):
        m = build_frozen_lake()
        assert validate_mdp(m) == []
        assert np.abs(m.transition.sum(axis=2) - 1.0).max() < 1e-12

    def test_holes_absorb_into_terminal(self):
        m = build_frozen_lake()
        for r, c in [(1, 1), (1, 3), (2, 3), (3, 0)]:
            for a in range(4):
                assert m.transition[cell(r, c), a, 16] == 1.0

    def test_slip_is_perpendicular_thirds(self):
        m = build_frozen_lake()
        row = m.transition[cell(2, 1), RIGHT]
        assert row[cell(2, 2)] == pytest.approx(1 / 3)
        assert row[cell(1, 1)] == pytest.approx(1 / 3)
        assert row[cell(3, 1)] == pytest.approx(1 / 3)
        assert row[cell(2, 0)] == 0.0

    def test_pessimistic_value_is_bounded(self):
        m = build_frozen_lake()
        horizon = 10
        for seed in range(3):
            policy = random_policy_schedule(m.num_states, m.num_actions, horizon,
                                            rng_from(50, seed))
            path = sample_path(m, policy, horizon, seed=seed)
            icf = build_interval_cfmdp(m, path, Assumptions.CS_MON)
            sol = robust_value_iteration(icf, m.reward, Mode.PESSIMISTIC)
            v0 = sol.values.values[0, path.states[0]]
            assert np.isfinite(v0)
            assert v0 >= -100.0 * horizon


class TestSpecHandling:
    def test_out_of_range_cell_rejected(self):
        with pytest.raises(ConfigError):
            GridSpec(width=4, height=4, start=(0, 0), goal=(4, 4))

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError):
            GridSpec(width=4, height=4, start=(0, 0), goal=(3, 3), p_intended=1.5)

    def test_spec_json_round_trip(self):
        spec = grid_spec_from_json({
            "width": 5, "height": 4, "start": [0, 0], "goal": [3, 4],
            "danger_cells": [[1, 1], [2, 2]], "p_intended": 0.7,
        })
        assert spec.width == 5
        assert (2, 2) in spec.danger_cells
        m = build_gridworld(spec)
        assert validate_mdp(m) == []
        assert m.num_states == 21

    def test_resolve_env(self):
        assert resolve_env("toy").num_states == 3
        assert resolve_env("frozen-lake").num_states == 17
        assert resolve_env("gridworld", p=0.4).num_states == 17
        with pytest.raises(ConfigError):
            resolve_env("sepsis")
        # a setting is refused where it would be dropped
        spec = gridworld_spec(0.4)
        assert np.array_equal(resolve_env("gridworld", spec=spec).transition,
                              build_gridworld(spec).transition)
        with pytest.raises(ConfigError, match="not both"):
            resolve_env("gridworld", p=0.4, spec=spec)
        for name in ("toy", "frozen-lake"):
            with pytest.raises(ConfigError, match="takes no p and no grid spec"):
                resolve_env(name, p=0.4)
            with pytest.raises(ConfigError, match="takes no p and no grid spec"):
                resolve_env(name, spec=spec)
