import csv

import numpy as np
import pytest

from icfmdp import Assumptions, ConfigError
from icfmdp.experiments import (CSV_COLUMNS, RunConfig, run_bound_stats, run_cf_traces,
                                run_config_from_json, run_ope, run_robustness, run_timing)


def small_cfg(**overrides):
    base = dict(env="toy", num_paths=4, horizon=3, num_cf_samples=3,
                gumbel_samples=200, num_rollouts=50, seed=3)
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(num_paths=0).validate()
        with pytest.raises(ConfigError):
            RunConfig(env="nope").validate()

    def test_from_json(self):
        cfg = run_config_from_json({"env": "gridworld", "p": 0.4, "assumptions": "cs",
                                    "num_paths": 2})
        assert cfg.assumptions is Assumptions.CS
        assert cfg.p == 0.4

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            run_config_from_json({"envv": "toy"})

    def test_from_json_rejects_bad_assumptions(self):
        with pytest.raises(ConfigError):
            run_config_from_json({"assumptions": "mon-only"})


def _metrics(records, key):
    return [r.metrics[key] for r in records]


class TestOpe:
    def test_deterministic_env_collapses_to_truth(self):
        # p = 1 GridWorld has no transition noise: bounds and Gumbel must equal truth.
        cfg = RunConfig(env="gridworld", p=1.0, num_paths=2, horizon=4,
                        gumbel_samples=50, seed=1)
        records = run_ope(cfg)
        for r in records:
            assert r.metrics["pessimistic"] == pytest.approx(r.metrics["true_value"], abs=1e-9)
            assert r.metrics["optimistic"] == pytest.approx(r.metrics["true_value"], abs=1e-9)
            assert r.metrics["gumbel"] == pytest.approx(r.metrics["true_value"], abs=1e-9)

    def test_running_averages_and_order(self):
        records = run_ope(small_cfg())
        assert [r.trial for r in records] == list(range(4))
        pess = _metrics(records, "pessimistic")
        assert records[-1].metrics["running_pessimistic"] == pytest.approx(np.mean(pess))
        for r in records:
            assert r.metrics["pessimistic"] <= r.metrics["optimistic"] + 1e-9

    def test_deterministic_given_seed(self):
        a = run_ope(small_cfg())
        b = run_ope(small_cfg())
        for ra, rb in zip(a, b):
            assert ra.metrics == rb.metrics


class TestRobustness:
    def test_dominance_per_trial(self):
        records = run_robustness(small_cfg(env="gridworld", p=0.4, num_paths=3, horizon=5))
        for r in records:
            assert r.metrics["gap"] >= -1e-9
            assert r.metrics["icfmdp_policy_value"] >= r.metrics["gumbel_policy_value"] - 1e-9

    def test_gap_shrinks_when_less_stochastic(self):
        # narrow intervals at p = 0.9 leave the Gumbel policy little room to lose
        gaps = {}
        for p in (0.9, 0.4):
            cfg = RunConfig(env="gridworld", p=p, num_paths=8, horizon=8,
                            gumbel_samples=500, seed=21)
            gaps[p] = np.mean([r.metrics["gap"] for r in run_robustness(cfg)])
        assert gaps[0.9] < gaps[0.4]


class TestBoundStats:
    def test_width_ordering_of_means_on_toy(self):
        records = run_bound_stats(small_cfg())
        for r in records:
            assert r.metrics["num_intervals_none"] >= 1
            # per-transition nesting makes the none-width mean largest on the toy,
            # where the ub > 0 masks coincide across assumption sets
            assert r.metrics["mean_width_cs_mon"] <= r.metrics["mean_width_none"] + 1e-9


class TestTiming:
    def test_monotone_in_gumbel_samples(self):
        slow = run_timing(small_cfg(env="gridworld", p=0.9, num_paths=1, horizon=4,
                                    gumbel_samples=4000))
        fast = run_timing(small_cfg(env="gridworld", p=0.9, num_paths=1, horizon=4,
                                    gumbel_samples=200))
        assert slow[0].metrics["gumbel_seconds"] > fast[0].metrics["gumbel_seconds"]

    def test_repeated_runs_coarsely_stable(self):
        cfg = small_cfg(env="gridworld", p=0.9, num_paths=1, horizon=6,
                        gumbel_samples=3000)
        a = run_timing(cfg)[0].metrics["gumbel_seconds"]
        b = run_timing(cfg)[0].metrics["gumbel_seconds"]
        assert abs(a - b) / max(a, b) < 0.5


class TestTraces:
    def test_degenerate_env_traces_identical(self):
        cfg = RunConfig(env="gridworld", p=1.0, num_paths=1, horizon=4, num_cf_samples=2,
                        gumbel_samples=50, num_rollouts=20, seed=5)
        records = run_cf_traces(cfg)
        by_method = {r.metrics["method"]: r for r in records}
        assert by_method["icfmdp"].metrics["min_cumulative"] == \
            by_method["icfmdp"].metrics["mean_cumulative"]

    def test_emits_both_methods(self):
        records = run_cf_traces(small_cfg(num_paths=1))
        assert {r.metrics["method"] for r in records} == {"icfmdp", "gumbel"}


WALL_CLOCK_METRICS = {"icfmdp_seconds", "gumbel_seconds", "speedup"}


@pytest.mark.parametrize("runner", [run_ope, run_robustness, run_bound_stats, run_timing,
                                    run_cf_traces])
def test_runners_deterministic_given_seed(runner):
    cfg = small_cfg(env="gridworld", p=0.4, num_paths=2, horizon=4)
    a, b = runner(cfg), runner(cfg)
    assert [r.trial for r in a] == [r.trial for r in b]
    for ra, rb in zip(a, b):
        assert {k: v for k, v in ra.metrics.items() if k not in WALL_CLOCK_METRICS} == \
            {k: v for k, v in rb.metrics.items() if k not in WALL_CLOCK_METRICS}


class TestCsvEmission:
    def test_columns_and_append(self, tmp_path):
        cfg = small_cfg(num_paths=2, output_dir=tmp_path)
        run_ope(cfg)
        run_ope(cfg)
        out = tmp_path / "ope.csv"
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == CSV_COLUMNS["ope"]
        assert len(rows) == 4
        assert len({r["run_id"] for r in rows}) == 2  # distinct ids per run

    def test_boundstats_detail_file(self, tmp_path):
        run_bound_stats(small_cfg(num_paths=1, output_dir=tmp_path))
        with open(tmp_path / "boundstats_detail.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == CSV_COLUMNS["boundstats_detail"]
        # toy: 1 path x horizon 3 x 3 states x 1 action x 3 successors
        assert len(rows) == 3 * 3 * 1 * 3
        for row in rows:
            assert float(row["width_cs_mon"]) <= float(row["width_cs"]) + 1e-9
            assert float(row["width_cs"]) <= float(row["width_none"]) + 1e-9

    def test_traces_timestep_file(self, tmp_path):
        run_cf_traces(small_cfg(num_paths=1, output_dir=tmp_path))
        with open(tmp_path / "traces_timesteps.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == CSV_COLUMNS["traces_timesteps"]
        assert {r["method"] for r in rows} == {"icfmdp", "gumbel"}
