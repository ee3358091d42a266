"""Desk-scale experiment runners: off-policy evaluation bounds, worst-case robustness,
bound-width statistics, counterfactual reward traces, and CFMDP-generation timing.

All five share one trial loop, `_run`: it validates the config, builds the environment,
draws each trial's behaviour path from the seed, and hands it to the runner's per-trial
body, which returns rows per output table. Rows of the runner's own table come back as
ExperimentRecords; when an output directory is configured, every table's rows are
appended to its CSV (across runs, keyed by a fresh run id). Every random stream is
`_seed(cfg, tag, *indices)`, so every runner is deterministic given (config, seed),
wall-clock fields aside. `RUNNERS` maps each study's name to its runner.
"""

from __future__ import annotations

import csv
import math
import time
import typing
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import Assumptions, build_interval_cfmdp
from .envs import resolve_env
from .errors import ConfigError
from .gumbel import build_gumbel_cfmdp
from .mdp import (Mdp, exact_policy_value, optimal_policy, random_policy_schedule,
                  rng_from, sample_path)
from .robust import (Mode, point_policy_eval, point_value_iteration, robust_policy_eval,
                     robust_value_iteration, rollout_rewards, sample_cfmdp)

# Stream tags keep per-purpose RNG derivations from colliding.
_TAG_POLICY, _TAG_PATH, _TAG_GUMBEL, _TAG_CF_SAMPLE, _TAG_ROLLOUT = 1, 2, 3, 4, 5


# The run's positive counts, one CLI flag each, and the largest value each may take:
# checked before anything is allocated, so a huge count is a config error.
COUNT_FIELDS = {"num_paths": 100_000, "horizon": 10_000, "num_cf_samples": 1_000_000,
                "gumbel_samples": 1_000_000, "num_rollouts": 1_000_000}


def check_count(name: str, value: int, limit: int) -> None:
    """Raise ConfigError unless 1 <= value <= limit."""
    if value < 1:
        raise ConfigError(f"{name} must be >= 1")
    if value > limit:
        raise ConfigError(f"{name} must be <= {limit}")


@dataclass
class RunConfig:
    env: str = "gridworld"
    p: float | None = None  # GridWorld slip parameter
    assumptions: Assumptions = Assumptions.CS_MON
    num_paths: int = 20
    horizon: int = 10
    num_cf_samples: int = 50
    gumbel_samples: int = 1000
    num_rollouts: int = 1000
    seed: int = 0
    output_dir: Path | None = None

    def validate(self) -> Mdp:
        """The run's environment; raises ConfigError on a count outside [1, its bound], a
        negative seed or an unknown env."""
        for name, limit in COUNT_FIELDS.items():
            check_count(name, getattr(self, name), limit)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        return resolve_env(self.env, self.p)


# JSON values accepted for each RunConfig field type (bools never count as numbers).
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), Assumptions: ((str,), "a string"),
               Path: ((str,), "a string")}


def run_config_from_json(d: dict) -> RunConfig:
    """RunConfig from its JSON dict; every key must name a field and hold a value of its type."""
    hints = typing.get_type_hints(RunConfig)
    if not isinstance(d, dict):
        raise ConfigError("run config must be a JSON object")
    if set(d) - set(hints):
        raise ConfigError(f"unknown config keys: {sorted(set(d) - set(hints))}")
    kwargs = {}
    for name, value in d.items():
        # A `T | None` field splits into kind T and optional [NoneType].
        kind, *optional = typing.get_args(hints[name]) or (hints[name],)
        json_types, label = _JSON_TYPES[kind]
        if isinstance(value, bool) or not isinstance(value, (*json_types, *optional)):
            raise ConfigError(f"{name} must be {label}{' or null' * bool(optional)}, "
                              f"got {value!r}")
        try:
            convert = value is not None and kind in (Assumptions, Path)
            kwargs[name] = kind(value) if convert else value
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    cfg = RunConfig(**kwargs)
    cfg.validate()
    return cfg


@dataclass(frozen=True)
class ExperimentRecord:
    experiment: str
    run_id: str
    trial: int
    metrics: dict[str, float]

    def __post_init__(self):
        for key, value in self.metrics.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"non-finite metric {key}={value}")


CSV_COLUMNS = {
    "ope": ["run_id", "trial", "path_seed", "pessimistic", "optimistic", "gumbel",
            "true_value", "running_pessimistic", "running_optimistic", "running_gumbel"],
    "robustness": ["run_id", "trial", "path_seed", "icfmdp_policy_value",
                   "gumbel_policy_value", "gap"],
    "boundstats": ["run_id", "trial", "path_seed", "mean_width_cs_mon", "mean_width_cs",
                   "mean_width_none", "num_intervals_cs_mon", "num_intervals_cs",
                   "num_intervals_none"],
    "boundstats_detail": ["run_id", "trial", "t", "s", "a", "s_next", "width_cs_mon",
                          "width_cs", "width_none"],
    "timing": ["run_id", "trial", "path_seed", "icfmdp_seconds", "gumbel_seconds",
               "speedup", "gumbel_samples"],
    "traces": ["run_id", "trial", "method", "min_cumulative", "mean_cumulative"],
    "traces_timesteps": ["run_id", "trial", "method", "t", "mean_reward", "std_reward"],
}


def new_run_id(experiment: str, seed: int) -> str:
    return f"{experiment}-{seed}-{uuid.uuid4().hex[:8]}"


def append_csv(directory: Path, experiment: str, rows: list[dict]) -> Path:
    columns = CSV_COLUMNS[experiment]
    directory.mkdir(parents=True, exist_ok=True)
    out = directory / f"{experiment}.csv"
    fresh = not out.exists()
    with open(out, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        if fresh:
            writer.writeheader()
        writer.writerows(rows)
    return out


def _seed(cfg: RunConfig, tag: int, *indices: int) -> int:
    """Seed of one purpose-tagged stream of a run, e.g. (trial) or (trial, sample, policy)."""
    return int(np.random.SeedSequence([cfg.seed, tag, *indices]).generate_state(1)[0])


def _run(cfg: RunConfig, experiment: str, body) -> list[ExperimentRecord]:
    """The trial loop every runner shares.

    Each trial draws a fresh random deterministic behaviour policy and one path under it,
    then calls body(m, trial, path, path_seed), which returns {table: [row, ...]}. Rows of
    the experiment's own table become ExperimentRecords; with an output directory, every
    table's rows are appended to its CSV, prefixed with the run id and trial.
    """
    m = cfg.validate()
    run_id = new_run_id(experiment, cfg.seed)
    records, tables = [], {}
    for trial in range(cfg.num_paths):
        policy = random_policy_schedule(m.num_states, m.num_actions, cfg.horizon,
                                        rng_from(cfg.seed, _TAG_POLICY, trial))
        path_seed = _seed(cfg, _TAG_PATH, trial)
        path = sample_path(m, policy, cfg.horizon, path_seed)
        for table, rows in body(m, trial, path, path_seed).items():
            if table == experiment:
                records += [ExperimentRecord(experiment, run_id, trial, row) for row in rows]
            tables.setdefault(table, []).extend(
                {"run_id": run_id, "trial": trial, **row} for row in rows)
    if cfg.output_dir is not None:
        for table, rows in tables.items():
            append_csv(cfg.output_dir, table, rows)
    return records


def _icfmdp_and_gumbel(cfg: RunConfig, m: Mdp, trial: int, path):
    """The trial's interval CFMDP and its Gumbel-max CFMDP baseline."""
    return (build_interval_cfmdp(m, path, cfg.assumptions),
            build_gumbel_cfmdp(m, path, cfg.gumbel_samples, _seed(cfg, _TAG_GUMBEL, trial)))


def run_ope(cfg: RunConfig) -> list[ExperimentRecord]:
    """Average counterfactual return bounds of the target policy across observed paths.

    Behavioural paths come from per-trial random policies; the target is the exact
    finite-horizon optimal policy of the nominal MDP. The running averages should
    bracket the true target return, with the Gumbel point estimate in between.
    """
    target = true_value = None
    sums = np.zeros(3)

    def body(m, trial, path, path_seed):
        nonlocal target, true_value, sums
        if target is None:
            target, _ = optimal_policy(m, cfg.horizon)
            true_value = float(exact_policy_value(m, target, cfg.horizon).initial_value(m))
        s0 = path.states[0]
        icf, gum_cf = _icfmdp_and_gumbel(cfg, m, trial, path)
        values = np.array([robust_policy_eval(icf, target, Mode.PESSIMISTIC).values[0, s0],
                           robust_policy_eval(icf, target, Mode.OPTIMISTIC).values[0, s0],
                           point_policy_eval(gum_cf.transition, m.reward, target).values[0, s0]])
        sums += values
        pess, opt, gum = values.tolist()
        running = sums / (trial + 1)
        return {"ope": [{
            "path_seed": path_seed, "pessimistic": pess, "optimistic": opt, "gumbel": gum,
            "true_value": true_value, "running_pessimistic": running[0],
            "running_optimistic": running[1], "running_gumbel": running[2],
        }]}
    return _run(cfg, "ope", body)


def run_robustness(cfg: RunConfig) -> list[ExperimentRecord]:
    """Worst-case value of the robust policy vs the Gumbel-max policy on the same ICFMDP."""
    def body(m, trial, path, path_seed):
        s0 = path.states[0]
        icf, gum_cf = _icfmdp_and_gumbel(cfg, m, trial, path)
        robust_sol = robust_value_iteration(icf, m.reward, Mode.PESSIMISTIC)
        gum_policy, _ = point_value_iteration(gum_cf.transition, m.reward)
        v_robust = robust_sol.values.values[0, s0]
        v_gumbel = robust_policy_eval(icf, gum_policy, Mode.PESSIMISTIC).values[0, s0]
        return {"robustness": [{"path_seed": path_seed, "icfmdp_policy_value": float(v_robust),
                                "gumbel_policy_value": float(v_gumbel),
                                "gap": float(v_robust - v_gumbel)}]}
    return _run(cfg, "robustness", body)


_ASSUMPTION_KEY = {Assumptions.CS_MON: "cs_mon", Assumptions.CS: "cs", Assumptions.NONE: "none"}


def run_bound_stats(cfg: RunConfig) -> list[ExperimentRecord]:
    """Mean interval width per assumption set, excluding transitions with upper bound 0."""
    def body(m, trial, path, path_seed):
        metrics, widths = {"path_seed": path_seed}, {}
        for assumption, key in _ASSUMPTION_KEY.items():
            icf = build_interval_cfmdp(m, path, assumption)
            mask = icf.ub > 0
            widths[key] = icf.widths()
            metrics[f"mean_width_{key}"] = float(widths[key][mask].mean())
            metrics[f"num_intervals_{key}"] = int(mask.sum())
        tables = {"boundstats": [metrics]}
        if cfg.output_dir is not None:
            cells = np.indices(widths["none"].shape).reshape(4, -1).tolist()
            cells += [widths[key].ravel().tolist() for key in _ASSUMPTION_KEY.values()]
            names = ("t", "s", "a", "s_next", "width_cs_mon", "width_cs", "width_none")
            tables["boundstats_detail"] = [dict(zip(names, row)) for row in zip(*cells)]
        return tables
    return _run(cfg, "boundstats", body)


def run_timing(cfg: RunConfig) -> list[ExperimentRecord]:
    """Wall-clock comparison: analytical ICFMDP vs Monte-Carlo Gumbel CFMDP construction."""
    def body(m, trial, path, path_seed):
        t0 = time.perf_counter()
        build_interval_cfmdp(m, path, cfg.assumptions)
        t1 = time.perf_counter()
        build_gumbel_cfmdp(m, path, cfg.gumbel_samples, _seed(cfg, _TAG_GUMBEL, trial))
        icf_s, gum_s = t1 - t0, time.perf_counter() - t1
        return {"timing": [{
            "path_seed": path_seed,
            "icfmdp_seconds": icf_s, "gumbel_seconds": gum_s,
            "speedup": gum_s / icf_s if icf_s > 0 else float(10 ** 9),
            "gumbel_samples": cfg.gumbel_samples,
        }]}
    return _run(cfg, "timing", body)


def run_cf_traces(cfg: RunConfig) -> list[ExperimentRecord]:
    """Reward traces of both policies over CFMDPs sampled from the ICFMDP.

    For each observed path: derive the robust and Gumbel policies, sample
    num_cf_samples concrete CFMDPs, roll each policy out num_rollouts times per
    CFMDP, and report per-timestep reward statistics plus the worst cumulative
    reward seen (a sample minimum, distinct from the pessimistic value).
    """
    def body(m, trial, path, path_seed):
        s0 = path.states[0]
        icf, gum_cf = _icfmdp_and_gumbel(cfg, m, trial, path)
        robust_sol = robust_value_iteration(icf, m.reward, Mode.PESSIMISTIC)
        gum_policy, _ = point_value_iteration(gum_cf.transition, m.reward)
        policies = {"icfmdp": robust_sol.policy, "gumbel": gum_policy}

        rewards = {name: [] for name in policies}
        for j in range(cfg.num_cf_samples):
            sampled = sample_cfmdp(icf, _seed(cfg, _TAG_CF_SAMPLE, trial, j))
            for idx, (name, policy) in enumerate(policies.items()):
                rewards[name].append(rollout_rewards(
                    sampled.transition, m.reward, policy, s0, cfg.num_rollouts,
                    _seed(cfg, _TAG_ROLLOUT, trial, j, idx)))
        tables = {"traces": [], "traces_timesteps": []}
        for name in policies:
            all_rewards = np.concatenate(rewards[name], axis=0)  # (paths, T)
            cumulative = all_rewards.sum(axis=1)
            tables["traces"].append({"method": name,
                                     "min_cumulative": float(cumulative.min()),
                                     "mean_cumulative": float(cumulative.mean())})
            tables["traces_timesteps"] += [
                {"method": name, "t": t, "mean_reward": float(all_rewards[:, t].mean()),
                 "std_reward": float(all_rewards[:, t].std())}
                for t in range(all_rewards.shape[1])]
        return tables
    return _run(cfg, "traces", body)


RUNNERS = {"ope": run_ope, "robustness": run_robustness, "boundstats": run_bound_stats,
           "timing": run_timing, "traces": run_cf_traces}
