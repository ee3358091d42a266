"""Desk-scale experiment runners: off-policy evaluation bounds, worst-case robustness,
bound-width statistics, counterfactual reward traces, and CFMDP-generation timing.

Every runner is deterministic given (config, seed), wall-clock fields aside. Results
stream out as ExperimentRecords and, when an output directory is configured, land in
per-experiment CSV files (appended across runs, keyed by a fresh run id).
"""

from __future__ import annotations

import csv
import math
import time
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

    def validate(self) -> None:
        for name in ("num_paths", "horizon", "num_cf_samples", "gumbel_samples", "num_rollouts"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        resolve_env(self.env, self.p)  # raises ConfigError if unknown

    def mdp(self) -> Mdp:
        return resolve_env(self.env, self.p)


def run_config_from_json(d: dict) -> RunConfig:
    known = {f for f in RunConfig.__dataclass_fields__}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(d)
    if "assumptions" in kwargs:
        try:
            kwargs["assumptions"] = Assumptions(kwargs["assumptions"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if "output_dir" in kwargs and kwargs["output_dir"] is not None:
        kwargs["output_dir"] = Path(kwargs["output_dir"])
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


def _records_to_rows(records: list[ExperimentRecord]) -> list[dict]:
    return [{"run_id": r.run_id, "trial": r.trial, **r.metrics} for r in records]


def _trial_path(m: Mdp, cfg: RunConfig, trial: int):
    """Behavioural path for one trial: a fresh random deterministic policy, then one path."""
    rng = rng_from(cfg.seed, _TAG_POLICY, trial)
    policy = random_policy_schedule(m.num_states, m.num_actions, cfg.horizon, rng)
    path_seed = int(np.random.SeedSequence([cfg.seed, _TAG_PATH, trial]).generate_state(1)[0])
    return policy, sample_path(m, policy, cfg.horizon, path_seed), path_seed


def _gumbel_seed(cfg: RunConfig, trial: int) -> int:
    return int(np.random.SeedSequence([cfg.seed, _TAG_GUMBEL, trial]).generate_state(1)[0])


def run_ope(cfg: RunConfig) -> list[ExperimentRecord]:
    """Average counterfactual return bounds of the target policy across observed paths.

    Behavioural paths come from per-trial random policies; the target is the exact
    finite-horizon optimal policy of the nominal MDP. The running averages should
    bracket the true target return, with the Gumbel point estimate in between.
    """
    cfg.validate()
    m = cfg.mdp()
    run_id = new_run_id("ope", cfg.seed)
    target, _ = optimal_policy(m, cfg.horizon)
    true_value = exact_policy_value(m, target, cfg.horizon).initial_value(m)

    records = []
    pess_sum = opt_sum = gum_sum = 0.0
    for trial in range(cfg.num_paths):
        _, path, path_seed = _trial_path(m, cfg, trial)
        s0 = path.states[0]
        icf = build_interval_cfmdp(m, path, cfg.assumptions)
        pess = robust_policy_eval(icf, target, Mode.PESSIMISTIC).values[0, s0]
        opt = robust_policy_eval(icf, target, Mode.OPTIMISTIC).values[0, s0]
        gum_cf = build_gumbel_cfmdp(m, path, cfg.gumbel_samples, _gumbel_seed(cfg, trial))
        gum = point_policy_eval(gum_cf.transition, m.reward, target).values[0, s0]
        pess_sum += pess
        opt_sum += opt
        gum_sum += gum
        done = trial + 1
        records.append(ExperimentRecord("ope", run_id, trial, {
            "path_seed": path_seed,
            "pessimistic": float(pess), "optimistic": float(opt), "gumbel": float(gum),
            "true_value": float(true_value),
            "running_pessimistic": pess_sum / done,
            "running_optimistic": opt_sum / done,
            "running_gumbel": gum_sum / done,
        }))
    if cfg.output_dir is not None:
        append_csv(cfg.output_dir, "ope", _records_to_rows(records))
    return records


def run_robustness(cfg: RunConfig) -> list[ExperimentRecord]:
    """Worst-case value of the robust policy vs the Gumbel-max policy on the same ICFMDP."""
    cfg.validate()
    m = cfg.mdp()
    run_id = new_run_id("robustness", cfg.seed)
    records = []
    for trial in range(cfg.num_paths):
        _, path, path_seed = _trial_path(m, cfg, trial)
        s0 = path.states[0]
        icf = build_interval_cfmdp(m, path, cfg.assumptions)
        robust_sol = robust_value_iteration(icf, m.reward, Mode.PESSIMISTIC)
        gum_cf = build_gumbel_cfmdp(m, path, cfg.gumbel_samples, _gumbel_seed(cfg, trial))
        gum_policy, _ = point_value_iteration(gum_cf.transition, m.reward)
        v_robust = robust_sol.values.values[0, s0]
        v_gumbel = robust_policy_eval(icf, gum_policy, Mode.PESSIMISTIC).values[0, s0]
        records.append(ExperimentRecord("robustness", run_id, trial, {
            "path_seed": path_seed,
            "icfmdp_policy_value": float(v_robust),
            "gumbel_policy_value": float(v_gumbel),
            "gap": float(v_robust - v_gumbel),
        }))
    if cfg.output_dir is not None:
        append_csv(cfg.output_dir, "robustness", _records_to_rows(records))
    return records


_ASSUMPTION_ORDER = (Assumptions.CS_MON, Assumptions.CS, Assumptions.NONE)
_ASSUMPTION_KEY = {Assumptions.CS_MON: "cs_mon", Assumptions.CS: "cs", Assumptions.NONE: "none"}


def run_bound_stats(cfg: RunConfig) -> list[ExperimentRecord]:
    """Mean interval width per assumption set, excluding transitions with upper bound 0."""
    cfg.validate()
    m = cfg.mdp()
    run_id = new_run_id("boundstats", cfg.seed)
    records = []
    detail_rows = []
    for trial in range(cfg.num_paths):
        _, path, path_seed = _trial_path(m, cfg, trial)
        metrics = {"path_seed": path_seed}
        widths = {}
        for assumption in _ASSUMPTION_ORDER:
            icf = build_interval_cfmdp(m, path, assumption)
            mask = icf.ub > 0
            key = _ASSUMPTION_KEY[assumption]
            widths[key] = icf.widths()
            metrics[f"mean_width_{key}"] = float(widths[key][mask].mean())
            metrics[f"num_intervals_{key}"] = int(mask.sum())
        records.append(ExperimentRecord("boundstats", run_id, trial, metrics))
        if cfg.output_dir is not None:
            t_len, n, k, _ = widths["none"].shape
            for t in range(t_len):
                for s in range(n):
                    for a in range(k):
                        for s2 in range(n):
                            detail_rows.append({
                                "run_id": run_id, "trial": trial, "t": t, "s": s, "a": a,
                                "s_next": s2,
                                "width_cs_mon": widths["cs_mon"][t, s, a, s2],
                                "width_cs": widths["cs"][t, s, a, s2],
                                "width_none": widths["none"][t, s, a, s2],
                            })
    if cfg.output_dir is not None:
        append_csv(cfg.output_dir, "boundstats", _records_to_rows(records))
        append_csv(cfg.output_dir, "boundstats_detail", detail_rows)
    return records


def run_timing(cfg: RunConfig) -> list[ExperimentRecord]:
    """Wall-clock comparison: analytical ICFMDP vs Monte-Carlo Gumbel CFMDP construction."""
    cfg.validate()
    m = cfg.mdp()
    run_id = new_run_id("timing", cfg.seed)
    records = []
    for trial in range(cfg.num_paths):
        _, path, path_seed = _trial_path(m, cfg, trial)
        t0 = time.perf_counter()
        build_interval_cfmdp(m, path, cfg.assumptions)
        t1 = time.perf_counter()
        build_gumbel_cfmdp(m, path, cfg.gumbel_samples, _gumbel_seed(cfg, trial))
        t2 = time.perf_counter()
        icf_s, gum_s = t1 - t0, t2 - t1
        records.append(ExperimentRecord("timing", run_id, trial, {
            "path_seed": path_seed,
            "icfmdp_seconds": icf_s, "gumbel_seconds": gum_s,
            "speedup": gum_s / icf_s if icf_s > 0 else float(10 ** 9),
            "gumbel_samples": cfg.gumbel_samples,
        }))
    if cfg.output_dir is not None:
        append_csv(cfg.output_dir, "timing", _records_to_rows(records))
    return records


def run_cf_traces(cfg: RunConfig) -> list[ExperimentRecord]:
    """Reward traces of both policies over CFMDPs sampled from the ICFMDP.

    For each observed path: derive the robust and Gumbel policies, sample
    num_cf_samples concrete CFMDPs, roll each policy out num_rollouts times per
    CFMDP, and report per-timestep reward statistics plus the worst cumulative
    reward seen (a sample minimum, distinct from the pessimistic value).
    """
    cfg.validate()
    m = cfg.mdp()
    run_id = new_run_id("traces", cfg.seed)
    records = []
    timestep_rows = []
    for trial in range(cfg.num_paths):
        _, path, _ = _trial_path(m, cfg, trial)
        s0 = path.states[0]
        icf = build_interval_cfmdp(m, path, cfg.assumptions)
        robust_sol = robust_value_iteration(icf, m.reward, Mode.PESSIMISTIC)
        gum_cf = build_gumbel_cfmdp(m, path, cfg.gumbel_samples, _gumbel_seed(cfg, trial))
        gum_policy, _ = point_value_iteration(gum_cf.transition, m.reward)
        policies = {"icfmdp": robust_sol.policy, "gumbel": gum_policy}

        rewards = {name: [] for name in policies}
        for j in range(cfg.num_cf_samples):
            cf_seed = int(np.random.SeedSequence(
                [cfg.seed, _TAG_CF_SAMPLE, trial, j]).generate_state(1)[0])
            sampled = sample_cfmdp(icf, cf_seed)
            for idx, (name, policy) in enumerate(policies.items()):
                roll_seed = int(np.random.SeedSequence(
                    [cfg.seed, _TAG_ROLLOUT, trial, j, idx]).generate_state(1)[0])
                rewards[name].append(rollout_rewards(
                    sampled.transition, m.reward, policy, s0, cfg.num_rollouts, roll_seed))
        for name in policies:
            all_rewards = np.concatenate(rewards[name], axis=0)  # (paths, T)
            cumulative = all_rewards.sum(axis=1)
            records.append(ExperimentRecord("traces", run_id, trial, {
                "method": name,
                "min_cumulative": float(cumulative.min()),
                "mean_cumulative": float(cumulative.mean()),
            }))
            for t in range(all_rewards.shape[1]):
                timestep_rows.append({
                    "run_id": run_id, "trial": trial, "method": name, "t": t,
                    "mean_reward": float(all_rewards[:, t].mean()),
                    "std_reward": float(all_rewards[:, t].std()),
                })
    if cfg.output_dir is not None:
        append_csv(cfg.output_dir, "traces", _records_to_rows(records))
        append_csv(cfg.output_dir, "traces_timesteps", timestep_rows)
    return records
