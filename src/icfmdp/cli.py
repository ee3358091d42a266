"""Command-line interface.

Subcommands: env, bounds, verify, solve, gumbel, ope, robustness, boundstats,
timing, traces. Exit codes: 0 success, 1 configuration error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments
from .bounds import Assumptions, build_interval_cfmdp, icfmdp_to_json, write_icfmdp_csv
from .coupling import oracle_bounds
from .envs import grid_spec_from_json, gridworld_spec, resolve_env
from .errors import ConfigError, InvariantViolation
from .experiments import RunConfig, run_config_from_json
from .gumbel import build_gumbel_cfmdp, gumbel_cfmdp_to_json
from .mdp import load_mdp, load_path, mdp_to_json, validate_mdp, validate_path
from .robust import Mode, point_value_iteration, robust_value_iteration, solution_to_json


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2 for
    # invariant violations, so remap usage problems to the config-error code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", type=Path, help="JSON run configuration")
    parser.add_argument("--out", type=Path, help="output directory (CSV/JSON emission)")
    parser.add_argument("--assumptions", choices=[a.value for a in Assumptions],
                        default=Assumptions.CS_MON.value)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="icfmdp",
                     description="Interval counterfactual MDPs and robust counterfactual policies")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("env", help="emit an environment MDP as JSON")
    p.add_argument("name", help="toy | gridworld | frozen_lake")
    p.add_argument("--p", type=float, help="GridWorld intended-move probability")
    p.add_argument("--grid-spec", type=Path, help="JSON GridSpec for a custom grid")
    _common_flags(p)

    p = sub.add_parser("bounds", help="interval CFMDP for an observed path")
    p.add_argument("--mdp", type=Path, required=True)
    p.add_argument("--path", type=Path, required=True)
    p.add_argument("--csv", action="store_true", help="emit flat CSV instead of JSON")
    _common_flags(p)

    p = sub.add_parser("verify", help="closed-form bounds vs the coupling-LP oracle")
    p.add_argument("--mdp", type=Path, required=True)
    p.add_argument("--path", type=Path, required=True)
    _common_flags(p)

    p = sub.add_parser("solve", help="robust value iteration over the interval CFMDP")
    p.add_argument("--mdp", type=Path, required=True)
    p.add_argument("--path", type=Path, required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.PESSIMISTIC.value)
    _common_flags(p)

    p = sub.add_parser("gumbel", help="Gumbel-max SCM baseline CFMDP (and its policy)")
    p.add_argument("--mdp", type=Path, required=True)
    p.add_argument("--path", type=Path, required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--with-policy", action="store_true")
    _common_flags(p)

    for name, help_text in [
        ("ope", "off-policy evaluation bounds vs the true target return"),
        ("robustness", "worst-case value: robust policy vs Gumbel-max policy"),
        ("boundstats", "mean interval widths per assumption set"),
        ("timing", "CFMDP generation wall-clock comparison"),
        ("traces", "reward traces over sampled CFMDPs"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--env", default="gridworld")
        p.add_argument("--p", type=float, help="GridWorld intended-move probability")
        p.add_argument("--num-paths", type=int)
        p.add_argument("--horizon", type=int)
        p.add_argument("--num-cf-samples", type=int)
        p.add_argument("--gumbel-samples", type=int)
        p.add_argument("--num-rollouts", type=int)
        _common_flags(p)

    return parser


def _emit(payload: dict, args, default_name: str) -> None:
    text = json.dumps(payload, indent=2)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / default_name).write_text(text + "\n")
    else:
        print(text)


def _load_inputs(args):
    m = load_mdp(args.mdp)
    problems = validate_mdp(m)
    if problems:
        raise InvariantViolation("MDP invalid: " + "; ".join(problems))
    path = load_path(args.path)
    problems = validate_path(m, path)
    if problems:
        raise ConfigError("path invalid for MDP: " + "; ".join(problems))
    return m, path


def _run_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None) is not None:
        cfg = run_config_from_json(json.loads(args.config.read_text()))
    overrides = {}
    for cli_name, field_name in [("env", "env"), ("p", "p"), ("num_paths", "num_paths"),
                                 ("horizon", "horizon"), ("num_cf_samples", "num_cf_samples"),
                                 ("gumbel_samples", "gumbel_samples"),
                                 ("num_rollouts", "num_rollouts")]:
        value = getattr(args, cli_name, None)
        if value is not None:
            overrides[field_name] = value
    overrides["seed"] = args.seed
    overrides["assumptions"] = Assumptions(args.assumptions)
    if args.out is not None:
        overrides["output_dir"] = args.out
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _cmd_env(args) -> None:
    spec = None
    if args.grid_spec is not None:
        spec = grid_spec_from_json(json.loads(args.grid_spec.read_text()))
    elif args.name.lower() == "gridworld":
        spec = gridworld_spec(0.9 if args.p is None else args.p)
    m = resolve_env(args.name, args.p, spec)
    problems = validate_mdp(m)
    if problems:
        raise InvariantViolation("; ".join(problems))
    _emit(mdp_to_json(m), args, f"{args.name}.json")


def _cmd_bounds(args) -> None:
    m, path = _load_inputs(args)
    icf = build_interval_cfmdp(m, path, Assumptions(args.assumptions))
    if args.csv:
        if args.out is None:
            raise ConfigError("--csv requires --out")
        args.out.mkdir(parents=True, exist_ok=True)
        write_icfmdp_csv(icf, args.out / "icfmdp.csv")
    else:
        _emit(icfmdp_to_json(icf), args, "icfmdp.json")


def _cmd_verify(args) -> None:
    m, path = _load_inputs(args)
    assumptions = Assumptions(args.assumptions)
    icf = build_interval_cfmdp(m, path, assumptions)
    # Bounds depend only on the observed triple: a repeated step reuses its LP answers.
    lp_bounds = functools.cache(lambda obs, pair, s2: oracle_bounds(m, obs, pair, s2, assumptions))
    writer = csv.writer(sys.stdout)
    out_fh = None
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        out_fh = open(args.out / "verify.csv", "w", newline="")
        writer = csv.writer(out_fh)
    try:
        writer.writerow(["t", "s", "a", "s_next", "closed_lb", "lp_lb",
                         "closed_ub", "lp_ub", "delta"])
        worst = 0.0
        for t in range(path.horizon):
            obs = path.step(t)
            for s in range(m.num_states):
                for a in range(m.num_actions):
                    lb_row, ub_row = icf.lb[t, s, a], icf.ub[t, s, a]
                    for s2 in range(m.num_states):
                        lp = lp_bounds(obs, (s, a), s2)
                        delta = max(abs(lb_row[s2] - lp.lb), abs(ub_row[s2] - lp.ub))
                        worst = max(worst, delta)
                        writer.writerow([t, s, a, s2, f"{lb_row[s2]:.12g}", f"{lp.lb:.12g}",
                                         f"{ub_row[s2]:.12g}", f"{lp.ub:.12g}", f"{delta:.3g}"])
        if worst > 1e-8:
            raise InvariantViolation(
                f"closed-form bounds disagree with the LP oracle (max delta {worst:.3g})")
    finally:
        if out_fh is not None:
            out_fh.close()


def _cmd_solve(args) -> None:
    m, path = _load_inputs(args)
    icf = build_interval_cfmdp(m, path, Assumptions(args.assumptions))
    sol = robust_value_iteration(icf, m.reward, Mode(args.mode))
    _emit(solution_to_json(sol), args, "solution.json")


def _cmd_gumbel(args) -> None:
    if args.samples < 1:
        raise ConfigError("samples must be >= 1")
    m, path = _load_inputs(args)
    cf = build_gumbel_cfmdp(m, path, args.samples, args.seed)
    payload = gumbel_cfmdp_to_json(cf, m, path)
    if args.with_policy:
        policy, values = point_value_iteration(cf.transition, m.reward)
        payload["policy"] = policy.action_at.tolist()
        payload["values"] = values.values.tolist()
    _emit(payload, args, "gumbel_cfmdp.json")


_EXPERIMENTS = {
    "ope": experiments.run_ope,
    "robustness": experiments.run_robustness,
    "boundstats": experiments.run_bound_stats,
    "timing": experiments.run_timing,
    "traces": experiments.run_cf_traces,
}


def _cmd_experiment(args) -> None:
    cfg = _run_config(args)
    records = _EXPERIMENTS[args.command](cfg)
    if cfg.output_dir is None:
        for record in records:
            print(json.dumps({"experiment": record.experiment, "run_id": record.run_id,
                              "trial": record.trial, **record.metrics}))
    else:
        print(f"{len(records)} records -> {cfg.output_dir}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"env": _cmd_env, "bounds": _cmd_bounds, "verify": _cmd_verify,
                "solve": _cmd_solve, "gumbel": _cmd_gumbel,
                **{name: _cmd_experiment for name in _EXPERIMENTS}}
    try:
        handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
