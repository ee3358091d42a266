"""Command-line interface.

Subcommands: env, bounds, verify, solve, gumbel, ope, robustness, boundstats,
timing, traces. Exit codes: 0 success, 1 configuration error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import experiments
from .bounds import Assumptions, build_interval_cfmdp, icfmdp_to_json, write_icfmdp_csv
from .envs import grid_spec_from_json, resolve_env
from .errors import ConfigError, InvariantViolation
from .experiments import COUNT_FIELDS, RunConfig, check_count, run_config_from_json
from .gumbel import build_gumbel_cfmdp, gumbel_cfmdp_to_json
from .mdp import load_mdp, load_path, mdp_to_json, read_json, validate_mdp
from .robust import Mode, point_value_iteration, robust_value_iteration, solution_to_json


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2 for
    # invariant violations, so remap usage problems to the config-error code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_SHARED_FLAGS = {
    "--mdp": dict(type=Path, required=True),
    "--path": dict(type=Path, required=True),
    "--seed": dict(type=int),
    "--config": dict(type=Path, help="JSON run configuration"),
    "--assumptions": dict(choices=[a.value for a in Assumptions]),
    "--out": dict(dest="output_dir", type=Path, help="CSV/JSON output directory"),
    **{"--" + name.replace("_", "-"): dict(type=int) for name in COUNT_FIELDS},
}

# The run flags each experiment reads; --config takes every RunConfig field, for all.
_PATHS, _GUMBEL = ("--num-paths", "--horizon"), ("--assumptions", "--gumbel-samples")
_RUN_FLAGS = dict.fromkeys(("ope", "robustness", "timing"), _PATHS + _GUMBEL) | {
    "boundstats": _PATHS, "traces": _PATHS + _GUMBEL + ("--num-cf-samples", "--num-rollouts")}


def _add_flags(parser: argparse.ArgumentParser, *names: str, **defaults) -> None:
    """Give a subcommand the shared flags `names`; `defaults` are set by destination."""
    for name in names:
        parser.add_argument(name, **_SHARED_FLAGS[name])
    parser.set_defaults(**defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="icfmdp",
                     description="Interval counterfactual MDPs and robust counterfactual policies")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    cs_mon = Assumptions.CS_MON.value

    p = sub.add_parser("env", help="emit an environment MDP as JSON")
    p.add_argument("name", help="toy | gridworld | frozen_lake")
    p.add_argument("--p", type=float, help="GridWorld intended-move probability")
    p.add_argument("--grid-spec", type=Path, help="JSON GridSpec for a custom grid")
    _add_flags(p, "--out")

    p = sub.add_parser("bounds", help="interval CFMDP for an observed path")
    p.add_argument("--csv", action="store_true", help="emit flat CSV instead of JSON")
    _add_flags(p, "--mdp", "--path", "--assumptions", "--out", assumptions=cs_mon)

    p = sub.add_parser("verify", help="closed-form bounds vs the coupling-LP oracle")
    _add_flags(p, "--mdp", "--path", "--assumptions", "--out", assumptions=cs_mon)

    p = sub.add_parser("solve", help="robust value iteration over the interval CFMDP")
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.PESSIMISTIC.value)
    _add_flags(p, "--mdp", "--path", "--assumptions", "--out", assumptions=cs_mon)

    p = sub.add_parser("gumbel", help="Gumbel-max SCM baseline CFMDP (and its policy)")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--with-policy", action="store_true")
    _add_flags(p, "--mdp", "--path", "--seed", "--out", seed=0)

    # No run flag has a default, so an unset one leaves the --config or RunConfig value.
    for name, runner in experiments.RUNNERS.items():
        p = sub.add_parser(name, help=runner.__doc__.splitlines()[0])
        p.add_argument("--env")
        p.add_argument("--p", type=float, help="GridWorld intended-move probability")
        _add_flags(p, "--seed", "--config", "--out", *_RUN_FLAGS[name])

    return parser


def _emit(payload: dict, args, default_name: str) -> None:
    text = json.dumps(payload, indent=2)
    if args.output_dir is not None:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        (args.output_dir / default_name).write_text(text + "\n")
    else:
        print(text)


def _load_inputs(args):
    """The --mdp and --path files; the builders check the path against the MDP."""
    return load_mdp(args.mdp), load_path(args.path)


def _run_config(args) -> RunConfig:
    """Each RunConfig field from its flag if set, else from --config, else its default."""
    cfg = run_config_from_json(read_json(args.config) if args.config else {})
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
    if "assumptions" in overrides:
        overrides["assumptions"] = Assumptions(overrides["assumptions"])
    return replace(cfg, **overrides)  # validated by the runner


def _cmd_env(args) -> None:
    spec = None if args.grid_spec is None else grid_spec_from_json(read_json(args.grid_spec))
    m = resolve_env(args.name, args.p, spec)
    problems = validate_mdp(m)
    if problems:
        raise InvariantViolation("; ".join(problems))
    _emit(mdp_to_json(m), args, f"{args.name}.json")


def _cmd_bounds(args) -> None:
    m, path = _load_inputs(args)
    icf = build_interval_cfmdp(m, path, Assumptions(args.assumptions))
    if args.csv:
        if args.output_dir is None:
            raise ConfigError("--csv requires --out")
        args.output_dir.mkdir(parents=True, exist_ok=True)
        write_icfmdp_csv(icf, args.output_dir / "icfmdp.csv")
    else:
        _emit(icfmdp_to_json(icf), args, "icfmdp.json")


def _cmd_verify(args) -> None:
    from .coupling import oracle_layer  # the LP oracle needs scipy; no other command does
    m, path = _load_inputs(args)
    assumptions = Assumptions(args.assumptions)
    icf = build_interval_cfmdp(m, path, assumptions)
    # One stacked LP per ICFMDP layer, on the triple of the first step that uses it.
    first_steps = np.unique(icf.layer, return_index=True)[1]
    lp = np.array([oracle_layer(m, path.step(int(t)), assumptions) for t in first_steps])
    lp_lb, lp_ub = np.moveaxis(lp[icf.layer], 1, 0)  # each (T, S, A, S)
    delta = np.maximum(abs(icf.lb - lp_lb), abs(icf.ub - lp_ub))
    cells = np.indices(delta.shape).reshape(4, -1).tolist()
    cells += [x.ravel().tolist() for x in (icf.lb, lp_lb, icf.ub, lp_ub, delta)]
    if args.output_dir is not None:
        args.output_dir.mkdir(parents=True, exist_ok=True)
    with (contextlib.nullcontext(sys.stdout) if args.output_dir is None
          else open(args.output_dir / "verify.csv", "w", newline="")) as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "s", "a", "s_next", "closed_lb", "lp_lb",
                         "closed_ub", "lp_ub", "delta"])
        writer.writerows([t, s, a, s2, f"{lo:.12g}", f"{lp_lo:.12g}", f"{hi:.12g}",
                          f"{lp_hi:.12g}", f"{d:.3g}"]
                         for t, s, a, s2, lo, lp_lo, hi, lp_hi, d in zip(*cells))
    worst = delta.max(initial=0.0)
    if worst > 1e-8:
        raise InvariantViolation(
            f"closed-form bounds disagree with the LP oracle (max delta {worst:.3g})")


def _cmd_solve(args) -> None:
    m, path = _load_inputs(args)
    icf = build_interval_cfmdp(m, path, Assumptions(args.assumptions))
    sol = robust_value_iteration(icf, m.reward, Mode(args.mode))
    _emit(solution_to_json(sol), args, "solution.json")


def _cmd_gumbel(args) -> None:
    check_count("samples", args.samples, COUNT_FIELDS["gumbel_samples"])
    m, path = _load_inputs(args)
    cf = build_gumbel_cfmdp(m, path, args.samples, args.seed)
    payload = gumbel_cfmdp_to_json(cf, m, path, args.samples)
    if args.with_policy:
        policy, values = point_value_iteration(cf.transition, m.reward)
        payload["policy"] = policy.action_at.tolist()
        payload["values"] = values.values.tolist()
    _emit(payload, args, "gumbel_cfmdp.json")


def _cmd_experiment(args) -> None:
    cfg = _run_config(args)
    records = experiments.RUNNERS[args.command](cfg)
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
                **dict.fromkeys(experiments.RUNNERS, _cmd_experiment)}
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:  # the shared --seed
            raise ConfigError("seed must be >= 0")
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
