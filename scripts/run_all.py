#!/usr/bin/env python3
"""Run all five desk-scale studies and drop their CSVs into an output directory.

Covers off-policy evaluation, worst-case robustness, bound widths, CFMDP-generation
timing, and counterfactual reward traces, on GridWorld (both slip levels) and Frozen
Lake. Pass --quick for a fast smoke-scale run.
"""

import argparse
import time
from dataclasses import replace
from pathlib import Path

from icfmdp.experiments import RUNNERS, RunConfig

ENVS = [("gridworld", 0.9), ("gridworld", 0.4), ("frozen_lake", None)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    scale = dict(num_paths=5, gumbel_samples=200, num_cf_samples=5, num_rollouts=100) \
        if args.quick else \
        dict(num_paths=100, gumbel_samples=1000, num_cf_samples=50, num_rollouts=1000)

    for env, p in ENVS:
        tag = env if p is None else f"{env}-p{p}"
        out = args.out / tag
        base = RunConfig(env=env, p=p, horizon=10, seed=args.seed, output_dir=out, **scale)
        overrides = {
            "boundstats": dict(num_paths=min(base.num_paths, 20), horizon=6),
            "timing": dict(num_paths=min(base.num_paths, 5), gumbel_samples=10_000),
            "traces": dict(num_paths=min(base.num_paths, 3)),
        }
        for name, runner in RUNNERS.items():
            cfg = replace(base, **overrides.get(name, {}))
            t0 = time.perf_counter()
            records = runner(cfg)
            print(f"{tag:16s} {name:11s} {len(records):4d} records "
                  f"({time.perf_counter() - t0:6.1f} s) -> {out}")


if __name__ == "__main__":
    main()
