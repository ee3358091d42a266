"""Benchmark of the icfmdp pipeline, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from `src/` next to
this directory, never from an installed copy. Workloads, metrics and units are those of
`BENCHMARK.json`. With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a traced
run. The same object, the timings of every input and, traced, the spans are also
written to `bench/results/`.

Inputs are made in set-up and processed in whole rounds, one round being every input
once, until `--seconds` of wall time have passed since the first timed input. Checks run
after each input, outside its timing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_ROUNDS = 3
# The reference loop of `reference_seconds`: its rows, and its time in seconds on the
# machine the README's figures come from, in that machine's fast spells. Input times
# are reported as if the machine ran at that speed throughout.
REFERENCE_ROWS = 2400
REFERENCE_S = 0.016
SEGMENT_S = 0.25  # shortest stretch of an input scaled by one pair of reference timings
# Spans made once per process, before the first timed input: reported as totals.
SETUP_SPANS = ("envs.build", "mdp.sample_path")


def process_start() -> float:
    """This process's start on the boot clock, from /proc/self/stat (field 22)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[19]) / os.sysconf("SC_CLK_TCK")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_seconds(np) -> float:
    """Time a fixed loop shaped like the library's per-row code (an argsort, a short
    Python fill loop, a dot product). Its time tracks the machine's current speed."""
    values = np.linspace(1.0, -1.0, 17) ** 3
    upper = np.full(17, 0.3)
    t0 = time.perf_counter()
    for _ in range(REFERENCE_ROWS):
        p = np.zeros(17)
        remaining = 1.0
        for i in np.argsort(values, kind="stable"):
            if remaining <= 0.0:
                break
            add = min(upper[i] - p[i], remaining)
            p[i] += add
            remaining -= add
        float(p @ values)
    return time.perf_counter() - t0


class ScaledTimer:
    """Wall time of one input, scaled to the reference speed of the machine.

    The machine's speed drifts by tens of percent over seconds to minutes, which
    would move every time the benchmark reports. So the input's time is cut, at the
    ends of its stages, into segments of at least SEGMENT_S; the reference loop is
    timed between segments (outside them), and each segment is scaled by
    REFERENCE_S over the mean reference time at its two ends.
    """

    def __init__(self, np) -> None:
        self.np = np
        self.speed = reference_seconds(np)
        self.start()

    def start(self) -> None:
        self.scaled = self.raw = 0.0
        self.t0 = time.perf_counter()

    def stage_end(self) -> None:
        if time.perf_counter() - self.t0 >= SEGMENT_S:
            self._close_segment()

    def stop(self) -> tuple[float, float]:
        """Scaled and raw seconds of the input."""
        self._close_segment()
        return self.scaled, self.raw

    def _close_segment(self) -> None:
        dt = time.perf_counter() - self.t0
        speed = reference_seconds(self.np)
        self.scaled += dt * REFERENCE_S / (0.5 * (self.speed + speed))
        self.raw += dt
        self.speed = speed
        self.t0 = time.perf_counter()


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def measure(workload, inputs, seconds: float, trace: bool, tracer, lp_module, np) -> dict:
    """Process whole rounds of the inputs, timed by a ScaledTimer. Traced runs trace
    every other round after an untraced warm-up round, so that both kinds of round
    see a warm process."""
    import checks

    untraced: list[list[float]] = [[] for _ in inputs]  # scaled seconds per round
    traced: list[list[float]] = [[] for _ in inputs]
    raw: list[list[float]] = [[] for _ in inputs]  # untraced, unscaled
    attempted = failed = traced_done = 0
    problems: list[str] = []
    first = time.perf_counter()
    rounds = 0
    timer = ScaledTimer(np)
    tracer.stage_end = timer.stage_end
    while True:
        traced_round = trace and rounds % 2 == 1
        for i, x in enumerate(inputs):
            attempted += 1
            tracer.enabled = traced_round
            try:
                with (tracer.wrapping(lp_module, "lp_solve", "lp.solve", "lp.solves")
                      if traced_round else contextlib.nullcontext()):
                    timer.start()
                    out = workload.run(x, tracer)
                    scaled, dt = timer.stop()
            except Exception:  # one input failing must not end the run
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            finally:
                tracer.enabled = False
            if traced_round:
                traced[i].append(scaled)
                traced_done += 1
            elif not trace or rounds > 0:
                untraced[i].append(scaled)
                raw[i].append(dt)
            try:
                workload.check(x, out)
            except checks.CheckFailed as exc:
                problems.append(f"round {rounds}, input {i}: {exc}")
            del out
        rounds += 1
        if rounds >= MIN_ROUNDS and time.perf_counter() - first >= seconds:
            break
    return {"attempted": attempted, "failed": failed, "rounds": rounds,
            "untraced": untraced, "traced": traced, "raw": raw,
            "traced_done": traced_done, "problems": problems}


def round_seconds(per_input: list[list[float]]) -> tuple[float, int]:
    """Seconds of one round, as each input's median over rounds summed over the
    inputs, and the number of inputs it covers."""
    done = [ts for ts in per_input if ts]
    return sum(median(ts) for ts in done), len(done)


def end_to_end(spec: dict, run: dict, setup_s: float) -> dict:
    round_s, done = round_seconds(run["untraced"])
    values = {
        "paths_per_s": done / round_s if round_s > 0 else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def per_layer(spec: dict, run: dict, tracer) -> dict:
    """Span seconds and counters per traced input (set-up spans as totals)."""
    n = max(run["traced_done"], 1)
    traced_s, traced_inputs = round_seconds(run["traced"])
    untraced_s, untraced_inputs = round_seconds(run["untraced"])
    overhead = traced_s / max(traced_inputs, 1) - untraced_s / max(untraced_inputs, 1)
    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "bench.trace_overhead_s":
            value = overhead
        elif name.endswith("_s"):
            span = name[:-2]
            value = tracer.seconds.get(span, 0.0)
            if span not in SETUP_SPANS:
                value /= n
        else:
            value = tracer.counts.get(name, 0.0) / n
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    if not (SRC / "icfmdp" / "__init__.py").is_file():
        print(f"bench: no icfmdp package under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import numpy as np

    import icfmdp
    import icfmdp.coupling
    import workloads
    from spans import Tracer

    if Path(icfmdp.__file__).resolve().parent != SRC / "icfmdp":
        print(f"bench: icfmdp imported from {icfmdp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    inputs = workload.setup(args.seed, tracer)
    tracer.enabled = False
    setup_s = time.clock_gettime(time.CLOCK_BOOTTIME) - process_start()

    run = measure(workload, inputs, args.seconds, bool(args.trace), tracer, icfmdp.coupling, np)
    metrics = per_layer(spec, run, tracer) if args.trace else end_to_end(spec, run, setup_s)
    result = {"correct": not run["problems"], "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    for problem in run["problems"][:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "result": result, "rounds": run["rounds"],
              "inputs": len(inputs), "scaled_s": run["untraced"],
              "traced_scaled_s": run["traced"], "raw_s": run["raw"],
              "problems": run["problems"]}
    if args.trace:
        record["trace"] = tracer.to_json()
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
