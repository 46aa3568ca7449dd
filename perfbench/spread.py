"""Run one workload under several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload verify-cold --seeds 1-10 [--trace 0] [--seconds N]

For every metric it prints the median of the runs and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of that median, next to the metric's bound from ``BENCHMARK.json``.
Each run's result line is appended to ``perfbench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    log = os.path.join(HERE, "out", f"spread-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"seed": seed, "run": json.loads(lines[-2]), **result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
            if name in bounds and bounds[name] is not None), flush=True)
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
        else:
            spread = 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of bound"
        print(f"{name:48s} median {median:<12.6g} spread {spread:6.3f} bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
