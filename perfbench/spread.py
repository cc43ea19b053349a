#!/usr/bin/env python3
"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload nren_ops --seeds 1-10 --seconds 30
    python3 perfbench/spread.py --workload nren_ops --seeds 1-10 --seconds 30 \\
        --out .perfbench/second.json --against .perfbench/first.json

Each seed runs ``perfbench/run.py`` once, in its own process, one after
the other.  For every metric of the result line and every named row of
the human-readable lines it prints the median over the seeds and the
spread: the distance between the first and the third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--against`` it also prints how far each median moved from an earlier
set saved with ``--out``.  Exits 1 when a run fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE)]

from perfbench import stats  # noqa: E402


def seeds_of(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,9"`` as a list of seeds."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def named_rows(lines: list[str]) -> dict[str, float]:
    """``  name  value  unit  note`` rows of the human-readable lines."""
    rows = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3 and parts[0] not in ("counter", "failed:"):
            try:
                rows[parts[0]] = float(parts[1])
            except ValueError:
                continue
    return rows


def run_seed(args, seed: int) -> tuple[dict, dict]:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = completed.stdout.splitlines()
    if completed.returncode or not lines:
        raise SystemExit("seed %d: exit %d" % (seed, completed.returncode))
    result = json.loads(lines[-1])
    values = {key: entry["value"] for key, entry in result["metrics"].items()}
    values.update({"row:" + key: value for key, value in named_rows(lines[:-1]).items()})
    return result, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="save the per-seed values as JSON")
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    status, per_seed = 0, {}
    for seed in seeds_of(args.seeds):
        result, values = run_seed(args, seed)
        per_seed[seed] = values
        print("seed %d: correct %s, attempted %d, failed %d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
        status |= not result["correct"]
    earlier = {}
    if args.against:
        with open(args.against) as handle:
            earlier = json.load(handle)
    names = sorted({name for values in per_seed.values() for name in values})
    print("%-34s %14s %8s %10s" % ("metric", "median", "spread", "moved"))
    for name in names:
        values = [values[name] for values in per_seed.values() if name in values]
        median = stats.median(values)
        moved = ""
        if name in earlier:
            before = stats.median(earlier[name])
            moved = "%+.3f" % (median / before - 1.0) if before else ""
        print("%-34s %14.6g %8.3f %10s" % (name, median, stats.quartile_spread(values), moved))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({name: [values[name] for values in per_seed.values() if name in values]
                       for name in names}, handle, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
