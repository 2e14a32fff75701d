"""Alternating perfbench pairs of two source trees, summarised per gated metric.

For each seed in the range, runs `perfbench/run.py --trace 0` for the
`run_seconds` that BENCHMARK.json sets, once from the parent tree and once
from the change tree, each from its own checkout and in a fresh process,
swapping which goes first from one pair to the next so a drift in the host's
speed falls on both sides alike. Then, for each metric
that BENCHMARK.json's `end_to_end` list gates, it prints both trees' medians
and quartiles over the pairs, the change in the median, and in how many pairs
the change was better.

    python3 tools/pairs.py --parent /path/to/parent --change . --workload small32 --seeds 21-30

Each run's end-to-end figures and check verdict go to stderr as it finishes.
The command exits 1 if any run's output checks failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text):
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(tree, workload, seed, seconds):
    """One perfbench session from `tree`: (checks passed, {metric: value})."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", f"{seconds:g}", "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"pairs: perfbench in {tree} exited {proc.returncode} without a result:\n{proc.stderr}")
    return result["correct"], {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="inclusive range A-B, one pair per seed")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    contract = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    gated, seconds = contract["end_to_end"], contract["run_seconds"]

    runs = {"parent": [], "change": []}
    all_correct = True
    for index, seed in enumerate(args.seeds):
        for side in ("parent", "change") if index % 2 == 0 else ("change", "parent"):
            correct, values = run_once(trees[side], args.workload, seed, seconds)
            all_correct &= correct
            runs[side].append(values)
            figures = " ".join(f"{m['name']}={values[m['name']]:.4g}" for m in gated)
            print(f"seed {seed} {side}: {'ok' if correct else 'CHECKS FAILED'} {figures}", file=sys.stderr)

    pairs = len(args.seeds)
    print(f"{args.workload}: {pairs} alternating pairs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"--seconds {seconds:g}; median [q1-q3]")
    for metric in gated:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        before = [r[name] for r in runs["parent"]]
        after = [r[name] for r in runs["change"]]
        (mb, qb1, qb3), (ma, qa1, qa3) = quartiles(before), quartiles(after)
        wins = sum(sign * (a - b) < 0 for a, b in zip(after, before))
        print(f"  {name:20s} {mb:10.4g} [{qb1:.4g}-{qb3:.4g}] -> {ma:10.4g} [{qa1:.4g}-{qa3:.4g}] "
              f"{metric['unit']:9s} {100 * (ma - mb) / mb:+6.1f}%  change better in {wins}/{pairs}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
