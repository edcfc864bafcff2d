#!/usr/bin/env python3
"""Paired benchmark runs of two git revisions.

    python scripts/bench.py compare OLD [NEW] [--pairs N] [--seed K]

The workloads, the metrics, their bounds and the run length are read from
BENCHMARK.json.

``compare`` extracts each revision (anything ``git archive`` takes: a
commit, a tag, a tree id; NEW defaults to HEAD) into a temporary directory
and runs ``perfbench/run.py --trace 0`` from it: N pairs per workload, the
two sides taking turns to run first. Each run gets
``PYTHONDONTWRITEBYTECODE=1``, so every CLI child compiles its ``src/`` as
in a fresh checkout. For each workload and end-to-end metric it prints
each side's median and quartiles, the median of the per-pair ratios
NEW / OLD, the pairs NEW won, and a verdict:

* ``unresolved``: OLD's quartile distance exceeds the metric's bound in
  BENCHMARK.json, relative to OLD's median, so no difference can be told,
  unless every NEW run beats every OLD run;
* ``gain``: NEW won at least 9 in 10 of the pairs and its median beats
  OLD's by more than OLD's quartile distance;
* ``loss``: NEW's median is worse than OLD's by more than the bound;
* ``-``: none of these.

Standard library only. Run it from anywhere inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per end-to-end metric of BENCHMARK.json, from (OLD, NEW)
    result objects of ``perfbench/run.py``, one pair per element."""
    rows = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        old = [o["metrics"][name]["value"] for o, _ in pairs]
        new = [n["metrics"][name]["value"] for _, n in pairs]
        old_q, new_q = quartiles(old), quartiles(new)
        ratio = statistics.median(b / a if a else 1.0 for a, b in zip(old, new))
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        spread = old_q[2] - old_q[0]
        gap = (old_q[1] - new_q[1]) if lower else (new_q[1] - old_q[1])
        ahead = max(new) < min(old) if lower else min(new) > max(old)
        if old_q[1] and spread / old_q[1] > spec["bound"] and not ahead:
            verdict = "unresolved"
        elif 10 * wins >= 9 * len(pairs) and gap > spread:
            verdict = "gain"
        elif old_q[1] and -gap / old_q[1] > spec["bound"]:
            verdict = "loss"
        else:
            verdict = "-"
        rows.append({"metric": name, "old": old_q, "new": new_q, "ratio": ratio, "wins": wins, "verdict": verdict})
    return rows


def render(workload: str, pairs: list[tuple[dict, dict]], rows: list[dict]) -> str:
    failed = [sum(side["failed"] for side in sides) for sides in zip(*pairs)]
    lines = [f"{workload}: {len(pairs)} pairs, failed operations old {failed[0]} new {failed[1]}"]
    lines.append(f"  {'metric':12} {'old median [q1, q3]':>30} {'new median [q1, q3]':>30} {'ratio':>7} {'wins':>6}  verdict")
    for row in rows:
        old, new = (f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (row["old"], row["new"]))
        wins = f"{row['wins']}/{len(pairs)}"
        lines.append(f"  {row['metric']:12} {old:>30} {new:>30} {row['ratio']:7.3f} {wins:>6}  {row['verdict']}")
    return "\n".join(lines)


def extract(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(args: argparse.Namespace, spec: dict) -> int:
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as tmp:
        trees = [Path(tmp) / "old", Path(tmp) / "new"]
        for rev, tree in zip((args.old, args.new), trees):
            extract(rev, tree)
        results = {w["name"]: [] for w in spec["workloads"]}
        for i in range(args.pairs):
            for workload in results:
                first = i % 2  # pair 0 runs OLD first, pair 1 NEW first, ...
                pair = [None, None]
                for side in (first, 1 - first):
                    pair[side] = run_once(trees[side], workload, args.seed, spec["run_seconds"])
                results[workload].append(tuple(pair))
                print(f"pair {i + 1}/{args.pairs} {workload} done", file=sys.stderr, flush=True)
    print(f"compare {args.old} -> {args.new}, seed {args.seed}, {spec['run_seconds']} s runs")
    for workload, pairs in results.items():
        print(render(workload, pairs, summarize(pairs, spec["end_to_end"])))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cmp = sub.add_parser("compare", help="paired runs of OLD and NEW on each workload")
    cmp.add_argument("old")
    cmp.add_argument("new", nargs="?", default="HEAD")
    cmp.add_argument("--pairs", type=int, default=10)
    cmp.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
