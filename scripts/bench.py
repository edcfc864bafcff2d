#!/usr/bin/env python3
"""Benchmark records of one git revision and paired runs of two.

    python scripts/bench.py record [REV]
    python scripts/bench.py compare OLD [NEW] [--pairs N] [--seed K]

The workloads, the metrics, their bounds and the run length are read from
BENCHMARK.json. Both commands default to HEAD for a revision and extract
it into a temporary directory to run ``perfbench/run.py`` from there, with
``PYTHONDONTWRITEBYTECODE=1``, so every CLI child compiles its ``src/`` as
in a fresh checkout.

``record`` takes a commit only, so that its file names a revision every
clone has. It runs each workload once untraced and once traced at seed 1,
so that all BENCH files can be compared, and writes ``BENCH_<short
rev>.json`` at the root of the checkout: the commit, the Python version,
the seed, the run length, the four result objects and the deterministic
counters of each workload as ints. It refuses, writing nothing, when a
counter's value is not integral. ``run.py`` takes each counter as a median
over traced passes, so a fractional value means two passes disagreed; a
whole number does not prove they agreed, as a median of an odd number of
passes, or of two that differ by an even amount, is whole too.

``compare`` takes anything ``git archive`` takes (a commit, a tag, a tree
id such as ``git write-tree`` prints for uncommitted work) and a seed. It
runs ``perfbench/run.py --trace 0`` N pairs per workload, the two sides
taking turns to run first. For each workload and end-to-end metric it
prints each side's median and quartiles, the median of the
per-pair ratios NEW / OLD, the pairs NEW won, and a verdict:

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
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD_SEED = 1


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


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> list[dict]:
    """The JSON lines of one run: with ``trace`` 1 the counters, then the result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.strip().splitlines()[-1 - trace:]]


def integral(counters: dict) -> dict[str, int]:
    """``counters`` with each value as an int; ValueError naming every
    counter whose value is not an integral number. Catches only some
    traced passes that disagree: see the module docstring."""
    bad = sorted(k for k, v in counters.items() if not (type(v) is int or (type(v) is float and v.is_integer())))
    if bad:
        raise ValueError("counters not integral: " + ", ".join(f"{k}={counters[k]!r}" for k in bad))
    return {k: int(v) for k, v in sorted(counters.items())}


def record(args: argparse.Namespace, spec: dict) -> int:
    revision = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", args.rev + "^{commit}"],
        capture_output=True, text=True,
    ).stdout.strip()
    if not revision:
        print(f"bench record: {args.rev} is not a commit; nothing written", file=sys.stderr)
        return 1
    bench = {
        "revision": revision,
        "python": platform.python_version(),
        "seed": RECORD_SEED,
        "run_seconds": spec["run_seconds"],
        "results": {},
        "counters": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        tree = Path(tmp) / "tree"
        extract(revision, tree)
        for workload in (w["name"] for w in spec["workloads"]):
            (untraced,) = run_once(tree, workload, RECORD_SEED, spec["run_seconds"])
            counters, traced = run_once(tree, workload, RECORD_SEED, spec["run_seconds"], trace=1)
            try:
                bench["counters"][workload] = integral(counters["counters"])
            except ValueError as exc:
                print(f"bench record: {workload}: {exc}; nothing written", file=sys.stderr)
                return 1
            bench["results"][workload] = {"untraced": untraced, "traced": traced}
            print(f"{workload} done", file=sys.stderr, flush=True)
    path = ROOT / f"BENCH_{revision[:7]}.json"
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(path.name)
    return 0


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
                    pair[side] = run_once(trees[side], workload, args.seed, spec["run_seconds"])[-1]
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
    rec = sub.add_parser("record", help="one untraced and one traced run of REV per workload")
    rec.add_argument("rev", nargs="?", default="HEAD")
    cmp = sub.add_parser("compare", help="paired runs of OLD and NEW on each workload")
    cmp.add_argument("old")
    cmp.add_argument("new", nargs="?", default="HEAD")
    cmp.add_argument("--pairs", type=int, default=10)
    cmp.add_argument("--seed", type=int, default=RECORD_SEED)
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args, spec)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
