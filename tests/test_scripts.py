"""The scripts under ``scripts/`` run against this checkout's package."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

import pytest
from conftest import SRC

SCRIPTS = SRC.parent / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``scripts/<name>`` in a fresh interpreter that imports this checkout's package."""
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_flaw_hunt_defaults_are_pinned():
    proc = run_script("flaw_hunt.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "n=12 p=0.2: 100 graphs | spurious in 8 | residual fallback in 2 | true cliques missed in 2",
        "n=12 p=0.4: 100 graphs | spurious in 94 | residual fallback in 80 | true cliques missed in 80",
        "n=12 p=0.6: 100 graphs | spurious in 100 | residual fallback in 100 | true cliques missed in 100",
        "n=12 p=0.8: 100 graphs | spurious in 100 | residual fallback in 100 | true cliques missed in 100",
    ]


def test_bench_moon_moser_counts_agree():
    proc = run_script("bench_moon_moser.py", "--kmax", "3", "--reps", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("counts agree across enumerators")


def test_agreement_experiment_finds_the_six_trade_cliques():
    proc = run_script("agreement_experiment.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("cliques=6") == 2


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_replaces_text_found_exactly_once():
    corpus = _load("mutants").CORPUS
    assert len({m.name for m in corpus}) == len(corpus)
    for mutant in corpus:
        assert (SRC.parent / mutant.file).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name


def test_a_leaf_that_ignores_x_is_killed():
    module = _load("mutants")
    (leaf,) = [m for m in module.CORPUS if m.name == "leaf-ignores-x"]
    assert module.run(leaf) == "killed"


def _result(**values: float) -> dict:
    """One ``perfbench/run.py`` result object holding the given metrics."""
    return {"failed": 0, "metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()}}


def test_bench_compare_summarizes_canned_pairs():
    """Five metrics over ten pairs; no benchmark runs. ``wide`` is as noisy
    as ``noisy`` but every NEW run beats every OLD one, so it resolves."""
    bench = _load("bench")
    metrics = [{"name": name, "better": "lower", "bound": 0.25} for name in ("fast", "noisy", "slow", "same", "wide")]
    olds = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    pairs = [
        (
            _result(fast=old, noisy=(0.5, 1.5)[i % 2], slow=old, same=old, wide=(0.7, 1.3)[i % 2]),
            _result(fast=0.9 * old, noisy=1.0, slow=1.5 * old, same=(1.01, 0.99)[i % 2] * old, wide=0.3),
        )
        for i, old in enumerate(olds)
    ]
    rows = {row["metric"]: row for row in bench.summarize(pairs, metrics)}
    assert {name: row["verdict"] for name, row in rows.items()} == {
        "fast": "gain", "noisy": "unresolved", "slow": "loss", "same": "-", "wide": "gain"
    }
    assert rows["fast"]["wins"] == 10 and rows["slow"]["wins"] == 0 and rows["same"]["wins"] == 5
    assert rows["fast"]["old"][1] == 1.0
    assert abs(rows["fast"]["ratio"] - 0.9) < 1e-12
    text = bench.render("verify", pairs, list(rows.values())).splitlines()
    assert text[0] == "verify: 10 pairs, failed operations old 0 new 0"
    assert text[2].split()[-3:] == ["0.900", "10/10", "gain"]
    assert text[3].split()[-1] == "unresolved"


def test_bench_record_refuses_a_revision_that_is_not_a_commit():
    """A tree id names no commit that another clone has; no benchmark runs."""
    before = sorted(SRC.parent.glob("BENCH_*.json"))
    proc = run_script("bench.py", "record", "HEAD^{tree}")
    assert proc.returncode == 1
    assert "HEAD^{tree} is not a commit; nothing written" in proc.stderr
    assert sorted(SRC.parent.glob("BENCH_*.json")) == before


def test_bench_record_takes_integral_counters_as_ints_and_refuses_the_rest():
    """Canned counters; no benchmark runs. A median over two traced passes
    that disagree is fractional, and is refused, not rounded. A whole
    median does not prove the passes agreed."""
    integral = _load("bench").integral
    counters = integral({"b.expansions": 16102.0, "a.cliques": 15173})
    assert counters == {"a.cliques": 15173, "b.expansions": 16102}
    assert type(integral({"x": 3.0})["x"]) is int
    for value in (16102.5, float("nan"), float("inf"), "16102", None):
        with pytest.raises(ValueError, match="b.expansions="):
            integral({"a.cliques": 1, "b.expansions": value})
