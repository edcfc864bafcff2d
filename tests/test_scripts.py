"""The scripts under ``scripts/`` run against this checkout's package."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

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


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_replaces_text_found_exactly_once():
    corpus = _mutants().CORPUS
    assert len({m.name for m in corpus}) == len(corpus)
    for mutant in corpus:
        assert (SRC.parent / mutant.file).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name


def test_a_leaf_that_ignores_x_is_killed():
    module = _mutants()
    (leaf,) = [m for m in module.CORPUS if m.name == "leaf-ignores-x"]
    assert module.run(leaf) == "killed"
