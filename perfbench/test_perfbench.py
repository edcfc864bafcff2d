"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench

Each workload runs for one second per trace mode (at least one pass each
way), so the module takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
from cliquetrace import bk_degeneracy, bk_pivot, moon_moser  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 5


def _run(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_workload_names_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(suite.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_end_to_end_metrics_emitted(workload):
    result = json.loads(_run(workload, 0)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_layer_metrics_emitted_and_counters_repeat(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    result = json.loads(first[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    counters = json.loads(first[-2])["counters"]
    assert counters == json.loads(second[-2])["counters"]
    assert counters == {k: result["metrics"][k]["value"] for k in suite.DETERMINISTIC_COUNTERS}


def _corrupted(g, min_size=1):
    rep = bk_degeneracy(g, min_size)
    return replace(rep, cliques=rep.cliques[1:] + rep.cliques[-1:])


def _raising(g, min_size=1):
    raise RuntimeError("deliberate")


@pytest.mark.parametrize("enumerator", [_corrupted, _raising])
def test_wrong_or_raising_enumerator_counts_as_failure(enumerator, tmp_path, monkeypatch):
    monkeypatch.setattr(suite, "ENUMERATORS", (suite.ENUMERATORS[0], ("bk_degeneracy", enumerator, "enum_degen_s")))
    tally = suite.Tally()
    inputs = suite.build_inputs("verify", SEED, tmp_path, tally, suite.NoTrace())
    assert tally.failed == 0
    phases = suite.run_pass(inputs, tally, suite.NoTrace())
    assert set(phases) == {m["name"] for m in SPEC["end_to_end"]} - {"setup_s", "peak_rss_mb"}
    assert tally.failed == len(inputs.graphs)


def test_checks_reject_corrupted_outputs():
    g = moon_moser(3)
    good = bk_pivot(g)
    bad = replace(good, cliques=good.cliques[:-1] + ((0, 3),))
    assert checks.check_agreement(good, good) == [] and checks.check_shape(good, (27, 3)) == []
    assert checks.check_agreement(good, bad) and checks.check_shape(bad, (27, 3))
    assert checks.check_max_clique(g, (0, 3, 6), 3) == []
    assert checks.check_max_clique(g, (0, 1, 6), 3) and checks.check_max_clique(g, (0, 3), 3)
    assert checks.check_trade_sizes([(0, 1, 2, 3, 4)]) != []
