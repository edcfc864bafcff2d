"""The subset-scan oracle against hand-derived and predicate-checked truth."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

from cliquetrace import (
    GuardError,
    bk_pivot,
    gnp,
    is_maximal_clique,
    max_clique_bb,
    moon_moser,
    named,
    oracle_maximal_cliques,
    oracle_maximum_clique,
)
from conftest import graphs


def test_triangle():
    assert oracle_maximal_cliques(named("complete", 3)) == [(0, 1, 2)]


def test_c5_edges_are_maximal():
    c5 = named("cycle", 5)
    assert oracle_maximal_cliques(c5, 1) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert oracle_maximal_cliques(c5, 3) == []


def test_moon_moser_k2_has_nine_pairs():
    out = oracle_maximal_cliques(moon_moser(2), 1)
    assert len(out) == 9
    assert all(len(c) == 2 for c in out)


def test_moon_moser_k3_count():
    assert len(oracle_maximal_cliques(moon_moser(3), 1)) == 27


def test_maximum_on_empty_graph_breaks_ties_low():
    assert oracle_maximum_clique(named("empty", 4)) == (0,)


def test_maximum_triangle():
    assert oracle_maximum_clique(named("complete", 3)) == (0, 1, 2)


def test_maximum_moon_moser_k3_lexicographic():
    assert oracle_maximum_clique(moon_moser(3)) == (0, 3, 6)


def test_guard_refusal_names_the_guard():
    g = named("empty", 26)
    with pytest.raises(GuardError, match="25"):
        oracle_maximal_cliques(g)
    with pytest.raises(GuardError, match="25"):
        oracle_maximum_clique(g)


def test_min_size_validation():
    with pytest.raises(ValueError):
        oracle_maximal_cliques(named("empty", 2), 0)


@given(graphs(max_n=8))
def test_outputs_pass_predicates_and_are_non_nested(g):
    out = oracle_maximal_cliques(g, 1)
    sets = [set(c) for c in out]
    for i, s in enumerate(sets):
        assert is_maximal_clique(g, s)
        for j, t in enumerate(sets):
            if i != j:
                assert not s <= t
    if g.n:
        assert len(oracle_maximum_clique(g)) == max(len(c) for c in out)


@given(graphs(max_n=7))
def test_complete_against_direct_subset_check(g):
    """Re-derive the answer with an independent pure-python subset walk."""
    expected = []
    for mask in range(1 << g.n):
        members = [v for v in range(g.n) if mask >> v & 1]
        if members and is_maximal_clique(g, members):
            expected.append(tuple(members))
    expected.sort(key=lambda c: (-len(c), c))
    assert oracle_maximal_cliques(g, 1) == expected


@pytest.mark.parametrize("n,p,seed", [(21, 0.5, 1), (23, 0.3, 2), (25, 0.5, 1)])
def test_multi_chunk_scan_matches_the_searches(n, p, seed):
    """Above n = 20 the scan runs in several chunks of 2**20 subsets."""
    g = gnp(n, p, seed)
    assert oracle_maximal_cliques(g) == list(bk_pivot(g).cliques)
    assert oracle_maximum_clique(g) == max_clique_bb(g)[0]


def test_oracle_runs_without_numpy():
    """The package, the oracle and the harness import and run with numpy blocked."""
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from cliquetrace import moon_moser, oracle_maximum_clique, run_comparison\n"
        "g = moon_moser(4)\n"
        "assert oracle_maximum_clique(g) == (0, 3, 6, 9)\n"
        "diff = run_comparison(g, ['bk_pivot', 'harary1957'], with_oracle=True)\n"
        "assert 'oracle' in diff.algorithms\n"
        "assert sys.modules.get('numpy') is None\n"
        "print('ok')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "ok\n"
