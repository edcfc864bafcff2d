"""Acceptance suite: one test per criterion, exact tolerances, timed where
a budget is stated. Run with ``pytest tests/test_acceptance.py -v -s`` to see
the one-line PASS report per criterion."""

from __future__ import annotations

import subprocess
import sys
import time

from cliquetrace import (
    bk_basic,
    bk_degeneracy,
    bk_pivot,
    filter_nested,
    gnp,
    harary_ross_reconstruction,
    is_clique,
    is_maximal_clique,
    load_assyrian,
    max_clique_bb,
    moon_moser,
    named,
    oracle_maximal_cliques,
    oracle_maximum_clique,
    random_ktree,
    simplicial_reduction,
    table1,
    write_edge_list,
)
from test_motifs import naive_chains, naive_cycles, naive_stars
from cliquetrace import chain_census, cycle_census, star_census

ENUMERATORS = (bk_basic, bk_pivot, bk_degeneracy)


def _ok(line: str) -> None:
    print(f"PASS: {line}")


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    diff = table1(min_size=3)
    elapsed = time.perf_counter() - start
    sizes = [len(row.clique) for row in diff.rows]
    assert sizes == [5, 4, 3, 3, 3, 3]
    assert len(diff.rows) == 6
    lists = {algo: rep.cliques for algo, rep in diff.reports.items()}
    assert (
        lists["bk_basic"] == lists["bk_pivot"] == lists["bk_degeneracy"] == lists["census"]
    )
    assert all(all(row.present.values()) for row in diff.rows)
    assert elapsed < 1.0
    _ok(
        "criterion 1 (table1 reproduction): 6 cliques, sizes 5,4,3,3,3,3, "
        f"identical across 4 paths, {elapsed:.3f}s < 1s"
    )


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for n in range(4, 13):
        for p in (0.2, 0.5, 0.8):
            for seed in range(8):
                g = gnp(n, p, seed)
                truth = oracle_maximal_cliques(g, 1)
                for enum in ENUMERATORS:
                    assert list(enum(g).cliques) == truth, (n, p, seed, enum.__name__)
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 200
    assert elapsed < 30.0
    _ok(
        f"criterion 2 (oracle equivalence): {checked} graphs x 3 enumerators "
        f"exact, {elapsed:.1f}s < 30s"
    )


def test_criterion_3_moon_moser_counts():
    expected = {2: 9, 3: 27, 4: 81, 5: 243, 6: 729}
    k6_elapsed = None
    for k, count in expected.items():
        g = moon_moser(k)
        start = time.perf_counter()
        for enum in ENUMERATORS:
            assert len(enum(g).cliques) == count, (k, enum.__name__)
        clique, _ = max_clique_bb(g)
        assert len(clique) == k
        if k == 6:
            k6_elapsed = time.perf_counter() - start
    assert k6_elapsed is not None and k6_elapsed < 5.0
    _ok(
        "criterion 3 (moon-moser counts): 9/27/81/243/729 cliques, "
        f"max sizes 2..6, k=6 in {k6_elapsed:.2f}s < 5s"
    )


def test_criterion_4_maximum_clique_agreement():
    checked = 0
    for n in (5, 8, 11, 14, 17, 20):
        for p in (0.2, 0.5, 0.8):
            for seed in range(12):
                g = gnp(n, p, seed)
                clique, _ = max_clique_bb(g)
                assert len(clique) == len(oracle_maximum_clique(g)), (n, p, seed)
                checked += 1
    assert checked >= 200
    larger = 0
    for n, p, seeds in ((30, 0.2, 2), (30, 0.5, 2), (30, 0.8, 2),
                        (45, 0.2, 2), (45, 0.5, 2), (45, 0.8, 1),
                        (60, 0.2, 2), (60, 0.5, 2), (60, 0.8, 1)):
        for seed in range(seeds):
            g = gnp(n, p, seed)
            clique, _ = max_clique_bb(g)
            assert len(clique) == max(bk_pivot(g).census), (n, p, seed)
            larger += 1
    _ok(
        f"criterion 4 (maximum-clique agreement): {checked} graphs vs oracle, "
        f"{larger} graphs up to n=60 vs census key, exact"
    )


def test_criterion_5_chordal_peel_completeness():
    checked = 0
    for n in (5, 10, 20, 40):
        for k in (1, 2, 3, 4):
            if n <= k:
                continue
            for seed in range(4):
                g = random_ktree(n, k, seed)
                red = simplicial_reduction(g)
                assert red.residual.n == 0, (n, k, seed)
                assert len(red.removed) == g.n
                peeled = filter_nested(red.recorded)
                for enum in ENUMERATORS:
                    assert list(enum(g).cliques) == peeled, (enum.__name__, n, k, seed)
                checked += 1
    assert checked >= 50
    _ok(f"criterion 5 (chordal peel completeness): {checked} k-trees, exact")


def test_criterion_6_historical_flaw_demonstration():
    # Chordal inputs: non-spurious output equals ground truth at size >= 3.
    chordal_checked = 0
    for n in (5, 8, 11, 14):
        for k in (1, 2, 3, 4):
            if n <= k:
                continue
            for seed in range(4):
                g = random_ktree(n, k, seed)
                hist = harary_ross_reconstruction(g)
                assert list(hist.true_cliques) == oracle_maximal_cliques(g, 3)
                chordal_checked += 1
    assert chordal_checked >= 50

    # Every corpus graph: emitted sets classify exactly, zero mistakes.
    corpus = [gnp(n, p, seed) for n in range(4, 13) for p in (0.2, 0.5, 0.8) for seed in range(3)]
    corpus += [load_assyrian(), named("cycle", 6), named("star", 4), named("complete", 5)]
    misclassified = 0
    for g in corpus:
        hist = harary_ross_reconstruction(g)
        bad = set(hist.spurious)
        for c in hist.cliques:
            genuine = is_clique(g, c) and is_maximal_clique(g, c)
            if genuine == (c in bad):
                misclassified += 1
        if g.n <= 25:
            truth = set(oracle_maximal_cliques(g, 3))
            assert set(hist.true_cliques) <= truth
    assert misclassified == 0
    _ok(
        f"criterion 6 (historical flaw demonstration): {chordal_checked} chordal "
        f"graphs exact, {len(corpus)} corpus graphs, 0 misclassifications"
    )


def test_criterion_7_motif_correctness():
    assert cycle_census(named("cycle", 6), 6) == {6: 1}
    assert cycle_census(named("complete", 4), 4) == {3: 4, 4: 3}
    checked = 0
    for n in (4, 5, 6, 7, 8):
        for p in (0.2, 0.5, 0.8):
            for seed in range(7):
                g = gnp(n, p, seed)
                assert cycle_census(g, 6) == naive_cycles(g, 6), (n, p, seed)
                assert chain_census(g, 5) == naive_chains(g, 5), (n, p, seed)
                assert star_census(g, 5) == naive_stars(g, 5), (n, p, seed)
                checked += 1
    assert checked >= 100
    _ok(f"criterion 7 (motif correctness): {checked} graphs vs naive recount, exact")


def _run_cli(args: list[str]) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "cliquetrace", *args],
        capture_output=True,
        check=True,
    )
    return proc.stdout


def test_criterion_8_determinism(tmp_path):
    trade = tmp_path / "trade.edges"
    trade.write_text(write_edge_list(load_assyrian()), encoding="utf-8")
    commands = [
        ["table1"],
        ["table1", "--with-historical"],
        ["table1", "--json"],
        ["diff", "--input", str(trade), "--algos",
         "bk_basic,bk_pivot,bk_degeneracy,census,harary1957", "--min-size", "3"],
        ["diff", "--input", str(trade), "--algos", "bk_pivot,census", "--json"],
        ["bench", "--gen", "gnp:n=30,p=0.5,seed=1", "--algos",
         "bk_pivot,bk_degeneracy,census,ostergard2001", "--reps", "2"],
        ["bench", "--gen", "moonmoser:k=4", "--algos", "bk_basic,bk_pivot", "--reps", "1"],
    ]
    for cmd in commands:
        first = _run_cli(cmd)
        second = _run_cli(cmd)
        assert first == second, f"non-deterministic output for {cmd}"
        assert first  # every command produces output
    _ok(
        f"criterion 8 (determinism): {len(commands)} diff/table1/bench commands "
        "byte-identical across consecutive runs"
    )
