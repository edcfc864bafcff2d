"""Cross-algorithm comparison, agreement table, and benchmark gating."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from cliquetrace import (
    ALGORITHMS,
    MODERN_ENUMERATORS,
    DisagreementError,
    bench,
    gnp,
    named,
    oracle_maximal_cliques,
    render_bench,
    render_diff,
    resolve_algorithm,
    run_comparison,
    table1,
)
from cliquetrace.harness import KIND_ENUMERATOR, Algorithm
from cliquetrace.reports import AGREED, SPURIOUS, TRUE_CLIQUE, census_of
from conftest import gnp_corpus, graphs


class TestResolve:
    def test_aliases(self):
        assert resolve_algorithm("bron1973").id == "bk_basic"
        assert resolve_algorithm("eppstein2010").id == "bk_degeneracy"
        assert resolve_algorithm("makino2004").id == "census"
        assert resolve_algorithm("osertgard2001").id == "ostergard2001"
        assert resolve_algorithm("HARARY").id == "harary1957"

    def test_unknown_id_lists_valid_ids(self):
        with pytest.raises(ValueError, match="bk_pivot"):
            resolve_algorithm("kerbosch1973")


class TestRunComparison:
    def test_needs_two_algorithms(self):
        with pytest.raises(ValueError, match="at least 2"):
            run_comparison(named("complete", 3), ["bk_basic"])

    def test_triangle_two_enumerators_one_row(self):
        diff = run_comparison(named("complete", 3), ["bk_basic", "bk_pivot"])
        assert len(diff.rows) == 1
        assert diff.rows[0].classification == AGREED
        assert diff.witnesses == ()

    def test_modern_enumerators_have_zero_witnesses(self):
        for g in gnp_corpus((8, 12, 16), (0.2, 0.5, 0.8), range(2)):
            diff = run_comparison(g, list(MODERN_ENUMERATORS))
            assert diff.witnesses == ()

    def test_maximum_search_appears_as_true_clique_witness(self):
        g = named("path", 3)  # two maximal edges, one maximum
        diff = run_comparison(g, ["bk_pivot", "ostergard2001"])
        classes = {row.clique: row.classification for row in diff.rows}
        assert classes[(0, 1)] == AGREED
        assert classes[(1, 2)] == TRUE_CLIQUE  # absent from the maximum-only column

    def test_oracle_participant_adds_no_new_true_rows(self):
        for g in gnp_corpus((8, 10), (0.5,), range(3)):
            base = run_comparison(g, list(MODERN_ENUMERATORS))
            with_oracle = run_comparison(g, list(MODERN_ENUMERATORS), with_oracle=True)
            truths = lambda d: {
                r.clique for r in d.rows if r.classification != SPURIOUS
            }
            assert truths(base) == truths(with_oracle)
            assert "oracle" in with_oracle.algorithms

    def test_one_oracle_scan_per_comparison(self, monkeypatch):
        from cliquetrace import oracle

        scans = []
        real_scan = oracle._scan

        def counting_scan(g):
            scans.append(g.n)
            return real_scan(g)

        monkeypatch.setattr(oracle, "_scan", counting_scan)
        g = gnp(10, 0.5, 0)  # harary1957 over-reports here, so witnesses exist
        with_oracle = run_comparison(g, ["bk_pivot", "harary1957"], with_oracle=True)
        assert SPURIOUS in {r.classification for r in with_oracle.rows}
        assert scans == [10]
        scans.clear()
        # Without the oracle as a participant, rows are classified by the
        # definition alone: no scan.
        by_definition = run_comparison(g, ["bk_pivot", "harary1957"])
        assert scans == []
        classes = lambda d: [(r.clique, r.classification) for r in d.rows]
        assert classes(by_definition) == classes(with_oracle)


@given(graphs(max_n=12), st.integers(1, 3), st.booleans())
def test_classification_is_oracle_membership(g, min_size, with_oracle):
    """Classifying by the definition gives what membership in the oracle's
    output gives: a row is spurious exactly when the oracle lacks it."""
    diff = run_comparison(
        g, ["bk_pivot", "harary1957", "ostergard2001"], min_size, with_oracle=with_oracle
    )
    truth = set(oracle_maximal_cliques(g, min_size))
    for row in diff.rows:
        assert (row.classification != SPURIOUS) == (row.clique in truth), row


class TestTable1:
    def test_six_cliques_sizes(self):
        diff = table1()
        assert [len(r.clique) for r in diff.rows] == [5, 4, 3, 3, 3, 3]
        assert all(r.classification == AGREED for r in diff.rows)
        assert diff.algorithms == MODERN_ENUMERATORS

    def test_historical_adds_flagged_rows_only_under_harary(self):
        diff = table1(with_historical=True)
        spurious = [r for r in diff.rows if r.classification == SPURIOUS]
        assert spurious
        for row in spurious:
            assert row.present["harary1957"]
            assert not any(row.present[a] for a in MODERN_ENUMERATORS)
        agreed = [r for r in diff.rows if r.classification == AGREED]
        assert [len(r.clique) for r in agreed] == [5, 4, 3, 3, 3, 3]

    def test_render_marks(self):
        text = render_diff(table1(with_historical=True))
        assert "[spurious]" in text
        assert text.count("\nx") == 0  # marks live in columns, not line starts


class TestBench:
    def test_moon_moser_counts(self):
        result = bench("moonmoser:k=5", ["bk_pivot", "bk_degeneracy"], repetitions=1)
        assert all(e.cliques == 243 for e in result.entries)

    def test_counts_stable_across_repetitions(self):
        one = bench("gnp:n=30,p=0.5,seed=1", ["bk_pivot"], repetitions=1)
        three = bench("gnp:n=30,p=0.5,seed=1", ["bk_pivot"], repetitions=3)
        assert one.entries[0].cliques == three.entries[0].cliques

    def test_empty_graph_singletons(self):
        result = bench("empty:n=1000", ["bk_pivot", "bk_degeneracy"], repetitions=1)
        assert all(e.cliques == 1000 for e in result.entries)

    def test_render_is_timing_free_by_default(self):
        result = bench("moonmoser:k=2", ["bk_pivot", "bk_basic"], repetitions=1)
        stable = render_bench(result)
        assert "median_us" not in stable
        assert "median_us" in render_bench(result, with_timing=True)
        assert "counts agree" in stable

    def test_disagreement_aborts_with_dump(self, monkeypatch):
        def broken(g, min_size):
            good = ALGORITHMS["bk_pivot"].run(g, min_size)
            cliques = good.cliques[:-1]
            return replace(good, algorithm="broken", cliques=cliques, census=census_of(cliques))

        monkeypatch.setitem(
            ALGORITHMS, "broken", Algorithm("broken", KIND_ENUMERATOR, broken)
        )
        with pytest.raises(DisagreementError) as err:
            bench("gnp:n=10,p=0.5,seed=2", ["bk_pivot", "broken"], repetitions=1)
        assert "disagree" in str(err.value)
        assert "Id" in err.value.dump

    @pytest.mark.parametrize("timings", [[4], [5, 1, 3], [7, 8], [9, 1, 5, 2]])
    def test_median_matches_statistics_median(self, monkeypatch, timings):
        import statistics

        left = list(timings)

        def clocked(g, min_size):
            good = ALGORITHMS["bk_pivot"].run(g, min_size)
            return replace(good, algorithm="clocked", elapsed_us=left.pop(0))

        monkeypatch.setitem(
            ALGORITHMS, "clocked", Algorithm("clocked", KIND_ENUMERATOR, clocked)
        )
        result = bench("moonmoser:k=2", ["clocked"], repetitions=len(timings))
        assert result.entries[0].median_us == int(statistics.median(timings))

    def test_validates_repetitions(self):
        with pytest.raises(ValueError):
            bench("moonmoser:k=2", ["bk_pivot", "bk_basic"], repetitions=0)
