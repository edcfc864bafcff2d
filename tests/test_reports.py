"""``timed_report``: what it makes of the tuples a search yields or returns."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from cliquetrace import ALGORITHMS, bk_degeneracy, bk_pivot, from_edges, named
from cliquetrace import reports
from cliquetrace.graph import sort_canonical
from cliquetrace.reports import CliqueReport, census_of, timed_report


def _stub(cliques, flags=()):
    """A search that hands back fixed tuples and flags, whatever the graph."""
    return lambda g: (cliques, flags)


def test_duplicate_tuples_collapse_to_one_row():
    rep = timed_report("stub", named("complete", 3), 1, _stub([(0, 1, 2), (0, 1, 2), (0, 1, 2)]))
    assert rep.cliques == ((0, 1, 2),)
    assert rep.census == {3: 1}


@pytest.mark.parametrize(
    "min_size,rows",
    [(1, ((0, 1, 2), (1, 3), (4,))), (2, ((0, 1, 2), (1, 3))), (3, ((0, 1, 2),)), (4, ())],
)
def test_empty_and_short_tuples_are_dropped(min_size, rows):
    search = _stub([(4,), (), (1, 3), (0, 1, 2), ()])
    assert timed_report("stub", named("empty", 5), min_size, search).cliques == rows


def test_census_comes_from_tuple_lengths():
    search = _stub([(5,), (0, 1), (2, 3), (0, 1), (0, 2, 4, 6)], ("FLAG",))
    rep = timed_report("stub", named("empty", 7), 1, search)
    assert rep.cliques == ((0, 2, 4, 6), (0, 1), (2, 3), (5,))
    assert rep.census == {4: 1, 2: 2, 1: 1}
    assert rep.flags == ("FLAG",)
    assert list(rep.census) == [4, 2, 1]


def test_elapsed_us_covers_reading_the_search(monkeypatch):
    """A lazy search runs while timed_report reads it: each of its three
    yields advances the clock by a millisecond, inside the timed window."""
    clock = [0]
    monkeypatch.setattr(reports.time, "perf_counter_ns", lambda: clock[0])

    def lazy(g):
        def rows():
            for row in [(0,), (1,), (2,)]:
                clock[0] += 1_000_000
                yield row

        return rows(), ()

    rep = timed_report("stub", named("empty", 3), 1, lazy)
    assert (rep.cliques, rep.elapsed_us) == (((0,), (1,), (2,)), 3000)


def test_report_whose_census_disagrees_with_its_rows_is_refused():
    with pytest.raises(ValueError, match="census counts 3 cliques, the report holds 2"):
        CliqueReport("stub", 3, 0, cliques=((0,), (1,)), census={1: 3})


def test_sort_canonical_keeps_the_list_when_no_row_repeats():
    rows = [(2,), (0, 1), (3,)]
    assert sort_canonical(rows) is rows == [(0, 1), (2,), (3,)]
    repeated = [(2,), (0, 1), (2,)]
    assert sort_canonical(repeated) == [(0, 1), (2,)]


@pytest.mark.parametrize(
    "run",
    [bk_pivot, bk_degeneracy, pytest.param(ALGORITHMS["ostergard2001"].run, id="ostergard2001")],
    ids=lambda f: f.__name__,
)
def test_empty_graph_gives_no_rows(run):
    rep = run(from_edges(0, []), 1)
    assert (rep.n, rep.cliques, rep.census) == (0, (), {})


@st.composite
def search_rows(draw):
    """Increasing tuples, ``()`` among them, repeated and in any order."""
    pool = draw(
        st.lists(
            st.lists(st.integers(0, 7), max_size=5, unique=True).map(lambda c: tuple(sorted(c))),
            min_size=1,
            max_size=10,
        )
    )
    return draw(st.lists(st.sampled_from(pool), max_size=40))


@given(search_rows(), st.integers(1, 6))
def test_report_equals_the_set_based_reference(rows, min_size):
    rep = timed_report("stub", named("empty", 8), min_size, _stub(rows))
    expected = sort_canonical([*{c for c in rows if len(c) >= min_size}])
    assert list(rep.cliques) == expected
    assert rep.census == census_of(expected)


@given(search_rows())
def test_census_of_canonical_rows_equals_a_size_count(rows):
    canon = sort_canonical(rows)
    expected = sorted(Counter(map(len, canon)).items(), reverse=True)
    assert list(census_of(canon).items()) == expected
