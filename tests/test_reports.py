"""``timed_report``: what it makes of the tuples a search hands it."""

from __future__ import annotations

import pytest

from cliquetrace import bk_degeneracy, bk_pivot, from_edges, named
from cliquetrace.bound import max_clique_report
from cliquetrace.reports import timed_report


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


@pytest.mark.parametrize("run", [bk_pivot, bk_degeneracy, max_clique_report], ids=lambda f: f.__name__)
def test_empty_graph_gives_no_rows(run):
    rep = run(from_edges(0, []))
    assert (rep.n, rep.cliques, rep.census) == (0, (), {})
