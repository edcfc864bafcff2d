"""Report containers produced by the algorithms and consumed by the harness,
and ``timed_report``, the one path that builds a CliqueReport."""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .graph import Clique, Graph, sort_canonical

# Report-level flags.
FLAG_SPURIOUS_PRESENT = "SPURIOUS_PRESENT"
FLAG_RESIDUAL_FALLBACK = "RESIDUAL_FALLBACK"
FLAG_CENSUS_PATH = "CENSUS_PATH"


@dataclass(frozen=True)
class CliqueReport:
    """One algorithm run: canonical clique list, census, timing, flags."""

    algorithm: str
    n: int
    m: int
    cliques: tuple[Clique, ...]
    census: dict[int, int]
    elapsed_us: int = 0
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        total = sum(self.census.values())
        if total != len(self.cliques):
            raise ValueError(
                f"census counts {total} cliques, the report holds {len(self.cliques)}"
            )


def census_of(cliques: Sequence[Clique]) -> dict[int, int]:
    """Histogram of clique sizes, keyed by size in descending order.

    ``cliques`` must be in canonical order (``sort_canonical``): grouped by
    size, largest first. Each size's count is read at the end of its group,
    found by one bisect per distinct size.
    """
    census: dict[int, int] = {}
    start = 0
    while start < len(cliques):
        size = len(cliques[start])
        end = bisect_right(cliques, -size, start, key=lambda c: -len(c))
        census[size] = end - start
        start = end
    return census


# What a search returns: cliques as increasing vertex tuples (duplicates
# allowed), an iterable read once inside the timed window, and report flags.
SearchResult = tuple[Iterable[Clique], Sequence[str]]


def timed_report(
    algorithm: str, g: Graph, min_size: int, search: Callable[[Graph], SearchResult]
) -> CliqueReport:
    """Time ``search(g)`` and the read of its tuples, keeping those of at
    least ``min_size`` vertices; then sort them canonically starting from
    the order the search gave them, drop repeats (adjacent after the sort)
    and take the census."""
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    start = time.perf_counter_ns()
    cliques, flags = search(g)
    kept = [c for c in cliques if len(c) >= min_size]
    elapsed_us = (time.perf_counter_ns() - start) // 1000
    canon = tuple(sort_canonical(kept))
    return CliqueReport(
        algorithm=algorithm,
        n=g.n,
        m=g.m,
        cliques=canon,
        census=census_of(canon),
        elapsed_us=elapsed_us,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class MotifCensus:
    """Counts of simple cycles, chains (paths), and induced stars by size."""

    n: int
    m: int
    cycles: dict[int, int] = field(default_factory=dict)
    chains: dict[int, int] = field(default_factory=dict)
    stars: dict[int, int] = field(default_factory=dict)


# Witness classifications in a cross-algorithm comparison.
AGREED = "agreed"
TRUE_CLIQUE = "true-clique"
SPURIOUS = "spurious"


@dataclass(frozen=True)
class DiffRow:
    """One canonical clique row of the agreement matrix."""

    clique: Clique
    present: dict[str, bool]
    classification: str


@dataclass(frozen=True)
class DiffReport:
    """Cross-algorithm agreement: per-algorithm reports and the presence
    matrix, one classified row per clique."""

    n: int
    m: int
    min_size: int
    algorithms: tuple[str, ...]
    reports: dict[str, CliqueReport]
    rows: tuple[DiffRow, ...]

    @property
    def witnesses(self) -> tuple[Clique, ...]:
        """The disagreement witnesses: every row some output lacks, in row order."""
        return tuple(r.clique for r in self.rows if r.classification != AGREED)
