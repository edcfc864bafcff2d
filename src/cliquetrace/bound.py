"""Exact maximum clique via vertex-ordered branch and bound.

The search processes vertices v_1..v_n (degeneracy order) from the back:
round i finds the largest clique containing v_i inside the suffix
{v_i, ..., v_n}, reusing the bound table c[i] = clique number of the suffix
subgraph. A branch is cut when |current| + c[i] or |current| + |candidates|
cannot beat the incumbent, and a round stops as soon as it improves the
incumbent by one (the suffix clique number can only grow by one per round,
so that improvement is already optimal for the round).

The returned clique is the lexicographically smallest maximum clique,
selected by a final greedy pass with decision searches, so results are
stable golden-test material.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumerators import _ensure_stack, degeneracy_ordering
from .graph import Clique, Graph, bits, mask_of
from .reports import CliqueReport, SearchResult, timed_report


@dataclass(frozen=True)
class BoundTable:
    """c[i] = maximum clique size within {order[i], ..., order[n-1]}."""

    order: tuple[int, ...]
    c: tuple[int, ...]


@dataclass
class SearchStats:
    """Branch-and-bound counters plus the bound table of the run."""

    expansions: int = 0
    prunes: int = 0
    bound_table: BoundTable | None = None


class _Search:
    def __init__(self, g: Graph, prune: bool):
        self.adj = g.adj
        self.prune = prune
        self.best = 0
        self.found = False
        self.stats = SearchStats()
        self.pos: dict[int, int] = {}
        self.c: list[int] = []

    def run(self, order: tuple[int, ...]) -> int:
        n = len(order)
        self.pos = {v: i for i, v in enumerate(order)}
        self.c = [0] * n
        suffix = 0
        for i in range(n - 1, -1, -1):
            v = order[i]
            self.found = False
            self.search(self.adj[v] & suffix, 1)
            self.c[i] = self.best
            if i < n - 1:
                assert self.c[i + 1] <= self.c[i] <= self.c[i + 1] + 1
            suffix |= 1 << v
        return self.best

    def search(self, candidates: int, size: int) -> None:
        self.stats.expansions += 1
        if candidates == 0:
            if size > self.best:
                self.best = size
                self.found = True
            return
        while candidates:
            if self.prune and size + candidates.bit_count() <= self.best:
                self.stats.prunes += 1
                return
            v = min(bits(candidates), key=self.pos.__getitem__)
            if self.prune and size + self.c[self.pos[v]] <= self.best:
                self.stats.prunes += 1
                return
            candidates ^= 1 << v
            self.search(candidates & self.adj[v], size + 1)
            if self.prune and self.found:
                return


def _color_bound(adj: tuple[int, ...], mask: int) -> int:
    """Greedy sequential coloring; the class count bounds the clique size."""
    colors = 0
    while mask:
        colors += 1
        avail = mask
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            mask ^= low
            avail = (avail ^ low) & ~adj[v]
    return colors


def _exists_clique(adj: tuple[int, ...], candidates: int, k: int) -> bool:
    """Decision search: is there a clique of size k inside ``candidates``?"""
    if k <= 0:
        return True
    if candidates.bit_count() < k or _color_bound(adj, candidates) < k:
        return False
    while candidates:
        if candidates.bit_count() < k:
            return False
        low = candidates & -candidates
        v = low.bit_length() - 1
        candidates ^= low
        if _exists_clique(adj, candidates & adj[v], k - 1):
            return True
    return False


def _lex_min_maximum_clique(g: Graph, omega: int) -> Clique:
    """Greedy completion: smallest feasible vertex at every slot."""
    chosen: list[int] = []
    pool = g.vertex_mask()
    need = omega
    while need:
        for v in bits(pool):
            rest = pool & g.adj[v] & ~((1 << (v + 1)) - 1)
            if _exists_clique(g.adj, rest, need - 1):
                chosen.append(v)
                pool = rest
                need -= 1
                break
        else:  # pragma: no cover - omega certifies feasibility
            raise AssertionError("no completion for certified clique size")
    return tuple(chosen)


def max_clique_bb(g: Graph, prune: bool = True) -> tuple[Clique, SearchStats]:
    """A maximum clique plus search statistics.

    ``prune=False`` disables every cut (bound table, candidate count, and
    round short-circuit) for pruning-effectiveness comparisons; the result
    is unchanged.
    """
    _ensure_stack(g.n)
    order = degeneracy_ordering(g).order
    engine = _Search(g, prune)
    omega = engine.run(order)
    engine.stats.bound_table = BoundTable(order=order, c=tuple(engine.c))
    if omega == 0:
        return (), engine.stats
    return _lex_min_maximum_clique(g, omega), engine.stats


def _maximum(g: Graph) -> SearchResult:
    clique, _ = max_clique_bb(g)
    return [mask_of(g, clique)], ()  # the empty clique's mask 0 never passes min_size


def max_clique_report(g: Graph, min_size: int = 1) -> CliqueReport:
    """Adapter: package the maximum clique as a one-row CliqueReport."""
    return timed_report("ostergard2001", g, min_size, _maximum)
