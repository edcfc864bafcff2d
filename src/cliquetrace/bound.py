"""Exact maximum clique via vertex-ordered branch and bound.

The graph is renumbered once into degeneracy order (as in Östergård's
Cliquer), so vertex i is order[i]. Round i, for i = n-1 down to 0, finds the
largest clique containing i among its neighbors above bit i, always
branching on the lowest set bit, and records c[i] = clique number of the
suffix {i, ..., n-1}. A branch is cut when |current| + c[v] or
|current| + |candidates| cannot beat the incumbent, and a round stops as
soon as it improves the incumbent by one (the suffix clique number can only
grow by one per round, so that improvement is already optimal for the
round). The searches run on explicit stacks, never Python recursion.

The returned clique is the lexicographically smallest maximum clique,
selected by a final greedy pass with decision searches, so results are
stable golden-test material.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumerators import degeneracy_ordering
from .graph import Clique, Graph, _relabel, bits, mask_of
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


def _suffix_bounds(adj: tuple[int, ...], prune: bool, stats: SearchStats) -> list[int]:
    """Bound table c of a renumbered graph: rounds over [candidates, size] frames."""
    n = len(adj)
    c = [0] * n
    best = min(n, 1)  # the last round's root is a leaf: vertex n-1 alone
    for i in range(n - 1, -1, -1):
        stats.expansions += 1
        stack = [[adj[i] >> (i + 1) << (i + 1), 1]]
        while stack:
            frame = stack[-1]
            candidates, size = frame
            if candidates == 0:
                stack.pop()
                continue
            low = candidates & -candidates
            v = low.bit_length() - 1
            if prune and (size + candidates.bit_count() <= best or size + c[v] <= best):
                stats.prunes += 1
                stack.pop()
                continue
            frame[0] = candidates = candidates ^ low
            stats.expansions += 1
            child = candidates & adj[v]
            if child:
                stack.append([child, size + 1])
            elif size + 1 > best:
                best = size + 1
                if prune:
                    break
        c[i] = best
        if i < n - 1:
            assert c[i + 1] <= c[i] <= c[i + 1] + 1
    return c


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
    stack: list[tuple[int, int]] = []  # the current frame's ancestors
    while True:
        if candidates.bit_count() < k:
            if not stack:
                return False
            candidates, k = stack.pop()
            continue
        low = candidates & -candidates
        candidates ^= low
        if k == 1:
            return True
        child = candidates & adj[low.bit_length() - 1]
        if child.bit_count() >= k - 1 and _color_bound(adj, child) >= k - 1:
            stack.append((candidates, k))
            candidates, k = child, k - 1


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
    order = degeneracy_ordering(g).order
    stats = SearchStats()
    c = _suffix_bounds(_relabel(g.adj, order), prune, stats)
    stats.bound_table = BoundTable(order=order, c=tuple(c))
    if not c:
        return (), stats
    return _lex_min_maximum_clique(g, c[0]), stats


def _maximum(g: Graph) -> SearchResult:
    clique, _ = max_clique_bb(g)
    return [mask_of(g, clique)], ()  # the empty clique's mask 0 never passes min_size


def max_clique_report(g: Graph, min_size: int = 1) -> CliqueReport:
    """Adapter: package the maximum clique as a one-row CliqueReport."""
    return timed_report("ostergard2001", g, min_size, _maximum)
