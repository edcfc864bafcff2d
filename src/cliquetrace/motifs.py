"""Census of non-clique motifs: simple cycles, chains (paths), induced stars.

Counting conventions, fixed here once:

* cycles are simple, counted once per vertex cycle (rotations and the two
  traversal directions identified);
* chains are simple paths counted once per unordered endpoint pair, and
  need not be induced;
* stars are induced K_{1,k}: a center plus k pairwise non-adjacent
  neighbors, counted per vertex set.

Zero counts are omitted from the result maps. Length guards keep the
enumeration at desk scale; these counters are reference-grade, not
output-sensitive algorithms.
"""

from __future__ import annotations

from .errors import GuardError
from .graph import Graph, bits
from .reports import MotifCensus

CYCLE_MAX_LEN = 8
CHAIN_MAX_LEN = 8
STAR_MAX_K = 8


def cycle_census(g: Graph, max_len: int) -> dict[int, int]:
    """Count simple cycles of each length in [3, max_len]."""
    if not 3 <= max_len <= CYCLE_MAX_LEN:
        raise GuardError(
            f"cycle_census guard: max_len must be in [3, {CYCLE_MAX_LEN}], got {max_len}"
        )
    counts: dict[int, int] = {}
    path: list[int] = []

    def extend(start: int, v: int, visited: int) -> None:
        for u in bits(g.adj[v]):
            if u == start and len(path) >= 3:
                if path[1] < path[-1]:  # canonical direction: one of the two traversals
                    counts[len(path)] = counts.get(len(path), 0) + 1
            elif u > start and not visited >> u & 1 and len(path) < max_len:
                path.append(u)
                extend(start, u, visited | 1 << u)
                path.pop()

    for s in range(g.n):
        path = [s]
        extend(s, s, 1 << s)
    return counts


def chain_census(g: Graph, max_len: int) -> dict[int, int]:
    """Count simple paths with 1..max_len edges, one count per unordered path."""
    if not 1 <= max_len <= CHAIN_MAX_LEN:
        raise GuardError(
            f"chain_census guard: max_len must be in [1, {CHAIN_MAX_LEN}], got {max_len}"
        )
    counts: dict[int, int] = {}

    def extend(start: int, v: int, visited: int, edges: int) -> None:
        if edges and v > start:
            counts[edges] = counts.get(edges, 0) + 1
        if edges == max_len:
            return
        for u in bits(g.adj[v] & ~visited):
            extend(start, u, visited | 1 << u, edges + 1)

    for s in range(g.n):
        extend(s, s, 1 << s, 0)
    return counts


def star_census(g: Graph, kmax: int) -> dict[int, int]:
    """Count induced stars K_{1,k} for k in [2, kmax], keyed by leaf count."""
    if not 2 <= kmax <= STAR_MAX_K:
        raise GuardError(
            f"star_census guard: kmax must be in [2, {STAR_MAX_K}], got {kmax}"
        )
    counts: dict[int, int] = {}

    def independent_subsets(pool: int, size_so_far: int) -> None:
        # Each recursive step extends the current independent leaf set by the
        # lowest remaining vertex, so every subset is generated exactly once.
        for v in bits(pool):
            k = size_so_far + 1
            if k >= 2:
                counts[k] = counts.get(k, 0) + 1
            if k < kmax:
                higher = pool & ~((1 << (v + 1)) - 1)
                independent_subsets(higher & ~g.adj[v], k)

    for row in g.adj:
        independent_subsets(row, 0)
    return counts


def motif_census(g: Graph, max_len: int) -> MotifCensus:
    """All three censuses with one shared length/size cap."""
    return MotifCensus(
        n=g.n,
        m=g.m,
        cycles=cycle_census(g, max_len),
        chains=chain_census(g, max_len),
        stars=star_census(g, max_len),
    )
