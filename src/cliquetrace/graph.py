"""Simple undirected graphs with bitset adjacency rows.

Every algorithm in this package operates on :class:`Graph`. Adjacency is
stored as one arbitrary-precision integer per vertex, so the set
intersections at the heart of clique enumeration are single word-parallel
``&`` operations. Graphs are immutable after construction and safe to share
across threads.

Vertices are dense 0-based integers. When a graph carries labels, label
``labels[v]`` belongs to vertex ``v``; parsers assign ids in ascending
lexicographic label order so that output is independent of input line order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import eq
from typing import Iterable, Iterator, Sequence

from .errors import GraphError, GuardError

Clique = tuple[int, ...]

# The largest vertex count any parser, generator or from_edges accepts: a
# worst-case adjacency of n rows of n bits is then 128 MiB.
MAX_VERTICES = 32768


def check_vertex_count(n: int, what: str) -> None:
    """Raise GuardError, naming ``what`` and the size, when n exceeds MAX_VERTICES."""
    if n > MAX_VERTICES:
        raise GuardError(
            f"{what} refuses n={n}: the vertex guard allows n <= {MAX_VERTICES}"
        )


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph: ``adj[v]`` is the neighbor bitset of v."""

    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        self._check_vertex(v)
        return bits(self.adj[v])

    def vertex_mask(self) -> int:
        """Bitset of all vertices."""
        return (1 << self.n) - 1

    def label_of(self, v: int) -> str:
        """Label of vertex v; falls back to the decimal id when unlabeled."""
        self._check_vertex(v)
        return self.labels[v] if self.labels is not None else str(v)

    def id_of(self, label: str) -> int:
        if self.labels is None or label not in self.labels:
            raise GraphError(f"unknown label {label!r}")
        return self.labels.index(label)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in ascending order."""
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield u, v

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range [0, {self.n})")


def from_edges(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse.

    Raises GraphError for self-loops, out-of-range endpoints, or a label
    list that is not total and unique, and GuardError when n exceeds
    MAX_VERTICES.
    """
    if n < 0:
        raise GraphError(f"vertex count {n} is negative")
    check_vertex_count(n, "from_edges")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) is not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if labels is not None:
        if len(labels) != n:
            raise GraphError(f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise GraphError("labels must be unique")
        labels = tuple(labels)
    return Graph(n=n, adj=tuple(adj), labels=labels)


def mask_of(g: Graph, vertices: Iterable[int]) -> int:
    """Bitset of ``vertices``, each checked to be a vertex of ``g``."""
    mask = 0
    for v in vertices:
        g._check_vertex(v)
        mask |= 1 << v
    return mask


def mask_is_clique(adj: Sequence[int], mask: int) -> bool:
    """True iff every pair of vertices in ``mask`` is adjacent under ``adj``."""
    rest = mask
    while rest:  # bits() inlined
        low = rest & -rest
        if mask & ~(adj[low.bit_length() - 1] | low):
            return False
        rest ^= low
    return True


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff every pair in ``vertices`` is adjacent (vacuously for size <= 1)."""
    return mask_is_clique(g.adj, mask_of(g, vertices))


def is_maximal_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff ``vertices`` is a clique and no outside vertex extends it."""
    mask = mask_of(g, vertices)
    if not mask_is_clique(g.adj, mask):
        return False
    common = g.vertex_mask()
    rest = mask
    while rest:  # bits() inlined
        low = rest & -rest
        common &= g.adj[low.bit_length() - 1]
        rest ^= low
    return common & ~mask == 0


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph on ``vertices`` plus the order-preserving old->new id mapping."""
    keep = list(bits(mask_of(g, vertices)))
    mapping = {old: new for new, old in enumerate(keep)}
    labels = tuple(g.labels[v] for v in keep) if g.labels is not None else None
    return Graph(n=len(keep), adj=_relabel(g.adj, keep), labels=labels), mapping


def _relabel(adj: Sequence[int], keep: Sequence[int]) -> tuple[int, ...]:
    """Rows of the subgraph induced on ``keep``, with vertex ``keep[i]`` renamed i."""
    kept = 0
    for old in keep:
        kept |= 1 << old
    return _renumber([adj[u] & kept for u in keep], keep, len(adj))


def _renumber(masks: Iterable[int], keep: Sequence[int], n: int) -> tuple[int, ...]:
    """``masks``, each inside ``keep`` (vertices below n), with ``keep[i]`` renamed i."""
    bit = [0] * n  # bit[old] = 1 << new
    for new, old in enumerate(keep):
        bit[old] = 1 << new
    rows = []
    for mask in masks:
        row = 0
        while mask:  # bits() inlined, from the top: bit order does not matter here
            v = mask.bit_length() - 1
            mask ^= 1 << v
            row |= bit[v]
        rows.append(row)
    return tuple(rows)


def canonicalize(cliques: Iterable[Iterable[int]]) -> list[Clique]:
    """Dedupe and sort cliques: size descending, then lexicographic ascending.

    Idempotent and invariant under permutations of the input.
    """
    return sort_canonical([tuple(sorted(c)) for c in cliques])


def sort_canonical(rows: list[Clique]) -> list[Clique]:
    """Sort increasing tuples into canonical order and drop repeats.

    ``rows`` is sorted in place. Sorting brings equal rows together; when no
    two adjacent rows are equal the result is ``rows`` itself, and only
    otherwise is a new list built that drops each row equal to the one
    before it. Input that arrives in long sorted runs, such as a
    depth-first search's output, sorts fastest.
    """
    rows.sort()
    rows.sort(key=len, reverse=True)
    if not any(map(eq, rows, islice(rows, 1, None))):
        return rows
    return rows[:1] + [b for a, b in zip(rows, islice(rows, 1, None)) if a != b]


def filter_nested(cliques: Iterable[Iterable[int]]) -> list[Clique]:
    """Drop every set that is a subset of another set in the collection."""
    canon = canonicalize(cliques)
    kept: list[Clique] = []
    kept_sets: list[frozenset[int]] = []
    for c in canon:  # size-descending order: supersets come first
        cs = frozenset(c)
        if not any(cs <= other for other in kept_sets):
            kept.append(c)
            kept_sets.append(cs)
    return kept
