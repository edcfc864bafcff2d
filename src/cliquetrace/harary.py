"""Reconstruction of the 1957 Harary-Ross matrix procedure for clique
detection, kept deliberately faithful to its documented failure mode.

The method works on the triangle-support matrix t = A o A^2 (entrywise
product of the adjacency matrix with its square, restricted to edges):
t[i][j] counts the triangles through edge (i, j). Only its positive entries
matter, so they are kept as per-vertex co-neighbor masks, recomputed after
every deletion. Vertices lying in no triangle are discarded, unicliqual
vertices are peeled one at a time, and whatever irreducible residue is left
is emitted as connected components.

Harary himself later acknowledged that the 1957 procedure finds every
clique of a graph but occasionally reports other subgraphs too. This
reconstruction keeps that behavior observable: every emitted set is
classified against the modern maximality predicate and the failures are
quarantined in ``spurious`` instead of being silenced. The residual
fallback is an explicit reconstruction choice, the surviving sources do
not describe the original residual handling; per-set provenance flags
make the two phases auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Clique, Graph, bits, canonicalize, is_maximal_clique, mask_is_clique

# Per-set provenance of the emitted sets.
PROV_PEELED = "PEELED"
PROV_RESIDUAL_FALLBACK = "RESIDUAL_FALLBACK"


@dataclass(frozen=True)
class TriangleSupport:
    """t[i][j] = number of triangles containing edge (i, j); 0 off edges."""

    t: tuple[tuple[int, ...], ...]

    def support(self, u: int, v: int) -> int:
        return self.t[u][v]


def triangle_support(g: Graph) -> TriangleSupport:
    """Triangle counts per edge: |N(i) & N(j)| where (i, j) is an edge, else 0.

    This is the 1957 matrix t = A o A^2. The reconstruction reads only its
    positive entries, as the co-neighbor masks of ``_co_neighbors``.
    """
    rows = []
    for i in range(g.n):
        row = [0] * g.n
        for j in bits(g.adj[i]):
            row[j] = (g.adj[i] & g.adj[j]).bit_count()
        rows.append(tuple(row))
    return TriangleSupport(t=tuple(rows))


def cliqual_vertices(g: Graph) -> tuple[int, ...]:
    """Vertices lying in at least one triangle, ascending."""
    co = _co_neighbors(list(g.adj), g.vertex_mask())
    return tuple(v for v, mask in co.items() if mask)


@dataclass(frozen=True)
class HistoricalReport:
    """Emitted sets of the reconstruction plus their classification.

    ``flags`` maps each emitted set to its provenance (PEELED or
    RESIDUAL_FALLBACK); ``spurious`` lists the emitted sets that fail the
    clique or maximality predicate on the original graph. Sets not in
    ``spurious`` are genuine maximal cliques.
    """

    cliques: tuple[Clique, ...]
    flags: dict[Clique, tuple[str, ...]]
    spurious: tuple[Clique, ...]

    @property
    def true_cliques(self) -> tuple[Clique, ...]:
        bad = set(self.spurious)
        return tuple(c for c in self.cliques if c not in bad)


def _co_neighbors(adj: list[int], alive: int) -> dict[int, int]:
    """v -> mask of its alive neighbors u with positive triangle support on (u, v)."""
    co = {}
    for v in bits(alive):
        nb = adj[v] & alive
        mask = 0
        for u in bits(nb):
            if adj[u] & nb:
                mask |= 1 << u
        co[v] = mask
    return co


def _components(adj: list[int], alive: int) -> list[int]:
    comps = []
    todo = alive
    while todo:
        seed = todo & -todo
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= adj[v] & alive & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        todo &= ~comp
    return comps


def harary_ross_reconstruction(g: Graph) -> HistoricalReport:
    """Run the reconstructed 1957 procedure and classify its output.

    Loop: drop triangle-free vertices, then peel the smallest unicliqual
    vertex v (its positive-support co-neighbors pairwise adjacent),
    recording v plus those co-neighbors; the co-neighbor masks are
    recomputed from scratch after every deletion. An irreducible non-empty
    residue is emitted as connected components flagged RESIDUAL_FALLBACK.
    """
    adj = list(g.adj)
    alive = g.vertex_mask()
    emitted: list[tuple[Clique, str]] = []
    while True:
        co = _co_neighbors(adj, alive)
        alive = sum(1 << v for v, mask in co.items() if mask)
        if not alive:
            break
        v = next((v for v in bits(alive) if mask_is_clique(adj, co[v])), None)
        if v is None:
            for comp in _components(adj, alive):
                emitted.append((tuple(bits(comp)), PROV_RESIDUAL_FALLBACK))
            break
        emitted.append((tuple(bits(co[v] | 1 << v)), PROV_PEELED))
        alive ^= 1 << v

    # No set is emitted twice: a peeled set holds its peeled vertex, dead from
    # then on, and the fallback components hold only alive vertices.
    flags = {members: (prov,) for members, prov in emitted}
    cliques = tuple(canonicalize(flags))
    spurious = tuple(c for c in cliques if not is_maximal_clique(g, c))
    return HistoricalReport(cliques=cliques, flags=flags, spurious=spurious)
