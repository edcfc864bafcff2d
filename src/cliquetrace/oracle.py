"""Brute-force ground truth via a full 2**n subset scan.

Deliberately naive: every other algorithm in the package is validated
against this module, and it shares no search code with them. It visits
every one of the 2**n vertex subsets, which is why it refuses graphs beyond
the hard guard.

The scan is bit-parallel on Python ints. The subsets are taken in chunks of
2**20 that agree on the vertices >= 20, and bit s of one 2**20-bit int
stands for the subset s of the low vertices. Each low vertex v gets a
membership int (bit s set iff v is in s); inside a chunk a high vertex is
in all of its subsets or in none. A subset is a clique iff it holds no
non-edge, and it is extendable by v iff it holds neither v nor a
non-neighbour of v; the maximal cliques are the cliques extendable by no
vertex. A maximum clique is maximal, so the same scan answers both.
"""

from __future__ import annotations

from .errors import GuardError
from .graph import Clique, Graph, bits, canonicalize
from .reports import CliqueReport, timed_report

ORACLE_MAX_N = 25

_LOW = 20  # vertices below this index are the bit positions of one chunk


def _check_guard(g: Graph, what: str) -> None:
    if g.n > ORACLE_MAX_N:
        raise GuardError(
            f"{what} refuses n={g.n}: the 2^n subset-scan guard allows n <= {ORACLE_MAX_N}"
        )


def _scan(g: Graph) -> list[int]:
    """The mask of every maximal clique of g, ascending."""
    n = g.n
    low = min(n, _LOW)
    size = 1 << low
    full = (1 << size) - 1
    member = []
    for v in range(low):
        half = 1 << v
        m = ((1 << half) - 1) << half  # one period: 2**v subsets without v, 2**v with
        width = half << 1
        while width < size:
            m |= m << width
            width <<= 1
        member.append(m)
    non_adj = [g.vertex_mask() & ~(row | 1 << v) for v, row in enumerate(g.adj)]
    # Per vertex, the subsets holding one of its low non-neighbours.
    low_out = []
    for row in non_adj:
        out = 0
        for u in bits(row & (size - 1)):
            out |= member[u]
        low_out.append(out)
    found = []
    for high in range(1 << (n - low)):
        base = high << low
        bad = ext = 0
        for v in range(n):
            # A high vertex is in every subset of the chunk or in none.
            has_v = member[v] if v < low else (full if base >> v & 1 else 0)
            out = full if non_adj[v] & base else low_out[v]
            bad |= has_v & out  # not a clique: holds v and a non-neighbour of v
            ext |= full ^ (has_v | out)  # not maximal: v can be added
        found.extend(base | s for s in bits(full ^ (bad | ext)))
    return found


def _maximal_masks(g: Graph) -> list[int]:
    _check_guard(g, "oracle_maximal_cliques")
    return _scan(g)


def oracle_maximal_cliques(g: Graph, min_size: int = 1) -> list[Clique]:
    """Every maximal clique of size >= min_size, by scanning all 2**n subsets.

    Decoded and sorted here, not by ``timed_report``, to stay an independent check.
    """
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    return canonicalize(tuple(bits(m)) for m in _maximal_masks(g) if m.bit_count() >= min_size)


def oracle_report(g: Graph, min_size: int = 1) -> CliqueReport:
    """Adapter: the scan's maximal-clique masks as a CliqueReport."""
    return timed_report("oracle", g, min_size, lambda g: (_maximal_masks(g), ()))


def oracle_maximum_clique(g: Graph) -> Clique:
    """A maximum-cardinality clique; ties broken lexicographically."""
    _check_guard(g, "oracle_maximum_clique")
    return canonicalize(tuple(bits(m)) for m in _scan(g))[0]
