"""Brute-force ground truth via a full 2**n subset scan.

Deliberately naive: every other algorithm in the package is validated
against this module, and it shares no search code with them. It visits
every one of the 2**n vertex subsets, which is why it refuses graphs beyond
the hard guard.

The scan is bit-parallel on Python ints. The subsets are taken in chunks of
2**20 that agree on the vertices >= 20, and bit s of one 2**20-bit int
stands for the subset s of the low vertices. It rests on one identity: a
subset is a maximal clique iff, at every vertex v, it holds v exactly when
it holds none of v's non-neighbours (holding v and a non-neighbour breaks
the clique; holding neither v nor a non-neighbour lets v extend it). So
with member(v) the subsets holding v and inside(v) the subsets holding no
non-neighbour of v, the subsets that fail are the OR over v of
member(v) ^ inside(v), one accumulator for the whole chunk. A maximum
clique is maximal, so the same scan answers both questions.

* member(v) of a low vertex repeats one period, 2**v zero bits then 2**v
  one bits, and is built from it by doubling. A high vertex is in all
  subsets of a chunk or in none.
* inside(v) is built by doubling: starting from the empty subset, one
  shift-OR per vertex of v's closed low neighbourhood adds the subsets
  that hold it.
* A low vertex with no non-neighbour >= 20 has the same term in every
  chunk, so those terms are folded once into a fixed accumulator; for
  n <= 20 that is every vertex, and no per-vertex int is kept. Only a low
  vertex with a high non-neighbour keeps its member(v) and its
  member(v) ^ inside(v), one of which its term is in each chunk.
* The decode reads the passing subsets off the non-zero bytes of the
  result, found with one ``to_bytes``/``translate``/``find`` pass, so it
  costs one pass over the bytes, not one pass over the whole int per set
  bit.
"""

from __future__ import annotations

from .errors import GuardError
from .graph import Clique, Graph, bits

ORACLE_MAX_N = 25

_LOW = 20  # vertices below this index are the bit positions of one chunk


def _member(v: int, size: int) -> int:
    """Bit s set, for every s < size, iff s holds v: one period doubled up to size."""
    half = 1 << v
    out = ((1 << half) - 1) << half  # 2**v subsets without v, then 2**v with
    width = half << 1
    while width < size:
        out |= out << width
        width <<= 1
    return out


def _subsets_of(mask: int) -> int:
    """Bit s set iff s is a subset of mask, built by doubling once per set bit."""
    out = 1
    while mask:
        low = mask & -mask
        out |= out << low
        mask ^= low
    return out


def _byte_bits() -> tuple[tuple[int, ...], ...]:
    """Entry b holds the set bit positions of the byte b, ascending."""
    table: list[tuple[int, ...]] = [()]
    for i in range(8):
        table += [t + (i,) for t in table]  # the bytes 2**i to 2**(i+1) - 1
    return tuple(table)


_BYTE_BITS = _byte_bits()
_NON_ZERO = bytes(1) + b"\x01" * 255  # translate table: 0 stays 0, any other byte becomes 1


def _set_bits(mask: int) -> list[int]:
    """The set bit positions of mask, ascending, reading only its non-zero bytes."""
    raw = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    hits = raw.translate(_NON_ZERO)
    out = []
    at = hits.find(1)
    while at >= 0:
        base = at << 3
        out.extend([base + i for i in _BYTE_BITS[raw[at]]])
        at = hits.find(1, at + 1)
    return out


def _scan(g: Graph) -> list[int]:
    """The mask of every maximal clique of g, ascending."""
    n = g.n
    low = min(n, _LOW)
    size = 1 << low
    full = (1 << size) - 1
    high_mask = g.vertex_mask() >> low << low
    fixed = 0  # the terms of the low vertices that no chunk changes
    varying = []  # (member, term, high non-neighbours) of the other low vertices
    for v in range(low):
        row = g.adj[v]
        member = _member(v, size)
        term = member ^ _subsets_of((row | 1 << v) & (size - 1))
        far = high_mask & ~row
        if far:
            varying.append((member, term, far))
        else:
            fixed |= term
    # (v, inside(v) within the chunk, high non-neighbours) of each high vertex
    high = [
        (v, _subsets_of(row & (size - 1)), high_mask & ~row & ~(1 << v))
        for v, row in enumerate(g.adj[low:], low)
    ]
    found = []
    for chunk in range(1 << (n - low)):
        base = chunk << low
        if any(base >> v & 1 and base & far for v, _, far in high):
            continue  # every subset holds v and a non-neighbour of v: the term is full
        bad = fixed
        for v, inside, far in high:
            if base >> v & 1:
                bad |= full ^ inside
            elif not base & far:
                bad |= inside
        for member, term, far in varying:
            # inside(v) is empty once the chunk holds a high non-neighbour of v.
            bad |= member if base & far else term
        found.extend([base | s for s in _set_bits(full ^ bad)])
    return found


def oracle_maximal_cliques(g: Graph, min_size: int = 1) -> list[Clique]:
    """Every maximal clique of size >= min_size, by scanning all 2**n subsets.

    The one place the scan is guarded and decoded. The rows are ordered
    here on their own key, size descending then lexicographic, and not by
    the report layer's sort, so the oracle stays an independent check of
    it. The scan's masks are distinct, so there is nothing to dedupe.
    """
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    if g.n > ORACLE_MAX_N:
        raise GuardError(
            f"oracle_maximal_cliques refuses n={g.n}: "
            f"the 2^n subset-scan guard allows n <= {ORACLE_MAX_N}"
        )
    cliques = [tuple(bits(m)) for m in _scan(g) if m.bit_count() >= min_size]
    cliques.sort(key=lambda c: (-len(c), c))
    return cliques


def oracle_maximum_clique(g: Graph) -> Clique:
    """A maximum-cardinality clique; ties broken lexicographically.

    The first row of ``oracle_maximal_cliques``, and ``()`` on the empty graph.
    """
    cliques = oracle_maximal_cliques(g)
    return cliques[0] if cliques else ()
