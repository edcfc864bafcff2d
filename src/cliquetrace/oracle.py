"""Brute-force ground truth via a full 2**n subset scan.

Deliberately naive: every other algorithm in the package is validated
against this module. The scan is vectorized with numpy and processed in
chunks, but it still visits every one of the 2**n vertex subsets, which is
why it refuses graphs beyond the hard guard.
"""

from __future__ import annotations

import numpy as np

from .errors import GuardError
from .graph import Clique, Graph, bits, canonicalize
from .reports import CliqueReport, timed_report

ORACLE_MAX_N = 25

_CHUNK = 1 << 20


def _check_guard(g: Graph, what: str) -> None:
    if g.n > ORACLE_MAX_N:
        raise GuardError(
            f"{what} refuses n={g.n}: the 2^n subset-scan guard allows n <= {ORACLE_MAX_N}"
        )


def _scan(g: Graph, need_maximal: bool):
    """Yield (masks, is_clique[, is_maximal]) numpy arrays per chunk."""
    n = g.n
    total = 1 << n
    adj = [np.uint64(row) for row in g.adj]
    full_bits = [np.uint64(1 << v) for v in range(n)]
    zero = np.uint64(0)
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)
        ok = np.ones(masks.shape, dtype=bool)
        ext = np.zeros(masks.shape, dtype=bool)
        for v in range(n):
            has_v = (masks & full_bits[v]) != zero
            allowed = adj[v] | full_bits[v]
            ok &= ~(has_v & ((masks & ~allowed) != zero))
            if need_maximal:
                ext |= ~has_v & ((masks & ~adj[v]) == zero)
        if need_maximal:
            yield masks, ok, ok & ~ext
        else:
            yield masks, ok


def _decode(mask: int) -> Clique:
    return tuple(bits(mask))


def _maximal_masks(g: Graph) -> list[int]:
    _check_guard(g, "oracle_maximal_cliques")
    return [int(m) for masks, _, maximal in _scan(g, need_maximal=True) for m in masks[maximal]]


def oracle_maximal_cliques(g: Graph, min_size: int = 1) -> list[Clique]:
    """Every maximal clique of size >= min_size, by scanning all 2**n subsets.

    Decoded and sorted here, not by ``timed_report``, to stay an independent check.
    """
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    return canonicalize(_decode(m) for m in _maximal_masks(g) if m.bit_count() >= min_size)


def oracle_report(g: Graph, min_size: int = 1) -> CliqueReport:
    """Adapter: the scan's maximal-clique masks as a CliqueReport."""
    return timed_report("oracle", g, min_size, lambda g: (_maximal_masks(g), ()))


def oracle_maximum_clique(g: Graph) -> Clique:
    """A maximum-cardinality clique; ties broken lexicographically."""
    _check_guard(g, "oracle_maximum_clique")
    best_size = 0
    best: list[Clique] = [()]
    for masks, ok in _scan(g, need_maximal=False):
        sizes = np.bitwise_count(masks)
        sizes[~ok] = 0
        chunk_best = int(sizes.max()) if sizes.size else 0
        if chunk_best > best_size:
            best_size = chunk_best
            best = [_decode(int(m)) for m in masks[sizes == chunk_best]]
        elif chunk_best == best_size and best_size > 0:
            best.extend(_decode(int(m)) for m in masks[sizes == chunk_best])
    return min(best)
