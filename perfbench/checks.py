"""Output checks of the benchmark.

Each check returns a list of problems; an empty list means the output is
correct. The checks hold for any workload seed: they compare algorithms
with each other and with the subset-scan oracle, and test closed-form
counts only on the families that have them.
"""

from __future__ import annotations

from typing import Sequence

from cliquetrace import Graph, is_clique
from cliquetrace.reports import SPURIOUS, CliqueReport, DiffReport

HISTORICAL = "harary1957"
ORACLE = "oracle"
TRADE_SIZES = [5, 4, 3, 3, 3, 3]


def check_shape(report: CliqueReport, shape: tuple[int, int] | None) -> list[str]:
    """``shape`` is (count, size): the family has exactly ``count`` maximal
    cliques, all of ``size`` vertices (Moon-Moser 3^k of size k; a k-tree
    on n vertices n-k of size k+1)."""
    if shape is None:
        return []
    count, size = shape
    problems = []
    if len(report.cliques) != count:
        problems.append(f"{report.algorithm}: {len(report.cliques)} cliques, expected {count}")
    sizes = {len(c) for c in report.cliques}
    if sizes - {size}:
        problems.append(f"{report.algorithm}: clique sizes {sorted(sizes)}, expected only {size}")
    return problems


def check_agreement(reference: CliqueReport, other: CliqueReport) -> list[str]:
    """Two exact enumerators must give identical canonical lists."""
    if reference.cliques == other.cliques:
        return []
    return [
        f"{other.algorithm} differs from {reference.algorithm}: "
        f"{len(other.cliques)} vs {len(reference.cliques)} cliques"
    ]


def check_max_clique(g: Graph, clique: Sequence[int], omega: int) -> list[str]:
    """A maximum clique is a clique whose size equals the largest enumerated one."""
    problems = []
    if not is_clique(g, clique):
        problems.append(f"maximum clique {tuple(clique)} is not a clique")
    if len(clique) != omega:
        problems.append(f"maximum clique has size {len(clique)}, largest enumerated is {omega}")
    return problems


def check_diff(diff: DiffReport) -> list[str]:
    """Modern algorithms agree (with the oracle when it ran); non-spurious
    rows are true cliques; only the historical method may be spurious."""
    problems = []
    modern = [a for a in diff.algorithms if a not in (HISTORICAL, ORACLE)]
    truth = (
        set(diff.reports[ORACLE].cliques)
        if ORACLE in diff.reports
        else set(diff.reports[modern[0]].cliques)
    )
    for algo in modern:
        if set(diff.reports[algo].cliques) != truth:
            problems.append(f"{algo} disagrees with {ORACLE if ORACLE in diff.reports else modern[0]}")
    for row in diff.rows:
        if row.classification == SPURIOUS:
            if row.clique in truth or any(row.present[a] for a in diff.algorithms if a != HISTORICAL):
                problems.append(f"row {row.clique} is spurious but not only under {HISTORICAL}")
        elif row.clique not in truth:
            problems.append(f"row {row.clique} is {row.classification} but not a true clique")
    return problems


def check_trade_sizes(cliques: Sequence[Sequence[int]]) -> list[str]:
    """The trade network has six cliques of size >= 3: 5, 4, 3, 3, 3, 3."""
    sizes = [len(c) for c in cliques if len(c) >= 3]
    if sizes != TRADE_SIZES:
        return [f"trade clique sizes {sizes}, expected {TRADE_SIZES}"]
    return []


def non_spurious(diff: DiffReport) -> list[tuple[int, ...]]:
    return [row.clique for row in diff.rows if row.classification != SPURIOUS]
