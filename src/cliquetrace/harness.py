"""Differential testing across algorithms, agreement tables, benchmarks.

The registry maps stable algorithm ids to runners that all produce a
CliqueReport for a (graph, min_size) pair, so any subset can be compared.
It is the one place where a search becomes a report: each entry hands its
search to ``timed_report``, and the algorithm modules only yield or return
answers. Disagreements between enumerators signal a bug by construction;
the historical reconstruction is expected to disagree, which is the point
of carrying it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import Callable, Sequence

from .bound import max_clique_bb
from .enumerators import _all_candidates, _degeneracy_outer, _pivot_branches, _whole_graph
from .errors import DisagreementError
from .generators import parse_gen_spec
from .graph import Graph, is_maximal_clique
from .graphio import load_assyrian
from .harary import PROV_RESIDUAL_FALLBACK, harary_ross_reconstruction
from .oracle import oracle_maximal_cliques
from .reports import (
    AGREED,
    FLAG_CENSUS_PATH,
    FLAG_RESIDUAL_FALLBACK,
    FLAG_SPURIOUS_PRESENT,
    SPURIOUS,
    TRUE_CLIQUE,
    CliqueReport,
    DiffReport,
    SearchResult,
    diff_of,
    timed_report,
)

KIND_ENUMERATOR = "enumerator"
KIND_MAXIMUM = "maximum"
KIND_HISTORICAL = "historical"
KIND_ORACLE = "oracle"


@dataclass(frozen=True)
class Algorithm:
    id: str
    kind: str
    run: Callable[[Graph, int], CliqueReport]


def _reported(algo_id: str, kind: str, search: Callable[[Graph], SearchResult]) -> Algorithm:
    """The registry entry that reports ``search``'s answer under ``algo_id``."""
    return Algorithm(algo_id, kind, lambda g, min_size: timed_report(algo_id, g, min_size, search))


def _census(g: Graph) -> SearchResult:
    cliques, _ = _whole_graph(_pivot_branches, g)
    return cliques, (FLAG_CENSUS_PATH,)


def _maximum(g: Graph) -> SearchResult:
    return [max_clique_bb(g)[0]], ()  # the empty clique () never passes min_size


def _historical(g: Graph) -> SearchResult:
    hist = harary_ross_reconstruction(g)
    flags = [FLAG_SPURIOUS_PRESENT] if hist.spurious else []
    if any(PROV_RESIDUAL_FALLBACK in f for f in hist.flags.values()):
        flags.append(FLAG_RESIDUAL_FALLBACK)
    return hist.cliques, flags


ALGORITHMS: dict[str, Algorithm] = {
    a.id: a
    for a in (
        _reported("bk_basic", KIND_ENUMERATOR, partial(_whole_graph, _all_candidates)),
        _reported("bk_pivot", KIND_ENUMERATOR, partial(_whole_graph, _pivot_branches)),
        _reported("bk_degeneracy", KIND_ENUMERATOR, _degeneracy_outer),
        _reported("census", KIND_ENUMERATOR, _census),
        _reported("ostergard2001", KIND_MAXIMUM, _maximum),
        _reported("harary1957", KIND_HISTORICAL, _historical),
        _reported("oracle", KIND_ORACLE, lambda g: (oracle_maximal_cliques(g), ())),
    )
}


def bk_basic(g: Graph, min_size: int = 1) -> CliqueReport:
    """All maximal cliques by branching on every candidate (exponential, exact)."""
    return ALGORITHMS["bk_basic"].run(g, min_size)


def bk_pivot(g: Graph, min_size: int = 1) -> CliqueReport:
    """All maximal cliques with pivoting; skips non-pivot-neighbor branches."""
    return ALGORITHMS["bk_pivot"].run(g, min_size)


def bk_degeneracy(g: Graph, min_size: int = 1) -> CliqueReport:
    """All maximal cliques, outer frames in degeneracy order, pivot rule inside."""
    return ALGORITHMS["bk_degeneracy"].run(g, min_size)


ALIASES = {
    "bron1973": "bk_basic",
    "eppstein2010": "bk_degeneracy",
    "osertgard2001": "ostergard2001",  # spelling variant seen in the literature
    "harary": "harary1957",
}

MODERN_ENUMERATORS = tuple(a.id for a in ALGORITHMS.values() if a.kind == KIND_ENUMERATOR)


def resolve_algorithm(name: str) -> Algorithm:
    key = name.strip().lower()
    key = ALIASES.get(key, key)
    if key not in ALGORITHMS:
        valid = sorted(set(ALGORITHMS) | set(ALIASES))
        raise ValueError(f"unknown algorithm {name!r}; valid ids: {', '.join(valid)}")
    return ALGORITHMS[key]


def _resolve_distinct(names: Sequence[str]) -> list[Algorithm]:
    algos = [resolve_algorithm(name) for name in names]
    if len({a.id for a in algos}) != len(algos):
        raise ValueError(f"duplicate algorithm ids in {list(names)}")
    return algos


def run_comparison(
    g: Graph,
    algorithms: Sequence[str],
    min_size: int = 1,
    with_oracle: bool = False,
) -> DiffReport:
    """Run each algorithm, build the presence matrix, classify disagreements.

    A row is a witness when it appears in some but not all outputs. Every
    row comes from a report, so it has at least ``min_size`` vertices, and
    each witness is classified by the definition: a true clique iff it is
    a maximal clique of g. Rows are the union of the outputs, so only the
    oracle as a participant (``with_oracle``) can surface a clique that
    every other output missed.
    """
    algos = _resolve_distinct(algorithms)
    if with_oracle and all(a.id != "oracle" for a in algos):
        algos.append(ALGORITHMS["oracle"])
    if len(algos) < 2:
        raise ValueError("comparison needs at least 2 algorithms")
    return _compare(g, {a.id: a.run(g, min_size) for a in algos}, min_size)


def _compare(g: Graph, reports: dict[str, CliqueReport], min_size: int) -> DiffReport:
    """The presence matrix of ``reports``, each row classified as
    ``run_comparison`` describes."""
    return diff_of(
        g.n, g.m, min_size, reports, lambda c: TRUE_CLIQUE if is_maximal_clique(g, c) else SPURIOUS
    )


def table1(min_size: int = 3, with_historical: bool = False) -> DiffReport:
    """Agreement matrix for the bundled trade network at the sociometric
    size cutoff, across the modern enumeration paths (plus, optionally,
    the historical reconstruction)."""
    algorithms = list(MODERN_ENUMERATORS)
    if with_historical:
        algorithms.append("harary1957")
    return run_comparison(load_assyrian(), algorithms, min_size=min_size)


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    """Fixed-width lines: the headers, a dashed rule, then one line per row.

    Each column is padded to its widest cell and each line is rstripped. A
    cell past the last header is a note appended after the padded row.
    """
    widths = [max(len(r[i]) for r in [headers, *rows]) for i in range(len(headers))]
    lines = []
    for r in [headers, ["-" * w for w in widths], *rows]:
        padded = "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
        lines.append("  ".join([padded, *r[len(widths):]]))
    return lines


def render_diff(diff: DiffReport) -> str:
    """Fixed-width agreement table; byte-stable for fixed inputs."""
    headers = ["Id", "Size"] + list(diff.algorithms)
    ids = count(1)  # spurious rows get no id
    body = []
    for row in diff.rows:
        row_id = "-" if row.classification == SPURIOUS else str(next(ids))
        marks = ["x" if row.present[a] else "-" for a in diff.algorithms]
        note = [] if row.classification == AGREED else [f"[{row.classification}]"]
        body.append([row_id, str(len(row.clique)), *marks, *note])
    footer = (
        f"graph: n={diff.n} m={diff.m}  min_size={diff.min_size}  "
        f"cliques={sum(1 for r in diff.rows if r.classification != SPURIOUS)}  "
        f"witnesses={len(diff.witnesses)}"
    )
    return "\n".join([*_table(headers, body), "", footer]) + "\n"


@dataclass(frozen=True)
class BenchEntry:
    algorithm: str
    kind: str
    cliques: int
    max_size: int
    median_us: int


@dataclass(frozen=True)
class BenchResult:
    spec: str
    n: int
    m: int
    repetitions: int
    min_size: int
    entries: tuple[BenchEntry, ...]


def bench(
    generator_spec: str,
    algorithms: Sequence[str],
    repetitions: int = 3,
    min_size: int = 1,
) -> BenchResult:
    """Median search time and clique counts per algorithm on a generated graph.

    Enumerators must produce identical canonical clique lists; on
    disagreement the run aborts with a diff dump of the last outputs they
    gave, because timing incorrect code is meaningless.
    """
    import statistics  # here, not at the top: it is slow to import, and only bench needs it
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    algos = _resolve_distinct(algorithms)
    g = parse_gen_spec(generator_spec)

    entries = []
    enum_reports: dict[str, CliqueReport] = {}
    for algo in algos:
        times = []
        for _ in range(repetitions):
            report = algo.run(g, min_size)
            times.append(report.elapsed_us)
        if algo.kind == KIND_ENUMERATOR:
            enum_reports[algo.id] = report
        entries.append(
            BenchEntry(
                algorithm=algo.id,
                kind=algo.kind,
                cliques=len(report.cliques),
                max_size=max(report.census, default=0),
                median_us=int(statistics.median(times)),
            )
        )

    outputs = [rep.cliques for rep in enum_reports.values()]
    if any(cliques != outputs[0] for cliques in outputs[1:]):
        counts = ", ".join(f"{algo_id} {len(rep.cliques)}" for algo_id, rep in enum_reports.items())
        raise DisagreementError(
            f"enumerators disagree on {generator_spec!r} (cliques: {counts})",
            dump=render_diff(_compare(g, enum_reports, min_size)),
        )
    return BenchResult(
        spec=generator_spec,
        n=g.n,
        m=g.m,
        repetitions=repetitions,
        min_size=min_size,
        entries=tuple(entries),
    )


def render_bench(result: BenchResult, with_timing: bool = False) -> str:
    """Benchmark table. Timing is off by default so stdout stays
    deterministic; pass with_timing=True for the stderr timing view."""
    cols = 5 if with_timing else 4  # the fifth column is median_us
    headers = ["algorithm", "kind", "cliques", "max_size", "median_us"][:cols]
    rows = [
        [e.algorithm, e.kind, str(e.cliques), str(e.max_size), str(e.median_us)][:cols]
        for e in result.entries
    ]
    lines = [
        f"bench {result.spec}  n={result.n} m={result.m}  "
        f"reps={result.repetitions} min_size={result.min_size}",
        *_table(headers, rows),
    ]
    if sum(1 for e in result.entries if e.kind == KIND_ENUMERATOR) >= 2:
        lines.append("counts agree across enumerators")
    return "\n".join(lines) + "\n"
