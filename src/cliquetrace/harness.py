"""Differential testing across algorithms, agreement tables, benchmarks.

The registry maps stable algorithm ids to runners that all produce a
CliqueReport for a (graph, min_size) pair, so any subset can be compared.
Disagreements between enumerators signal a bug by construction; the
historical reconstruction is expected to disagree, which is the point of
carrying it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .bound import max_clique_report
from .enumerators import bk_basic, bk_degeneracy, bk_pivot
from .errors import DisagreementError
from .generators import parse_gen_spec
from .graph import Clique, Graph, canonicalize, is_maximal_clique
from .graphio import load_assyrian
from .harary import harary_report
from .oracle import ORACLE_MAX_N, oracle_maximal_cliques, oracle_report
from .reports import (
    AGREED,
    FLAG_CENSUS_PATH,
    SPURIOUS,
    TRUE_CLIQUE,
    CliqueReport,
    DiffReport,
    DiffRow,
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


def _census_report(g: Graph, min_size: int) -> CliqueReport:
    return replace(
        bk_pivot(g, min_size), algorithm="census", flags=(FLAG_CENSUS_PATH,)
    )


ALGORITHMS: dict[str, Algorithm] = {
    a.id: a
    for a in (
        Algorithm("bk_basic", KIND_ENUMERATOR, bk_basic),
        Algorithm("bk_pivot", KIND_ENUMERATOR, bk_pivot),
        Algorithm("bk_degeneracy", KIND_ENUMERATOR, bk_degeneracy),
        Algorithm("census", KIND_ENUMERATOR, _census_report),
        Algorithm("ostergard2001", KIND_MAXIMUM, max_clique_report),
        Algorithm("harary1957", KIND_HISTORICAL, harary_report),
        Algorithm("oracle", KIND_ORACLE, oracle_report),
    )
}

ALIASES = {
    "bron1973": "bk_basic",
    "eppstein2010": "bk_degeneracy",
    "makino2004": "census",
    "osertgard2001": "ostergard2001",  # spelling variant seen in the literature
    "harary": "harary1957",
}

MODERN_ENUMERATORS = ("bk_basic", "bk_pivot", "bk_degeneracy", "census")


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

    A row is a witness when it appears in some but not all outputs.
    Witnesses are classified against the subset-scan oracle when the graph
    fits its guard, otherwise with the maximality predicate alone (sound,
    but unable to certify a clique missing from every output).
    """
    algos = _resolve_distinct(algorithms)
    ids = [a.id for a in algos]
    if with_oracle and "oracle" not in ids:
        algos.append(ALGORITHMS["oracle"])
        ids.append("oracle")
    if len(ids) < 2:
        raise ValueError("comparison needs at least 2 algorithms")

    reports = {a.id: a.run(g, min_size) for a in algos}
    found = {algo_id: set(rep.cliques) for algo_id, rep in reports.items()}
    all_cliques = canonicalize(
        c for rep in reports.values() for c in rep.cliques
    )
    # The oracle's own output when it took part, else one scan on the first witness.
    truth = found.get("oracle")

    rows = []
    witnesses = []
    for clique in all_cliques:
        present = {algo_id: clique in found[algo_id] for algo_id in ids}
        if all(present.values()):
            classification = AGREED
        else:
            witnesses.append(clique)
            if truth is None and g.n <= ORACLE_MAX_N:
                truth = set(oracle_maximal_cliques(g, min_size))
            if truth is not None:
                genuine = clique in truth
            else:
                genuine = is_maximal_clique(g, clique)
            classification = TRUE_CLIQUE if genuine else SPURIOUS
        rows.append(DiffRow(clique=clique, present=present, classification=classification))

    return DiffReport(
        n=g.n,
        m=g.m,
        min_size=min_size,
        algorithms=tuple(ids),
        reports=reports,
        rows=tuple(rows),
        witnesses=tuple(witnesses),
    )


def table1(min_size: int = 3, with_historical: bool = False) -> DiffReport:
    """Agreement matrix for the bundled trade network at the sociometric
    size cutoff, across the modern enumeration paths (plus, optionally,
    the historical reconstruction)."""
    algorithms = list(MODERN_ENUMERATORS)
    if with_historical:
        algorithms.append("harary1957")
    return run_comparison(load_assyrian(), algorithms, min_size=min_size)


def render_diff(diff: DiffReport) -> str:
    """Fixed-width agreement table; byte-stable for fixed inputs."""
    headers = ["Id", "Size"] + list(diff.algorithms)
    body = []
    next_id = 1
    for row in diff.rows:
        if row.classification == SPURIOUS:
            row_id = "-"
        else:
            row_id = str(next_id)
            next_id += 1
        marks = ["x" if row.present[a] else "-" for a in diff.algorithms]
        body.append([row_id, str(len(row.clique))] + marks)
        if row.classification != AGREED:
            body[-1].append(f"[{row.classification}]")
    widths = [max(len(r[i]) for r in [headers] + body) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        base = "  ".join(r[i].ljust(widths[i]) for i in range(len(headers))).rstrip()
        if len(r) > len(headers):
            base += "  " + r[-1]
        lines.append(base)
    lines.append("")
    lines.append(
        f"graph: n={diff.n} m={diff.m}  min_size={diff.min_size}  "
        f"cliques={sum(1 for r in diff.rows if r.classification != SPURIOUS)}  "
        f"witnesses={len(diff.witnesses)}"
    )
    return "\n".join(lines) + "\n"


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


def _median_us(times: list[int]) -> int:
    """Median of the timings, truncated to whole microseconds."""
    times = sorted(times)
    mid = len(times) // 2
    return times[mid] if len(times) % 2 else (times[mid - 1] + times[mid]) // 2


def bench(
    generator_spec: str,
    algorithms: Sequence[str],
    repetitions: int = 3,
    min_size: int = 1,
) -> BenchResult:
    """Median search time and clique counts per algorithm on a generated graph.

    Enumerators must produce identical canonical clique lists; on
    disagreement the run aborts with a diff dump, because timing incorrect
    code is meaningless.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    algos = _resolve_distinct(algorithms)
    g = parse_gen_spec(generator_spec)

    entries = []
    enum_outputs: dict[str, tuple[Clique, ...]] = {}
    for algo in algos:
        times = []
        for _ in range(repetitions):
            report = algo.run(g, min_size)
            times.append(report.elapsed_us)
        if algo.kind == KIND_ENUMERATOR:
            enum_outputs[algo.id] = report.cliques
        entries.append(
            BenchEntry(
                algorithm=algo.id,
                kind=algo.kind,
                cliques=len(report.cliques),
                max_size=max(report.census, default=0),
                median_us=_median_us(times),
            )
        )

    if len(enum_outputs) >= 2:
        baseline_id, baseline = next(iter(enum_outputs.items()))
        for algo_id, cliques in enum_outputs.items():
            if cliques != baseline:
                diff = run_comparison(g, list(enum_outputs), min_size=min_size)
                raise DisagreementError(
                    f"enumerators {baseline_id} and {algo_id} disagree on "
                    f"{generator_spec!r} ({len(baseline)} vs {len(cliques)} cliques)",
                    dump=render_diff(diff),
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
    headers = ["algorithm", "kind", "cliques", "max_size"]
    if with_timing:
        headers.append("median_us")
    rows = []
    for e in result.entries:
        row = [e.algorithm, e.kind, str(e.cliques), str(e.max_size)]
        if with_timing:
            row.append(str(e.median_us))
        rows.append(row)
    widths = [max(len(r[i]) for r in [headers] + rows) for i in range(len(headers))]
    lines = [
        f"bench {result.spec}  n={result.n} m={result.m}  "
        f"reps={result.repetitions} min_size={result.min_size}"
    ]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))).rstrip())
    if sum(1 for e in result.entries if e.kind == KIND_ENUMERATOR) >= 2:
        lines.append("counts agree across enumerators")
    return "\n".join(lines) + "\n"
