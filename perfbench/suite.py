"""Workloads, set-up and one measured pass of the cliquetrace benchmark.

Every workload runs the same five phases on its own graphs, so every
end-to-end metric exists on every workload while each workload loads
different layers:

* ``enum_pivot_s``, ``enum_degen_s``: one ``bk_pivot`` / ``bk_degeneracy``
  call per graph;
* ``maxclique_s``: one ``max_clique_bb`` call per graph;
* ``verify_s``: one ``run_comparison`` over VERIFY_ALGOS plus the oracle per
  compared graph (see ``Workload.compared``);
* ``cli_s``: the workload's CLI commands, one child interpreter at a time.

A traced pass times each public call from here (span time summed by name)
and reads the public result fields ``CliqueReport.elapsed_us`` and
``SearchStats``. Calls made only to split time by layer run after the
end-to-end phases, so the phase times of traced and untraced passes are
comparable.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable

import checks
from cliquetrace import (
    Graph,
    bk_degeneracy,
    bk_pivot,
    cli,
    degeneracy_ordering,
    from_edges,
    gnp,
    harary_ross_reconstruction,
    induced_subgraph,
    load_assyrian,
    max_clique_bb,
    moon_moser,
    parse_dimacs,
    parse_edge_list,
    random_ktree,
    read_report_json,
    render_diff,
    resolve_algorithm,
    run_comparison,
    write_dimacs,
    write_edge_list,
    write_report_json,
)
from cliquetrace.reports import DiffReport

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

VERIFY_ALGOS = ("bk_basic", "bk_pivot", "bk_degeneracy", "census", "harary1957")
PREFIX_N = 16  # small enough that the oracle scan stays a minor share of a pass
CLI_DIFF_ALGOS = "bk_pivot,bk_degeneracy,harary1957"
CHILD_TIMEOUT_S = 120

IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import cliquetrace\n"
    "print(time.perf_counter() - start)\n"
)


@dataclass(frozen=True)
class GraphSpec:
    name: str
    build: Callable[[], Graph]
    draws: int  # SplitMix64 outputs the generator consumes
    shape: tuple[int, int] | None = None  # (count, size) of the maximal cliques


def _gnp(n: int, p: float, seed: int) -> GraphSpec:
    return GraphSpec(f"gnp:n={n},p={p},seed={seed}", partial(gnp, n, p, seed), n * (n - 1) // 2)


def _moonmoser(k: int) -> GraphSpec:
    return GraphSpec(f"moonmoser:k={k}", partial(moon_moser, k), 0, (3**k, k))


def _ktree(n: int, k: int, seed: int) -> GraphSpec:
    return GraphSpec(
        f"ktree:n={n},k={k},seed={seed}", partial(random_ktree, n, k, seed), n - k - 1, (n - k, k + 1)
    )


@dataclass(frozen=True)
class Workload:
    graphs: Callable[[int], tuple[GraphSpec, ...]]
    # How many leading graphs run_comparison checks.
    compared: int
    # True: the compared graphs are small enough for the oracle whole, and
    # the CLI commands run on the bundled trade network. False: each compared
    # graph is cut to its first PREFIX_N vertices so the oracle can run, and
    # ``diff`` runs on each prefix.
    tiny: bool


TINY_ROUNDS = 40


def _tiny(seed: int) -> tuple[GraphSpec, ...]:
    """TINY_ROUNDS rounds over the nine (n, p) cells; the first round is
    the run_comparison batch."""
    cells = list(product((16, 18, 20), (0.3, 0.5, 0.7)))
    count = TINY_ROUNDS * len(cells)
    return tuple(_gnp(*cells[i % len(cells)], seed * count + i) for i in range(count))


DENSE_GNP = 16


def _large(seed: int) -> tuple[GraphSpec, ...]:
    """The dense graphs (Moon-Moser and DENSE_GNP gnp:n=85,p=0.5) and the
    sparse ones (gnp:n=2000,p=0.01 and a 5-tree). Sixteen small dense gnp
    graphs rather than one larger one: max_clique_bb effort on G(n, 1/2) is
    heavy-tailed across seeds, and a sum over many graphs steadies it. The
    four compared graphs lead: one of each kind."""
    dense = [_gnp(85, 0.5, seed * DENSE_GNP + i) for i in range(DENSE_GNP)]
    return (_moonmoser(10), dense[0], _gnp(2000, 0.01, seed), _ktree(2000, 5, seed), *dense[1:])


# Why each workload was chosen is recorded in BENCHMARK.json and design.json.
WORKLOADS: dict[str, Workload] = {
    "large": Workload(_large, compared=4, tiny=False),
    "verify": Workload(_tiny, compared=9, tiny=True),
}


@dataclass(frozen=True)
class Named:
    name: str
    graph: Graph
    shape: tuple[int, int] | None = None


@dataclass(frozen=True)
class CliCommand:
    label: str
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]  # stdout -> problems
    parser: Callable[[str], Graph] | None = None  # how the command reads its input
    path: Path | None = None


@dataclass(frozen=True)
class Inputs:
    graphs: tuple[Named, ...]
    compared: tuple[Named, ...]
    cli: tuple[CliCommand, ...]
    draws: int


class Tally:
    """Operations attempted and failed. An operation fails when it raises or
    when a check finds its output wrong; neither aborts the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.pass_no = 0
        self._failed: set[tuple[int, str]] = set()

    @property
    def failed(self) -> int:
        return len(self._failed)

    def run(self, label: str, fn: Callable, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self._record(label, [f"{type(exc).__name__}: {exc}"])
            return None

    def check(self, label: str, checker: Callable[..., list[str]], *args) -> None:
        try:
            problems = checker(*args)
        except Exception as exc:  # a checker that cannot read the output fails it
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self._record(label, problems)

    def _record(self, label: str, problems: list[str]) -> None:
        if problems:
            self._failed.add((self.pass_no, label))
            for problem in problems[:5]:
                print(f"FAIL pass {self.pass_no} {label}: {problem}", file=sys.stderr)


class Trace:
    """Spans and counters of one traced pass, kept in memory. Span time is
    summed by name; ``peak`` keeps the largest value of a counter."""

    enabled = True

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def call(self, name: str, fn: Callable, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[name] += time.perf_counter() - start

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] += seconds

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)


class NoTrace:
    enabled = False

    def call(self, name: str, fn: Callable, *args):
        return fn(*args)

    def add(self, name: str, seconds: float) -> None:
        pass

    def count(self, name: str, value: int) -> None:
        pass

    def peak(self, name: str, value: int) -> None:
        pass


def run_child(args: list[str]) -> str:
    """Run the checkout's interpreter on ``args``, wait for it, return stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc.stdout


def run_import_probe() -> float:
    """Seconds of ``import cliquetrace`` in a fresh interpreter."""
    return float(run_child(["-c", IMPORT_PROBE]))


def _main_in_process(argv: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"cli.main returned {code}")
    return out.getvalue()


def _read_diff(out: str) -> DiffReport:
    diff = read_report_json(out)
    if not isinstance(diff, DiffReport):
        raise ValueError("expected a diff report")
    return diff


def _check_diff_output(out: str) -> list[str]:
    return checks.check_diff(_read_diff(out))


def _check_trade_diff(out: str) -> list[str]:
    diff = _read_diff(out)
    return checks.check_diff(diff) + checks.check_trade_sizes(checks.non_spurious(diff))


def _check_trade_detect(out: str) -> list[str]:
    return checks.check_trade_sizes(read_report_json(out).cliques)


def _diff_command(workdir: Path, index: int, g: Named) -> CliCommand:
    path = workdir / f"compared{index}.dimacs"
    path.write_text(write_dimacs(g.graph), encoding="utf-8")
    argv = ("diff", "--input", str(path), "--format", "dimacs", "--algos", CLI_DIFF_ALGOS, "--json")
    return CliCommand(f"diff {g.name}", argv, _check_diff_output, parse_dimacs, path)


def _trade_commands(workdir: Path) -> tuple[CliCommand, ...]:
    path = workdir / "trade.edges"
    path.write_text(write_edge_list(load_assyrian()), encoding="utf-8")
    return (
        CliCommand("table1", ("table1", "--with-historical", "--json"), _check_trade_diff),
        CliCommand(
            "diff trade",
            ("diff", "--input", str(path), "--algos", CLI_DIFF_ALGOS, "--json"),
            _check_trade_diff,
            parse_edge_list,
            path,
        ),
        CliCommand(
            "detect trade", ("detect", "--input", str(path), "--json"), _check_trade_detect, parse_edge_list, path
        ),
    )


def build_inputs(workload: str, seed: int, workdir: Path, tally: Tally, tr: Trace | NoTrace) -> Inputs:
    """Generate the workload's graphs and write the files its CLI commands read."""
    spec = WORKLOADS[workload]
    specs = spec.graphs(seed)
    graphs, compared = [], []
    for i, gs in enumerate(specs):
        g = tally.run(f"generate {gs.name}", tr.call, "generators.gen", gs.build)
        if g is None:
            continue
        graphs.append(Named(gs.name, g, gs.shape))
        if i >= spec.compared:
            continue
        if not spec.tiny:
            prefix = induced_subgraph(g, range(min(g.n, PREFIX_N)))[0]
            compared.append(Named(f"{gs.name}[:{PREFIX_N}]", prefix))
        else:
            compared.append(graphs[-1])
    if spec.tiny:
        commands = tally.run("prepare trade commands", _trade_commands, workdir) or ()
    else:
        commands = [tally.run(f"prepare {g.name}", _diff_command, workdir, i, g) for i, g in enumerate(compared)]
    return Inputs(
        graphs=tuple(graphs),
        compared=tuple(compared),
        cli=tuple(c for c in commands if c is not None),
        draws=sum(s.draws for s in specs),
    )


ENUMERATORS = (("bk_pivot", bk_pivot, "enum_pivot_s"), ("bk_degeneracy", bk_degeneracy, "enum_degen_s"))


def _timed(times: list[float], tally: Tally, label: str, fn: Callable, *args):
    """One operation through ``tally.run``, its wall time appended to ``times``."""
    start = time.perf_counter()
    result = tally.run(label, fn, *args)
    times.append(time.perf_counter() - start)
    return result


def run_pass(inputs: Inputs, tally: Tally, tr: Trace | NoTrace) -> dict[str, list[float]]:
    """One closed-loop pass: each operation starts after the previous one
    returns. Returns, per end-to-end phase, the wall time in seconds of each
    of its operations, in the same order on every pass."""
    phases: dict[str, list[float]] = {metric: [] for _, _, metric in ENUMERATORS}
    omegas: dict[str, int] = {}
    gc.collect()  # untimed: no phase pays for garbage the one before left
    for g in inputs.graphs:
        # One graph's reports at a time, so no call runs on a heap that holds
        # the outputs of the calls before it.
        pivot, degen = (
            _timed(phases[metric], tally, f"{algo} {g.name}", tr.call, f"call.{algo}", fn, g.graph)
            for algo, fn, metric in ENUMERATORS
        )
        for rep in (pivot, degen):
            if rep is not None:
                tally.check(f"{rep.algorithm} {g.name}", checks.check_shape, rep, g.shape)
                tr.add(f"search.{rep.algorithm}", rep.elapsed_us / 1e6)
                omegas[g.name] = max(rep.census, default=0)
        if pivot is not None and degen is not None:
            tally.check(f"bk_degeneracy {g.name}", checks.check_agreement, pivot, degen)
        if pivot is not None:
            tr.count("enumerators.cliques", len(pivot.cliques))
        del pivot, degen

    gc.collect()
    times = phases["maxclique_s"] = []
    found = [
        _timed(times, tally, f"max_clique_bb {g.name}", tr.call, "bound.search", max_clique_bb, g.graph)
        for g in inputs.graphs
    ]
    for g, result in zip(inputs.graphs, found):
        if result is not None:
            clique, stats = result
            tally.check(
                f"max_clique_bb {g.name}", checks.check_max_clique, g.graph, clique, omegas.get(g.name, len(clique))
            )
            tr.count("bound.expansions", stats.expansions)
            tr.count("bound.prunes", stats.prunes)
            tr.peak("bound.omega", len(clique))

    gc.collect()
    times = phases["verify_s"] = []
    diffs = [
        _timed(
            times, tally, f"run_comparison {g.name}", tr.call, "harness.run_comparison",
            run_comparison, g.graph, VERIFY_ALGOS, 1, True,
        )
        for g in inputs.compared
    ]
    for g, diff in zip(inputs.compared, diffs):
        if diff is not None:
            tally.check(f"run_comparison {g.name}", checks.check_diff, diff)

    gc.collect()
    times = phases["cli_s"] = []
    outputs = [_timed(times, tally, f"cli {c.label}", run_child, ["-m", "cliquetrace", *c.argv]) for c in inputs.cli]
    for c, out in zip(inputs.cli, outputs):
        if out is not None:
            tally.check(f"cli {c.label}", c.check, out)

    if tr.enabled:
        _attribute(inputs, diffs, outputs, tally, tr)
    return phases


def _same_graph(a: Graph, b: Graph) -> list[str]:
    return [] if (a.n, a.adj) == (b.n, b.adj) else ["rebuilt graph differs"]


def _same_text(a: str, b: str) -> list[str]:
    return [] if a == b else ["JSON round trip differs from the CLI output"]


def _attribute(inputs: Inputs, diffs: list, outputs: list, tally: Tally, tr: Trace) -> None:
    """Calls made only in a traced pass, after its phases, to split their
    time by layer."""
    for g in inputs.graphs:
        edges = list(g.graph.edges())
        rebuilt = tally.run(f"from_edges {g.name}", tr.call, "graph.from_edges", from_edges, g.graph.n, edges)
        if rebuilt is not None:
            tally.check(f"from_edges {g.name}", _same_graph, g.graph, rebuilt)
        order = tally.run(f"degeneracy_ordering {g.name}", tr.call, "enumerators.order", degeneracy_ordering, g.graph)
        if order is not None:
            tr.peak("enumerators.degeneracy", order.degeneracy)

    for g, diff in zip(inputs.compared, diffs):
        if diff is None:
            continue
        tr.count("harness.witnesses", len(diff.witnesses))
        tr.count("oracle.subsets", 1 << g.graph.n)
        tally.run(f"render_diff {g.name}", tr.call, "harness.render", render_diff, diff)
        # harness.self_s: run_comparison time less these calls, one per id.
        for algo in diff.algorithms:
            rep = tally.run(f"{algo} {g.name}", tr.call, "harness.children", resolve_algorithm(algo).run, g.graph, 1)
            if rep is not None and algo == checks.ORACLE:
                tr.add("oracle.scan", rep.elapsed_us / 1e6)
        hist = tally.run(f"harary {g.name}", tr.call, "harary.reconstruct", harary_ross_reconstruction, g.graph)
        if hist is not None:
            tr.count("harary.emitted", len(hist.cliques))
            tr.count("harary.spurious", len(hist.spurious))

    for c, out in zip(inputs.cli, outputs):
        if c.path is not None:
            text = c.path.read_text(encoding="utf-8")
            tally.run(f"parse {c.label}", tr.call, "graphio.parse", c.parser, text)
        if out is not None:
            tr.count("graphio.json_bytes", len(out.encode()))
            report = tally.run(f"read_report_json {c.label}", read_report_json, out)
            if report is not None:
                again = tally.run(f"write_report_json {c.label}", tr.call, "graphio.json", write_report_json, report)
                if again is not None:
                    tally.check(f"write_report_json {c.label}", _same_text, out, again)
        tally.run(f"cli.main {c.label}", tr.call, "cli.main", _main_in_process, c.argv)

    import_s = tally.run("import probe", run_import_probe)
    if import_s is not None:
        tr.add("cli.import", import_s)


# Counters that repeat exactly for a seed. graphio.json_bytes is left out:
# ``detect --json`` prints its real elapsed_us, whose digit count varies.
DETERMINISTIC_COUNTERS = (
    "bound.expansions",
    "bound.omega",
    "bound.prunes",
    "enumerators.cliques",
    "enumerators.degeneracy",
    "generators.draws",
    "harary.emitted",
    "harary.spurious",
    "harness.witnesses",
    "oracle.subsets",
)


def layer_metrics(tr: Trace) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as (value, unit)."""
    s, c = tr.seconds, tr.counts
    report = {a: s[f"call.{a}"] - s[f"search.{a}"] for a, _, _ in ENUMERATORS}
    calls = sum(s[f"call.{a}"] for a, _, _ in ENUMERATORS)
    return {
        "graph.from_edges_s": (s["graph.from_edges"], "s"),
        "enumerators.order_s": (s["enumerators.order"], "s"),
        "enumerators.degeneracy": (c["enumerators.degeneracy"], "count"),
        "enumerators.bk_pivot.search_s": (s["search.bk_pivot"], "s"),
        "enumerators.bk_degeneracy.search_s": (s["search.bk_degeneracy"], "s"),
        "enumerators.cliques": (c["enumerators.cliques"], "count"),
        "reports.bk_pivot.report_s": (report["bk_pivot"], "s"),
        "reports.bk_degeneracy.report_s": (report["bk_degeneracy"], "s"),
        "reports.report_share": (sum(report.values()) / calls if calls else 0.0, "ratio"),
        "bound.search_s": (s["bound.search"], "s"),
        "bound.expansions": (c["bound.expansions"], "count"),
        "bound.prunes": (c["bound.prunes"], "count"),
        "bound.prune_ratio": (
            c["bound.prunes"] / c["bound.expansions"] if c["bound.expansions"] else 0.0,
            "ratio",
        ),
        "bound.omega": (c["bound.omega"], "count"),
        "oracle.scan_s": (s["oracle.scan"], "s"),
        "oracle.subsets": (c["oracle.subsets"], "count"),
        "harary.reconstruct_s": (s["harary.reconstruct"], "s"),
        "harary.emitted": (c["harary.emitted"], "count"),
        "harary.spurious": (c["harary.spurious"], "count"),
        "harness.run_comparison_s": (s["harness.run_comparison"], "s"),
        "harness.self_s": (s["harness.run_comparison"] - s["harness.children"], "s"),
        "harness.witnesses": (c["harness.witnesses"], "count"),
        "harness.render_s": (s["harness.render"], "s"),
        "graphio.parse_s": (s["graphio.parse"], "s"),
        "graphio.json_s": (s["graphio.json"], "s"),
        "graphio.json_bytes": (c["graphio.json_bytes"], "count"),
        "cli.main_s": (s["cli.main"], "s"),
        "cli.import_s": (s["cli.import"], "s"),
    }
