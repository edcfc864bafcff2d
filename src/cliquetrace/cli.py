"""Command-line interface.

Subcommands: detect, census, diff, table1, bench, motifs, gen.
Exit codes: 0 success, 1 usage, parse or file error, 2 enumerator disagreement
in bench, 3 dataset or size-guard error.

Deterministic outputs: diff, table1, and bench write byte-stable text (or
JSON) to stdout for fixed inputs and seeds; bench timing, which can never
be stable, goes to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import DatasetError, DisagreementError, GraphError, GuardError, ParseError
from .graph import Graph
from .graphio import (
    parse_adjacency_csv,
    parse_dimacs,
    parse_edge_list,
    write_adjacency_csv,
    write_dimacs,
    write_edge_list,
    write_report_json,
)
from .generators import parse_gen_spec
from .harness import (
    bench,
    render_bench,
    render_diff,
    resolve_algorithm,
    run_comparison,
    table1,
)
from .motifs import motif_census
from .reports import CliqueReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREEMENT = 2
EXIT_GUARD = 3

_PARSERS = {
    "edgelist": parse_edge_list,
    "dimacs": parse_dimacs,
    "csv": parse_adjacency_csv,
}

_WRITERS = {
    "edgelist": write_edge_list,
    "dimacs": write_dimacs,
    "csv": write_adjacency_csv,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_graph(path: str, fmt: str) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return _PARSERS[fmt](text)


def _render_clique_report(report: CliqueReport, g: Graph) -> str:
    lines = [
        f"algorithm: {report.algorithm}",
        f"graph: n={report.n} m={report.m}",
        f"cliques: {len(report.cliques)}",
    ]
    if report.flags:
        lines.append("flags: " + ",".join(report.flags))
    for c in report.cliques:
        lines.append(f"  [{len(c)}] " + " ".join(g.label_of(v) for v in c))
    census = " ".join(f"{size}:{count}" for size, count in report.census.items())
    lines.append(f"census: {census}" if census else "census: (empty)")
    return "\n".join(lines) + "\n"


def _cmd_detect(args) -> int:
    g = _load_graph(args.input, args.format)
    report = resolve_algorithm(args.algo).run(g, args.min_size)
    if args.json:
        sys.stdout.write(write_report_json(report))
    else:
        sys.stdout.write(_render_clique_report(report, g))
    return EXIT_OK


def _cmd_census(args) -> int:
    g = _load_graph(args.input, args.format)
    report = resolve_algorithm(args.algo).run(g, args.min_size)
    for size, count in report.census.items():
        sys.stdout.write(f"{size}\t{count}\n")
    return EXIT_OK


def _cmd_diff(args) -> int:
    g = _load_graph(args.input, args.format)
    names = [s for s in args.algos.split(",") if s.strip()]
    diff = run_comparison(g, names, min_size=args.min_size, with_oracle=args.with_oracle)
    sys.stdout.write(write_report_json(diff) if args.json else render_diff(diff))
    return EXIT_OK


def _cmd_table1(args) -> int:
    diff = table1(min_size=args.min_size, with_historical=args.with_historical)
    sys.stdout.write(write_report_json(diff) if args.json else render_diff(diff))
    return EXIT_OK


def _cmd_bench(args) -> int:
    names = [s for s in args.algos.split(",") if s.strip()]
    result = bench(args.gen, names, repetitions=args.reps, min_size=args.min_size)
    sys.stdout.write(render_bench(result, with_timing=False))
    sys.stderr.write(render_bench(result, with_timing=True))
    return EXIT_OK


def _cmd_motifs(args) -> int:
    g = _load_graph(args.input, args.format)
    census = motif_census(g, args.max_len)
    if args.json:
        sys.stdout.write(write_report_json(census))
        return EXIT_OK
    sys.stdout.write(f"graph: n={census.n} m={census.m}\n")
    for name, table in (("cycles", census.cycles), ("chains", census.chains), ("stars", census.stars)):
        body = " ".join(f"{k}:{v}" for k, v in sorted(table.items()))
        sys.stdout.write(f"{name}: {body}\n" if body else f"{name}: (none)\n")
    return EXIT_OK


def _cmd_gen(args) -> int:
    g = parse_gen_spec(args.gen)
    text = _WRITERS[args.format](g)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        sys.stderr.write(f"wrote {args.format} graph n={g.n} m={g.m} to {args.out}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cliquetrace", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True, help="graph file")
        p.add_argument("--format", choices=sorted(_PARSERS), default="edgelist")

    p = sub.add_parser("detect", help="enumerate cliques with one algorithm")
    add_input(p)
    p.add_argument("--algo", default="bk_pivot")
    p.add_argument("--min-size", type=int, default=1, dest="min_size")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("census", help="clique-size histogram")
    add_input(p)
    p.add_argument("--algo", default="bk_pivot")
    p.add_argument("--min-size", type=int, default=1, dest="min_size")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("diff", help="compare algorithms on one graph")
    add_input(p)
    p.add_argument("--algos", required=True, help="comma-separated algorithm ids")
    p.add_argument("--min-size", type=int, default=1, dest="min_size")
    p.add_argument("--with-oracle", action="store_true", dest="with_oracle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("table1", help="agreement table on the bundled trade network")
    p.add_argument("--with-historical", action="store_true", dest="with_historical")
    p.add_argument("--min-size", type=int, default=3, dest="min_size")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("bench", help="time algorithms on a generated graph")
    p.add_argument("--gen", required=True, help="generator spec, e.g. moonmoser:k=5")
    p.add_argument("--algos", required=True)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--min-size", type=int, default=1, dest="min_size")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("motifs", help="cycle/chain/star census")
    add_input(p)
    p.add_argument("--max-len", type=int, default=6, dest="max_len")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_motifs)

    p = sub.add_parser("gen", help="write a generated graph to a file")
    p.add_argument("--gen", required=True)
    p.add_argument("--out", required=True, help="output path, or - for stdout")
    p.add_argument("--format", choices=sorted(_WRITERS), default="dimacs")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DisagreementError as exc:
        sys.stderr.write(f"error: {exc}\n")
        if exc.dump:
            sys.stderr.write(exc.dump)
        return EXIT_DISAGREEMENT
    except (GuardError, DatasetError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_GUARD
    except (ParseError, GraphError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
