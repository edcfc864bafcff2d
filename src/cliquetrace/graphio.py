"""Graph file formats, the bundled trade-network dataset, and report JSON.

Formats:

* edge list: one ``labelA labelB`` pair per line (tab or space separated),
  ``#`` starts a comment line; vertex ids are assigned in ascending
  lexicographic label order, so parsing is independent of line order;
* DIMACS: ``p edge n m`` (or ``p col n m``, as the DIMACS clique benchmark
  files write it) header then m lines ``e u v`` with 1-based ids;
* adjacency CSV: square 0/1 matrix, first row and first column are labels;
  asymmetric input is OR-symmetrized with a warning.

Report JSON is deterministic: sorted keys, canonical clique order, two-space
indentation, trailing newline.
"""

from __future__ import annotations

import json
import reprlib
import warnings
from importlib import resources

from .errors import DatasetError, GraphError, ParseError
from .graph import Clique, Graph, check_vertex_count, from_edges
from .reports import (
    SPURIOUS,
    TRUE_CLIQUE,
    CliqueReport,
    DiffReport,
    MotifCensus,
    diff_of,
    report_of,
)

ASSYRIAN_RESOURCE = "assyrian_trade.edges"


def parse_edge_list(text: str) -> Graph:
    """Parse a labeled edge list; lines starting with '#' are comments."""
    pairs: list[tuple[str, str]] = []
    labels: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            hint = ""
            if tokens[0] in ("p", "c"):
                hint = "; this looks like DIMACS; pass --format dimacs"
            raise ParseError(
                f"line {lineno}: expected two whitespace-separated labels, got {len(tokens)}{hint}"
            )
        a, b = tokens
        if a == b:
            raise ParseError(f"line {lineno}: self-loop on {a!r}")
        pairs.append((a, b))
        labels.update(tokens)
    ordered = sorted(labels)
    ids = {lab: i for i, lab in enumerate(ordered)}
    return from_edges(len(ordered), [(ids[a], ids[b]) for a, b in pairs], ordered)


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS ``p edge`` (or ``p col``) format; 1-based ids become 0-based."""
    n = m = None
    edges: list[tuple[int, int]] = []
    edge_lines = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate problem header")
            if len(tokens) != 4 or tokens[1] not in ("edge", "col"):
                raise ParseError(f"line {lineno}: expected 'p edge n m' or 'p col n m'")
            try:
                n, m = int(tokens[2]), int(tokens[3])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: non-integer header field") from exc
            check_vertex_count(n, f"the DIMACS header on line {lineno}")
        elif tokens[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge line before 'p edge' header")
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: expected 'e u v'")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: non-integer endpoint") from exc
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(
                    f"line {lineno}: endpoint outside [1, {n}] in edge ({u}, {v})"
                )
            if u == v:
                raise ParseError(f"line {lineno}: self-loop on vertex {u}")
            edges.append((u - 1, v - 1))
            edge_lines += 1
        else:
            raise ParseError(f"line {lineno}: unknown line type {tokens[0]!r}")
    if n is None:
        raise ParseError("missing 'p edge n m' header")
    if edge_lines != m:
        raise ParseError(f"header declares {m} edges but file has {edge_lines}")
    return from_edges(n, edges)


def parse_adjacency_csv(text: str) -> Graph:
    """Parse a labeled square 0/1 adjacency matrix (comma separated).

    Asymmetric cells are OR-symmetrized and reported via a UserWarning.
    """
    rows = [line.split(",") for line in text.splitlines() if line.strip()]
    if not rows:
        raise ParseError("empty adjacency matrix")
    header = [cell.strip() for cell in rows[0][1:]]
    n = len(header)
    if len(rows) - 1 != n:
        raise ParseError(
            f"non-square matrix: {n} label columns but {len(rows) - 1} data rows"
        )
    matrix: list[list[int]] = []
    row_labels: list[str] = []
    for i, row in enumerate(rows[1:]):
        cells = [cell.strip() for cell in row]
        if len(cells) != n + 1:
            raise ParseError(f"row {i + 2}: expected {n + 1} cells, got {len(cells)}")
        row_labels.append(cells[0])
        entries = []
        for j, cell in enumerate(cells[1:]):
            if cell not in ("0", "1"):
                raise ParseError(
                    f"cell ({i + 2}, {j + 2}): expected 0 or 1, got {cell!r}"
                )
            entries.append(int(cell))
        matrix.append(entries)
    if row_labels != header:
        raise ParseError("row labels do not match column labels")
    if len(set(header)) != n:
        raise ParseError("duplicate labels in adjacency matrix")
    asymmetric = False
    pairs: list[tuple[str, str]] = []
    for i in range(n):
        if matrix[i][i]:
            raise ParseError(f"cell ({i + 2}, {i + 2}): self-loop on {header[i]!r}")
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                asymmetric = True
            if matrix[i][j] or matrix[j][i]:
                pairs.append((header[i], header[j]))
    if asymmetric:
        warnings.warn(
            "asymmetric adjacency matrix OR-symmetrized", UserWarning, stacklevel=2
        )
    ordered = sorted(header)
    ids = {lab: i for i, lab in enumerate(ordered)}
    return from_edges(n, [(ids[a], ids[b]) for a, b in pairs], ordered)


def write_edge_list(g: Graph) -> str:
    """Serialize as a labeled edge list; isolated vertices are rejected
    because the format cannot represent them (use DIMACS instead)."""
    if any(g.adj[v] == 0 for v in range(g.n)):
        raise GraphError("edge-list format cannot represent isolated vertices")
    _check_label_chars(g, lambda lab: lab.split() != [lab], "whitespace")
    lines = [f"{g.label_of(u)}\t{g.label_of(v)}" for u, v in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def _check_label_chars(g: Graph, offends, what: str) -> None:
    for v in range(g.n):
        lab = g.label_of(v)
        if not lab or offends(lab):
            raise GraphError(f"label {lab!r} cannot be serialized ({what})")


def write_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def write_adjacency_csv(g: Graph) -> str:
    _check_label_chars(g, lambda lab: "," in lab or "\n" in lab, "separator characters")
    labels = [g.label_of(v) for v in range(g.n)]
    lines = ["," + ",".join(labels)]
    for u in range(g.n):
        cells = ["1" if g.adj[u] >> v & 1 else "0" for v in range(g.n)]
        lines.append(labels[u] + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def load_assyrian() -> Graph:
    """The bundled Old Assyrian trade network (labeled merchant graph)."""
    try:
        text = (
            resources.files("cliquetrace").joinpath("data").joinpath(ASSYRIAN_RESOURCE)
        ).read_text(encoding="utf-8")
    except (OSError, ModuleNotFoundError) as exc:
        raise DatasetError(f"bundled dataset {ASSYRIAN_RESOURCE} missing: {exc}") from exc
    try:
        return parse_edge_list(text)
    except ParseError as exc:
        raise DatasetError(f"bundled dataset {ASSYRIAN_RESOURCE} corrupted: {exc}") from exc


def _clique_report_payload(report: CliqueReport, with_timing: bool = True) -> dict:
    return {
        "algorithm": report.algorithm,
        "graph": {"n": report.n, "m": report.m},
        "cliques": [list(c) for c in report.cliques],
        "census": {str(size): count for size, count in report.census.items()},
        "elapsed_us": report.elapsed_us if with_timing else 0,
        "flags": list(report.flags),
    }


def _motif_payload(census: MotifCensus) -> dict:
    return {
        "graph": {"n": census.n, "m": census.m},
        "cycles": {str(k): v for k, v in census.cycles.items()},
        "chains": {str(k): v for k, v in census.chains.items()},
        "stars": {str(k): v for k, v in census.stars.items()},
    }


def _diff_payload(diff: DiffReport) -> dict:
    # Timing is zeroed: diff/table outputs must be byte-stable across runs.
    return {
        "graph": {"n": diff.n, "m": diff.m},
        "min_size": diff.min_size,
        "algorithms": list(diff.algorithms),
        "reports": {
            algo: _clique_report_payload(rep, with_timing=False)
            for algo, rep in diff.reports.items()
        },
        "rows": [
            {
                "clique": list(row.clique),
                "size": len(row.clique),
                "present": row.present,
                "classification": row.classification,
            }
            for row in diff.rows
        ],
        "witnesses": [list(w) for w in diff.witnesses],
    }


def write_report_json(report: CliqueReport | DiffReport | MotifCensus) -> str:
    """Deterministic JSON for any report type; see read_report_json."""
    if isinstance(report, CliqueReport):
        payload = _clique_report_payload(report)
    elif isinstance(report, DiffReport):
        payload = _diff_payload(report)
    elif isinstance(report, MotifCensus):
        payload = _motif_payload(report)
    else:
        raise TypeError(f"unsupported report type {type(report).__name__}")
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _str(obj: dict, key: str) -> str:
    """``obj[key]`` if it is a string; else ParseError naming the key."""
    value = obj[key]
    if type(value) is not str:
        raise ParseError(f"report JSON key {key!r} is not a string: {value!r}")
    return value


def _count(obj: dict, key: str, least: int = 0) -> int:
    """``obj[key]`` if it is an int >= least; else ParseError naming the key."""
    value = obj[key]
    if type(value) is not int or value < least:
        raise ParseError(f"report JSON key {key!r} is not an int >= {least}: {value!r}")
    return value


def _str_list(obj: dict, key: str) -> list:
    """``obj[key]`` if it is a list of strings; else ParseError naming the key."""
    value = obj[key]
    if type(value) is not list or any(type(s) is not str for s in value):
        raise ParseError(f"report JSON key {key!r} is not a list of strings: {value!r}")
    return value


def _sizes(obj: dict, key: str) -> dict[int, int]:
    """``obj[key]``, a map from size to count, with int sizes; ParseError
    naming the size whose count is not an int >= 0."""
    counts = obj[key]
    return {int(size): _count(counts, size) for size in counts}


def _read_clique(row: list, n: int) -> Clique:
    """A clique row of a report on n vertices: strictly increasing ints in [0, n)."""
    clique = tuple(row)
    fenced = (-1, *clique, n)  # increasing between the fences is the whole check
    if any(type(v) is not int for v in clique) or any(a >= b for a, b in zip(fenced, fenced[1:])):
        raise ParseError(f"report JSON clique {row} is not strictly increasing ids in [0, {n})")
    return clique


def _read_clique_report(
    payload: dict, algorithm: str, graph: dict, min_size: int = 1
) -> CliqueReport:
    """``algorithm``'s report of ``payload``'s cliques of at least
    ``min_size`` vertices on ``graph``."""
    n = _count(graph, "n")
    kept = [c for c in (_read_clique(row, n) for row in payload["cliques"]) if len(c) >= min_size]
    elapsed_us, flags = _count(payload, "elapsed_us"), _str_list(payload, "flags")
    return report_of(algorithm, n, _count(graph, "m"), kept, elapsed_us, flags)


def _read_diff(payload: dict) -> DiffReport:
    """The diff of ``payload``'s reports, built as ``run_comparison`` builds
    it, with each row that is not agreed classified as the payload says."""
    graph, min_size = payload["graph"], _count(payload, "min_size", least=1)
    n = _count(graph, "n")
    said = {_read_clique(row["clique"], n): row["classification"] for row in payload["rows"]}

    def classify(clique: Clique) -> str:
        if said.get(clique) in (TRUE_CLIQUE, SPURIOUS):
            return said[clique]
        raise ParseError(
            f"report JSON key 'classification' of row {list(clique)} "
            f"is not {TRUE_CLIQUE!r} or {SPURIOUS!r}"
        )

    reports = {
        algo: _read_clique_report(payload["reports"][algo], algo, graph, min_size)
        for algo in _str_list(payload, "algorithms")
    }
    return diff_of(n, _count(graph, "m"), min_size, reports, classify)


def _records(value) -> dict:
    """A list or map of objects keyed by index or key; {} for anything else."""
    items = dict(enumerate(value)) if type(value) is list else value if type(value) is dict else {}
    return items if all(type(v) is dict for v in items.values()) else {}


def _first_key(written: dict, read: dict):
    """The first key, in sorted order, whose value differs between two maps."""
    text = [{k: json.dumps(v, sort_keys=True) for k, v in obj.items()} for obj in (written, read)]
    return next(k for k in sorted(written.keys() | read.keys()) if text[0].get(k) != text[1].get(k))


def _difference(written: dict, read: dict, path: str = "") -> str:
    """The first key whose value in ``read`` differs from ``written``'s, and
    its path; a list or map of objects with the same indices or keys on both
    sides is followed into the first object that differs."""
    key = _first_key(written, read)
    ours, theirs = _records(written.get(key)), _records(read.get(key))
    if ours and ours.keys() == theirs.keys():
        item = _first_key(ours, theirs)
        return _difference(ours[item], theirs[item], f"{path}{'.' if path else ''}{key}[{item!r}]")
    shown = [reprlib.repr(obj[key]) if key in obj else "missing" for obj in (read, written)]
    return f"key {key!r}{' at ' + path if path else ''} is {shown[0]}, not {shown[1]}"


def read_report_json(text: str) -> CliqueReport | DiffReport | MotifCensus:
    """Inverse of write_report_json.

    Only the primary fields are decoded: the scalars, each clique row, each
    motif map and the classification of each diff row that is not agreed.
    The rest is rebuilt by the code that builds it from an answer, a diff's
    reports keeping their cliques of at least ``min_size`` vertices and the
    algorithm they are keyed by. The one rule: write_report_json of the
    rebuilt report gives the payload's text re-serialised, so timing inside
    a diff report must read 0. ParseError names the first key that differs
    with its path, or a key that is missing or does not decode.
    """
    try:
        payload = json.loads(text)
        if "algorithm" in payload:
            report = _read_clique_report(payload, _str(payload, "algorithm"), payload["graph"])
        elif "rows" in payload:
            report = _read_diff(payload)
        elif "cycles" in payload:
            n, m = _count(payload["graph"], "n"), _count(payload["graph"], "m")
            report = MotifCensus(n, m, *(_sizes(payload, k) for k in ("cycles", "chains", "stars")))
        else:
            raise ParseError("unrecognized report JSON payload")
        written = write_report_json(report)
        if written != json.dumps(payload, sort_keys=True, indent=2) + "\n":
            raise ParseError(f"report JSON {_difference(json.loads(written), payload)}")
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"report JSON is missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"malformed report JSON: {exc}") from exc
    return report
