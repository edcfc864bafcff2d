"""End-to-end CLI behavior, including exit codes."""

from __future__ import annotations

import json

import pytest

from cliquetrace.cli import main
from conftest import run_python


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.edges"
    path.write_text("a b\nb c\na c\n")
    return str(path)


def test_detect_text(triangle_file, capsys):
    assert main(["detect", "--input", triangle_file, "--algo", "bk_pivot"]) == 0
    out = capsys.readouterr().out
    assert "a b c" in out
    assert "census: 3:1" in out


def test_detect_json_schema(triangle_file, capsys):
    assert main(["detect", "--input", triangle_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "bk_pivot"
    assert payload["graph"] == {"n": 3, "m": 3}
    assert payload["cliques"] == [[0, 1, 2]]
    assert payload["census"] == {"3": 1}
    assert set(payload) == {"algorithm", "graph", "cliques", "census", "elapsed_us", "flags"}


def test_census(triangle_file, capsys):
    assert main(["census", "--input", triangle_file, "--algo", "census"]) == 0
    assert capsys.readouterr().out == "3\t1\n"


def test_diff(triangle_file, capsys):
    code = main(
        ["diff", "--input", triangle_file, "--algos", "bk_basic,bk_pivot,oracle"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "witnesses=0" in out


def test_unknown_algorithm_is_usage_error(triangle_file, capsys):
    assert main(["detect", "--input", triangle_file, "--algo", "nope"]) == 1
    assert "valid ids" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("a a\n")
    assert main(["detect", "--input", str(bad)]) == 1
    assert "self-loop" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["detect", "--input", "/no/such/file.edges"]) == 1


def test_guard_error_exit_code(capsys):
    assert main(["bench", "--gen", "moonmoser:k=25", "--algos", "bk_pivot,census"]) == 3
    assert "guard" in capsys.readouterr().err


def test_oracle_guard_via_detect(tmp_path, capsys):
    from cliquetrace import load_assyrian, write_edge_list

    trade = tmp_path / "trade.edges"
    trade.write_text(write_edge_list(load_assyrian()))
    # The subset-scan oracle refuses the 30-vertex bundled graph.
    assert main(["detect", "--input", str(trade), "--algo", "oracle"]) == 3
    assert "n <= 25" in capsys.readouterr().err


def test_bench_disagreement_exit_code(monkeypatch, capsys):
    import cliquetrace.cli as cli
    from cliquetrace.errors import DisagreementError

    def explode(*args, **kwargs):
        raise DisagreementError("enumerators disagree", dump="Id table\n")

    monkeypatch.setattr(cli, "bench", explode)
    assert main(["bench", "--gen", "moonmoser:k=2", "--algos", "bk_pivot,census"]) == 2
    err = capsys.readouterr().err
    assert "disagree" in err and "Id table" in err


def test_table1_json_round_trips(capsys):
    assert main(["table1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["min_size"] == 3
    assert [row["size"] for row in payload["rows"]] == [5, 4, 3, 3, 3, 3]


TABLE1_WITH_HISTORICAL = """\
Id  Size  bk_basic  bk_pivot  bk_degeneracy  census  harary1957
--  ----  --------  --------  -------------  ------  ----------
1   5     x         x         x              x       x
2   4     x         x         x              x       x
-   4     -         -         -              -       x  [spurious]
3   3     x         x         x              x       x
4   3     x         x         x              x       x
5   3     x         x         x              x       x
-   3     -         -         -              -       x  [spurious]
-   3     -         -         -              -       x  [spurious]
6   3     x         x         x              x       x

graph: n=30 m=42  min_size=3  cliques=6  witnesses=3
"""

BENCH_MOON_MOSER_3 = """\
bench moonmoser:k=3  n=9 m=27  reps=1 min_size=1
algorithm  kind        cliques  max_size
---------  ----------  -------  --------
bk_basic   enumerator  27       3
bk_pivot   enumerator  27       3
census     enumerator  27       3
counts agree across enumerators
"""

DIFF_GNP_14_WITH_ORACLE = """\
Id  Size  bk_pivot  ostergard2001  harary1957  census  oracle
--  ----  --------  -------------  ----------  ------  ------
-   14    -         -              x           -       -  [spurious]
1   4     x         x              -           x       x  [true-clique]
2   4     x         -              -           x       x  [true-clique]
3   4     x         -              -           x       x  [true-clique]
4   4     x         -              -           x       x  [true-clique]
5   4     x         -              -           x       x  [true-clique]
6   4     x         -              -           x       x  [true-clique]
7   4     x         -              -           x       x  [true-clique]
8   3     x         -              -           x       x  [true-clique]
9   3     x         -              -           x       x  [true-clique]
10  3     x         -              -           x       x  [true-clique]
11  3     x         -              -           x       x  [true-clique]
12  3     x         -              -           x       x  [true-clique]
13  3     x         -              -           x       x  [true-clique]
14  3     x         -              -           x       x  [true-clique]
15  3     x         -              -           x       x  [true-clique]
16  3     x         -              -           x       x  [true-clique]
17  3     x         -              -           x       x  [true-clique]
18  3     x         -              -           x       x  [true-clique]
19  3     x         -              -           x       x  [true-clique]
20  3     x         -              -           x       x  [true-clique]
21  3     x         -              -           x       x  [true-clique]
22  3     x         -              -           x       x  [true-clique]
23  2     x         -              -           x       x  [true-clique]

graph: n=14 m=45  min_size=1  cliques=23  witnesses=24
"""


def test_table1_with_historical_golden(capsys):
    assert main(["table1", "--with-historical"]) == 0
    assert capsys.readouterr().out == TABLE1_WITH_HISTORICAL


def test_bench_golden(capsys):
    argv = ["bench", "--gen", "moonmoser:k=3", "--algos", "bk_basic,bk_pivot,census", "--reps", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == BENCH_MOON_MOSER_3


def test_diff_golden_with_every_kind(tmp_path, capsys):
    """One row set through the registry's four kinds of search."""
    path = tmp_path / "gnp.dimacs"
    assert main(["gen", "--gen", "gnp:n=14,p=0.5,seed=3", "--out", str(path)]) == 0
    capsys.readouterr()
    algos = "bk_pivot,ostergard2001,harary1957,census"
    argv = ["diff", "--input", str(path), "--format", "dimacs", "--algos", algos, "--with-oracle"]
    assert main(argv) == 0
    assert capsys.readouterr().out == DIFF_GNP_14_WITH_ORACLE


def test_motifs(triangle_file, capsys):
    assert main(["motifs", "--input", triangle_file, "--max-len", "4"]) == 0
    out = capsys.readouterr().out
    assert "cycles: 3:1" in out
    assert "chains: 1:3 2:3" in out
    assert "stars: (none)" in out


def test_gen_detect_pipeline(tmp_path, capsys):
    out_file = tmp_path / "mm.dimacs"
    assert main(["gen", "--gen", "moonmoser:k=3", "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert main(
        ["detect", "--input", str(out_file), "--format", "dimacs", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["cliques"]) == 27


def test_gen_detect_csv_pipeline(tmp_path, capsys):
    out_file = tmp_path / "mm.csv"
    assert main(["gen", "--gen", "moonmoser:k=2", "--out", str(out_file), "--format", "csv"]) == 0
    capsys.readouterr()
    assert main(["detect", "--input", str(out_file), "--format", "csv", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["cliques"]) == 9


def test_gen_stdout_edgelist(capsys):
    assert main(["gen", "--gen", "complete:n=3", "--out", "-", "--format", "edgelist"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["0\t1", "0\t2", "1\t2"]


def test_gen_into_missing_directory_is_an_error_not_a_traceback(tmp_path, capsys):
    out_file = tmp_path / "missing" / "x.dimacs"
    assert main(["gen", "--gen", "cycle:n=4", "--out", str(out_file)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_file.parent.exists()


def test_edge_list_reader_names_a_dimacs_file(tmp_path, capsys):
    """gen writes DIMACS by default and the readers default to edge lists."""
    out_file = tmp_path / "g.edges"
    diff = ["diff", "--input", str(out_file), "--algos", "bk_pivot,bk_degeneracy"]
    assert main(["gen", "--gen", "gnp:n=24,p=0.4,seed=2", "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert main(diff) == 1
    err = capsys.readouterr().err
    assert "line 1: expected two whitespace-separated labels, got 4" in err
    assert "this looks like DIMACS; pass --format dimacs" in err
    assert main([*diff, "--format", "dimacs"]) == 0


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect"])  # missing required --input
    assert exc.value.code == 1


def test_bad_min_size(triangle_file, capsys):
    assert main(["detect", "--input", triangle_file, "--min-size", "0"]) == 1


def test_import_leaves_heavy_stdlib_modules_unloaded():
    """Every CLI run pays for the package import; statistics (which pulls in
    fractions and decimal) and heapq are not part of it."""
    script = (
        "import sys\n"
        "import cliquetrace, cliquetrace.cli\n"
        "print(sorted(m for m in ('heapq', 'statistics') if m in sys.modules))\n"
    )
    child = run_python(script)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"
