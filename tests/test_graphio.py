"""Parsers, writers, the bundled dataset, and report JSON round trips."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from cliquetrace import (
    DatasetError,
    GraphError,
    ParseError,
    bk_pivot,
    from_edges,
    gnp,
    is_maximal_clique,
    load_assyrian,
    motif_census,
    named,
    oracle_maximal_cliques,
    parse_adjacency_csv,
    parse_dimacs,
    parse_edge_list,
    read_report_json,
    run_comparison,
    triangle_support,
    write_adjacency_csv,
    write_dimacs,
    write_edge_list,
    write_report_json,
)

# The six size->=3 cliques of the bundled trade network, by merchant name.
GOLDEN_CLIQUES = [
    {"Amur-Ishtar", "Imdi-ilum", "Innaya", "Pushu-ken", "Shalim-ahum"},
    {"Buzazu", "Ikuppiya", "Pushu-ken", "Shu-Hubur"},
    {"Amur-ili", "Ennam-Ashur", "Imdi-ilum"},
    {"Ashur-idi", "Ashur-nada", "Elamma"},
    {"Ashur-taklaku", "Enlil-bani", "Kulumaya"},
    {"La-qepum", "Puzur-Ashur", "Usur-sha-Ishtar"},
]


class TestEdgeList:
    def test_path(self):
        g = parse_edge_list("a b\nb c")
        assert g.n == 3 and g.m == 2
        assert g.labels == ("a", "b", "c")

    def test_comments_and_blanks(self):
        assert parse_edge_list("# comment\n\na b\n").m == 1

    def test_self_loop(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("a a")

    def test_wrong_token_count(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("a b\na b c")

    def test_line_order_does_not_matter(self):
        one = parse_edge_list("a b\nc b\nd a")
        two = parse_edge_list("d a\na b\nc b")
        assert one.adj == two.adj and one.labels == two.labels

    def test_tab_separated(self):
        assert parse_edge_list("x\ty").m == 1


class TestDimacs:
    def test_triangle(self):
        g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3")
        assert g.n == 3 and g.m == 3

    def test_isolated_vertices(self):
        g = parse_dimacs("p edge 2 0")
        assert g.n == 2 and g.m == 0

    def test_edge_before_header(self):
        with pytest.raises(ParseError, match="before"):
            parse_dimacs("e 1 2\np edge 2 1")

    def test_out_of_range_endpoint(self):
        with pytest.raises(ParseError, match="outside"):
            parse_dimacs("p edge 2 1\ne 1 5")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="declares 2"):
            parse_dimacs("p edge 3 2\ne 1 2")

    def test_comment_lines(self):
        assert parse_dimacs("c header\np edge 2 1\ne 1 2").m == 1


class TestAdjacencyCsv:
    def test_triangle(self):
        text = ",a,b,c\na,0,1,1\nb,1,0,1\nc,1,1,0\n"
        g = parse_adjacency_csv(text)
        assert g.n == 3 and g.m == 3

    def test_or_symmetrization_warns(self):
        text = ",a,b\na,0,1\nb,0,0\n"
        with pytest.warns(UserWarning, match="symmetrized"):
            g = parse_adjacency_csv(text)
        assert g.m == 1

    def test_non_square(self):
        with pytest.raises(ParseError, match="non-square"):
            parse_adjacency_csv(",a,b,c\na,0,1,0\n")

    def test_non_binary_cell_coordinates(self):
        with pytest.raises(ParseError, match=r"cell \(3, 2\)"):
            parse_adjacency_csv(",a,b\na,0,1\nb,2,0\n")

    def test_diagonal_self_loop(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_adjacency_csv(",a,b\na,1,1\nb,1,0\n")

    def test_non_lexicographic_column_order_is_remapped(self):
        g = parse_adjacency_csv(",b,a,c\nb,0,1,0\na,1,0,0\nc,0,0,0\n")
        assert g.labels == ("a", "b", "c")
        assert g.has_edge(g.id_of("a"), g.id_of("b"))
        assert g.degree(g.id_of("c")) == 0


class TestRoundTrips:
    def test_edge_list(self):
        g = load_assyrian()
        again = parse_edge_list(write_edge_list(g))
        assert again.adj == g.adj and again.labels == g.labels

    def test_edge_list_rejects_isolated_vertices(self):
        with pytest.raises(GraphError, match="isolated"):
            write_edge_list(named("empty", 2))

    def test_writers_reject_unserializable_labels(self):
        bad = from_edges(2, [(0, 1)], labels=["has space", "ok"])
        with pytest.raises(GraphError, match="whitespace"):
            write_edge_list(bad)
        comma = from_edges(2, [(0, 1)], labels=["a,b", "ok"])
        with pytest.raises(GraphError, match="separator"):
            write_adjacency_csv(comma)

    def test_dimacs(self):
        g = gnp(12, 0.4, 3)
        assert parse_dimacs(write_dimacs(g)).adj == g.adj

    def test_csv(self):
        g = load_assyrian()
        again = parse_adjacency_csv(write_adjacency_csv(g))
        assert again.adj == g.adj and again.labels == g.labels


class TestAssyrianDataset:
    def test_shape_and_invariants(self):
        g = load_assyrian()
        assert g.n == 30 and g.m == 42
        for v in range(g.n):
            assert not g.adj[v] >> v & 1

    def test_golden_cliques_by_name(self):
        g = load_assyrian()
        found = [
            {g.label_of(v) for v in c} for c in bk_pivot(g, 3).cliques
        ]
        assert found == GOLDEN_CLIQUES

    def test_golden_cliques_are_maximal_by_predicate(self):
        g = load_assyrian()
        for names in GOLDEN_CLIQUES:
            assert is_maximal_clique(g, (g.id_of(x) for x in names))

    def test_clique_core_verified_by_oracle(self):
        # The 19 triangle-covered merchants form a subgraph small enough for
        # the subset-scan oracle; the six cliques must be exactly its
        # size->=3 maximal cliques, and the periphery must be triangle-free.
        from cliquetrace import cliqual_vertices, induced_subgraph

        g = load_assyrian()
        core = cliqual_vertices(g)
        assert len(core) == 19
        sub, mapping = induced_subgraph(g, core)
        back = {new: old for old, new in mapping.items()}
        truth = {
            frozenset(g.label_of(back[v]) for v in c)
            for c in oracle_maximal_cliques(sub, 3)
        }
        assert truth == {frozenset(s) for s in GOLDEN_CLIQUES}
        ts = triangle_support(g)
        for v in range(g.n):
            if v not in set(core):
                assert all(x == 0 for x in ts.t[v])


_SINGLETON = json.loads(write_report_json(bk_pivot(named("complete", 1))))
_EDGE_DIFF = json.loads(
    write_report_json(run_comparison(named("complete", 2), ["bk_basic", "bk_pivot"]))
)
_MOTIFS = json.loads(write_report_json(motif_census(named("cycle", 5), 5)))


def _edge_diff_present(present: dict) -> dict:
    """The edge diff with its one agreed row's ``present`` replaced."""
    return dict(_EDGE_DIFF, rows=[dict(_EDGE_DIFF["rows"][0], present=present)])


class TestReportJson:
    def test_empty_report(self):
        rep = bk_pivot(named("empty", 2), 3)
        text = write_report_json(rep)
        assert '"cliques": []' in text
        assert '"census": {}' in text

    def test_triangle_report(self):
        g = named("complete", 3)
        rep = bk_pivot(g)
        text = write_report_json(rep)
        assert read_report_json(text) == rep

    def test_serialization_is_deterministic(self):
        rep = bk_pivot(gnp(10, 0.5, 1))
        assert write_report_json(rep) == write_report_json(rep)

    def test_diff_report_round_trip_drops_timing(self):
        diff = run_comparison(named("complete", 3), ["bk_basic", "bk_pivot"])
        text = write_report_json(diff)
        again = read_report_json(text)
        assert write_report_json(again) == text
        assert again.rows == diff.rows
        assert all(rep.elapsed_us == 0 for rep in again.reports.values())

    def test_motif_census_round_trip(self):
        census = motif_census(named("cycle", 6), 6)
        assert read_report_json(write_report_json(census)) == census

    def test_unknown_payload(self):
        with pytest.raises(ParseError):
            read_report_json("{}")

    def test_missing_key_is_a_parse_error_naming_it(self):
        payload = json.loads(write_report_json(bk_pivot(named("complete", 3))))
        del payload["graph"]
        with pytest.raises(ParseError, match="'graph'"):
            read_report_json(json.dumps(payload))

    def test_census_that_disagrees_with_the_cliques_is_a_parse_error(self):
        payload = json.loads(write_report_json(bk_pivot(named("complete", 3))))
        payload["census"] = {"3": 2}  # one clique, but a census of two
        with pytest.raises(ParseError, match="'census'"):
            read_report_json(json.dumps(payload))

    def test_diff_witnesses_that_disagree_with_the_rows_are_a_parse_error(self):
        diff = run_comparison(gnp(10, 0.5, 0), ["bk_pivot", "harary1957"])
        payload = json.loads(write_report_json(diff))
        assert payload["witnesses"]
        payload["witnesses"] = payload["witnesses"][1:]
        with pytest.raises(ParseError, match="'witnesses'"):
            read_report_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps(dict(_SINGLETON, cliques=[[1, 0]], census={"2": 1})),
            "3",
            "not json",
            json.dumps(dict(_SINGLETON, census={"one": 1})),
            json.dumps(dict(_SINGLETON, cliques=5)),
            json.dumps(_edge_diff_present({"bk_basic": False, "bk_pivot": True})),
        ],
        ids=[
            "unsorted-out-of-range-row", "number", "not-json", "census-key", "cliques-number",
            "agreed-row-one-absent",
        ],
    )
    def test_malformed_payload_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            read_report_json(text)

    @pytest.mark.parametrize(
        "key,payload",
        [
            ("elapsed_us", dict(_SINGLETON, elapsed_us="fast")),
            ("elapsed_us", dict(_SINGLETON, elapsed_us=-5)),
            ("flags", dict(_SINGLETON, flags="AB")),
            ("flags", dict(_SINGLETON, flags=[1])),
            ("algorithm", dict(_SINGLETON, algorithm=7)),
            ("m", dict(_SINGLETON, graph={"n": 1, "m": "x"})),
            ("n", dict(_SINGLETON, graph={"n": 1.0, "m": 0})),
            ("min_size", dict(_EDGE_DIFF, min_size=True)),
            ("min_size", dict(_EDGE_DIFF, min_size=0)),
            ("algorithms", dict(_EDGE_DIFF, algorithms="bk_basic")),
            ("m", dict(_EDGE_DIFF, graph={"n": 2, "m": -1})),
            ("present", _edge_diff_present({"bk_basic": "no", "bk_pivot": 0})),
            ("5", dict(_MOTIFS, cycles={"5": "x"})),
        ],
        ids=[
            "elapsed-str", "elapsed-negative", "flags-str", "flags-ints", "algorithm-int",
            "m-str", "n-float", "min-size-bool", "min-size-zero",
            "algorithms-str", "diff-m-negative", "present-not-bool", "motif-count-str",
        ],
    )
    def test_value_of_the_wrong_type_is_a_parse_error_naming_the_key(self, key, payload):
        with pytest.raises(ParseError, match=f"key '{key}' is not"):
            read_report_json(json.dumps(payload))

    @pytest.mark.parametrize("row", [[0, 0], [2], [-1], [0.0], [True], "0"])
    def test_every_clique_row_of_a_diff_is_checked(self, row):
        diff = run_comparison(named("complete", 2), ["bk_basic", "bk_pivot"])
        payload = json.loads(write_report_json(diff))
        bad_row = json.loads(json.dumps(payload))
        bad_row["rows"][0]["clique"] = row
        bad_report = json.loads(json.dumps(payload))
        bad_report["reports"]["bk_pivot"]["cliques"][0] = row
        for bad in (bad_row, bad_report):
            with pytest.raises(ParseError, match="clique"):
                read_report_json(json.dumps(bad))

    @pytest.mark.parametrize(
        "cliques",
        [[[0], [1, 2]], [[1, 2], [0, 1]], [[0, 1], [0, 1]]],
        ids=["small-before-large", "lex-descending", "repeated"],
    )
    def test_clique_rows_out_of_canonical_order_are_a_parse_error(self, cliques):
        payload = json.loads(write_report_json(bk_pivot(named("path", 3))))
        census = {str(size): count for size, count in Counter(map(len, cliques)).items()}
        with pytest.raises(ParseError, match="'cliques'"):
            read_report_json(json.dumps(dict(payload, cliques=cliques, census=census)))

    def test_diff_row_present_keys_must_be_the_algorithms(self):
        diff = run_comparison(named("complete", 3), ["bk_basic", "bk_pivot"])
        payload = json.loads(write_report_json(diff))
        payload["rows"][0]["present"] = {"bk_basic": True}
        with pytest.raises(ParseError, match="'present'"):
            read_report_json(json.dumps(payload))

    def test_diff_row_classification_must_be_known(self):
        diff = run_comparison(named("complete", 3), ["bk_basic", "bk_pivot"])
        payload = json.loads(write_report_json(diff))
        payload["rows"][0]["classification"] = "maybe"
        with pytest.raises(ParseError, match="'classification'"):
            read_report_json(json.dumps(payload))

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            write_report_json(42)


def test_missing_dataset_raises_dataset_error(monkeypatch):
    import cliquetrace.graphio as gio

    monkeypatch.setattr(gio, "ASSYRIAN_RESOURCE", "no_such_file.edges")
    with pytest.raises(DatasetError, match="missing"):
        load_assyrian()


def test_dimacs_p_col_header_parses_like_p_edge():
    body = "c the clique benchmark header\ne 1 2\ne 2 3\ne 1 3\ne 3 4\n"
    col = parse_dimacs("p col 4 4\n" + body)
    edge = parse_dimacs("p edge 4 4\n" + body)
    assert (col.n, col.adj) == (edge.n, edge.adj) == (4, (0b110, 0b101, 0b1011, 0b100))
    with pytest.raises(ParseError, match="expected 'p edge n m'"):
        parse_dimacs("p cnf 4 4\n" + body)
