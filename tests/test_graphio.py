"""Parsers, writers, the bundled dataset, and report JSON round trips."""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from cliquetrace import (
    ALGORITHMS,
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
        for v in set(range(g.n)) - set(core):
            assert all(g.adj[u] & g.adj[v] == 0 for u in g.neighbors(v))


_SINGLETON = json.loads(write_report_json(bk_pivot(named("complete", 1))))
_EDGE_DIFF = json.loads(
    write_report_json(run_comparison(named("complete", 2), ["bk_basic", "bk_pivot"]))
)
_MOTIFS = json.loads(write_report_json(motif_census(named("cycle", 5), 5)))


def _edge_diff_present(present: dict) -> dict:
    """The edge diff with its one agreed row's ``present`` replaced."""
    return dict(_EDGE_DIFF, rows=[dict(_EDGE_DIFF["rows"][0], present=present)])


def _edited(report, edit) -> dict:
    """``report``'s payload after ``edit`` has changed it in place."""
    payload = json.loads(write_report_json(report))
    edit(payload)
    return payload


_TRIANGLE_DIFF = run_comparison(named("complete", 3), ["bk_basic", "bk_pivot"])
_ISOLATED_DIFF = run_comparison(
    from_edges(4, [(0, 1), (1, 2), (0, 2)]), ["bk_basic", "bk_pivot"], min_size=1
)

# Edited payloads and the message each must raise.
_EDITED = {
    "report-deleted": (
        _edited(_TRIANGLE_DIFF, lambda p: p["reports"].pop("bk_pivot")),
        "missing key 'bk_pivot'",
    ),
    "report-emptied": (
        _edited(_TRIANGLE_DIFF, lambda p: p["reports"]["bk_pivot"].update(cliques=[], census={})),
        r"key 'classification' of row \[0, 1, 2\]",
    ),
    "inner-timing": (
        _edited(_TRIANGLE_DIFF, lambda p: p["reports"]["bk_basic"].update(elapsed_us=77)),
        r"key 'elapsed_us' at reports\['bk_basic'\] is 77, not 0",
    ),
    "inner-algorithm": (
        _edited(_TRIANGLE_DIFF, lambda p: p["reports"]["bk_basic"].update(algorithm="oracle")),
        r"key 'algorithm' at reports\['bk_basic'\] is 'oracle', not 'bk_basic'",
    ),
    "row-size": (
        _edited(_TRIANGLE_DIFF, lambda p: p["rows"][0].update(size=9)),
        r"key 'size' at rows\[0\] is 9, not 3",
    ),
    "motif-key-zero-padded": (
        _edited(
            motif_census(named("cycle", 5), 5),
            lambda p: p["chains"].update({"03": p["chains"].pop("3")}),
        ),
        "key 'chains' is",
    ),
    "min-size-raised": (
        _edited(_ISOLATED_DIFF, lambda p: p.update(min_size=2)),
        r"key 'census' at reports\['bk_basic'\] is \{'1': 1, '3': 1\}",
    ),
    "present-not-bool": (
        _edge_diff_present({"bk_basic": "no", "bk_pivot": 0}),
        r"key 'present' at rows\[0\]",
    ),
}


@given(
    st.integers(0, 12),
    st.sampled_from((0.2, 0.5, 0.8)),
    st.integers(0, 1000),
    st.lists(st.sampled_from(sorted(ALGORITHMS)), min_size=2, max_size=4, unique=True),
    st.integers(1, 3),
    st.integers(3, 4),
)
def test_every_written_payload_reads_back_to_its_text(n, p, seed, ids, min_size, max_len):
    g = gnp(n, p, seed)
    reports = [algo.run(g, min_size) for algo in ALGORITHMS.values()]
    for report in [*reports, run_comparison(g, ids, min_size), motif_census(g, max_len)]:
        text = write_report_json(report)
        assert write_report_json(read_report_json(text)) == text


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
            "[" * 100_000,
        ],
        ids=[
            "unsorted-out-of-range-row", "number", "not-json", "census-key", "cliques-number",
            "agreed-row-one-absent", "nested-too-deep",
        ],
    )
    def test_malformed_payload_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            read_report_json(text)

    def test_deep_extra_key_is_a_parse_error(self):
        """Nesting the decoder takes but the indenting encoder, which
        recurses deeper per level, does not. Where the two limits fall
        depends on the depth of the calling stack, so the five deepest
        payloads this frame can decode are tried."""

        def nested(depth: int) -> str:
            return json.dumps(_SINGLETON)[:-1] + ', "extra": ' + "[" * depth + "]" * depth + "}"

        def decodes(text: str) -> bool:
            try:
                json.loads(text)
            except RecursionError:
                return False
            return True

        deepest = next(d for d in range(2000, 0, -1) if decodes(nested(d)))
        for depth in range(deepest - 4, deepest + 1):
            with pytest.raises(ParseError):
                read_report_json(nested(depth))

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
            ("5", dict(_MOTIFS, cycles={"5": "x"})),
        ],
        ids=[
            "elapsed-str", "elapsed-negative", "flags-str", "flags-ints", "algorithm-int",
            "m-str", "n-float", "min-size-bool", "min-size-zero",
            "algorithms-str", "diff-m-negative", "motif-count-str",
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
        "cliques,key",
        [([[0], [1, 2]], "cliques"), ([[1, 2], [0, 1]], "cliques"), ([[0, 1], [0, 1]], "census")],
        ids=["small-before-large", "lex-descending", "repeated"],
    )
    def test_clique_rows_out_of_canonical_order_are_a_parse_error(self, cliques, key):
        """The rows are re-sorted and their census retaken; a repeat drops
        out, so the census, the first key in sorted order, differs first."""
        payload = json.loads(write_report_json(bk_pivot(named("path", 3))))
        census = {str(size): count for size, count in Counter(map(len, cliques)).items()}
        with pytest.raises(ParseError, match=f"'{key}'"):
            read_report_json(json.dumps(dict(payload, cliques=cliques, census=census)))

    @pytest.mark.parametrize("case", list(_EDITED), ids=list(_EDITED))
    def test_an_edited_derived_field_is_a_parse_error_naming_it(self, case):
        """Each payload but ``present-not-bool`` read back without error
        before the reader rebuilt what it derives and compared the texts."""
        payload, match = _EDITED[case]
        with pytest.raises(ParseError, match=match):
            read_report_json(json.dumps(payload))

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
