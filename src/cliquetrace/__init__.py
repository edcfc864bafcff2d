"""Maximal-clique enumeration, maximum-clique search, motif censuses, and a
differential-testing harness that cross-checks every algorithm, including a
reconstruction of the flawed 1957 matrix procedure, against a brute-force
oracle."""

from .bound import BoundTable, SearchStats, max_clique_bb
from .enumerators import (
    DegeneracyOrder,
    ReductionResult,
    degeneracy_ordering,
    simplicial_reduction,
)
from .errors import (
    DatasetError,
    DisagreementError,
    GraphError,
    GuardError,
    ParseError,
)
from .generators import (
    SplitMix64,
    gnp,
    moon_moser,
    named,
    parse_gen_spec,
    random_ktree,
)
from .graph import (
    Clique,
    Graph,
    canonicalize,
    filter_nested,
    from_edges,
    induced_subgraph,
    is_clique,
    is_maximal_clique,
)
from .graphio import (
    load_assyrian,
    parse_adjacency_csv,
    parse_dimacs,
    parse_edge_list,
    read_report_json,
    write_adjacency_csv,
    write_dimacs,
    write_edge_list,
    write_report_json,
)
from .harary import (
    HistoricalReport,
    cliqual_vertices,
    harary_ross_reconstruction,
)
from .harness import (
    ALGORITHMS,
    MODERN_ENUMERATORS,
    bench,
    bk_basic,
    bk_degeneracy,
    bk_pivot,
    render_bench,
    render_diff,
    resolve_algorithm,
    run_comparison,
    table1,
)
from .motifs import chain_census, cycle_census, motif_census, star_census
from .oracle import (
    ORACLE_MAX_N,
    oracle_maximal_cliques,
    oracle_maximum_clique,
)
from .reports import CliqueReport, DiffReport, DiffRow, MotifCensus

__all__ = [
    "ALGORITHMS",
    "BoundTable",
    "Clique",
    "CliqueReport",
    "DatasetError",
    "DegeneracyOrder",
    "DiffReport",
    "DiffRow",
    "DisagreementError",
    "Graph",
    "GraphError",
    "GuardError",
    "HistoricalReport",
    "MODERN_ENUMERATORS",
    "MotifCensus",
    "ORACLE_MAX_N",
    "ParseError",
    "ReductionResult",
    "SearchStats",
    "SplitMix64",
    "bench",
    "bk_basic",
    "bk_degeneracy",
    "bk_pivot",
    "canonicalize",
    "chain_census",
    "cliqual_vertices",
    "cycle_census",
    "degeneracy_ordering",
    "filter_nested",
    "from_edges",
    "gnp",
    "harary_ross_reconstruction",
    "induced_subgraph",
    "is_clique",
    "is_maximal_clique",
    "load_assyrian",
    "max_clique_bb",
    "moon_moser",
    "motif_census",
    "named",
    "oracle_maximal_cliques",
    "oracle_maximum_clique",
    "parse_adjacency_csv",
    "parse_dimacs",
    "parse_edge_list",
    "parse_gen_spec",
    "random_ktree",
    "read_report_json",
    "render_bench",
    "render_diff",
    "resolve_algorithm",
    "run_comparison",
    "simplicial_reduction",
    "star_census",
    "table1",
    "write_adjacency_csv",
    "write_dimacs",
    "write_edge_list",
    "write_report_json",
]
