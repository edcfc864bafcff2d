"""Generator determinism, guards, and structural invariants."""

from __future__ import annotations

import hashlib
import resource
import tracemalloc

import pytest

from cliquetrace import (
    GraphError,
    GuardError,
    SplitMix64,
    bk_pivot,
    degeneracy_ordering,
    gnp,
    moon_moser,
    named,
    parse_gen_spec,
    random_ktree,
    simplicial_reduction,
)
from cliquetrace.generators import _CHUNK, _edge_digits
from cliquetrace.graph import MAX_VERTICES, from_edges
from conftest import run_python

# Reference outputs of the splitmix64 C code (Vigna's public-domain version).
SPLITMIX_VECTORS = {
    0: (16294208416658607535, 7960286522194355700, 487617019471545679),
    42: (13679457532755275413, 2949826092126892291, 5139283748462763858),
    123456789: (2466975172287755897, 8832083440362974766, 3534771765162737125),
}

# Golden edge-set digests guarding cross-platform gnp reproducibility.
GNP_DIGESTS = {
    (20, 0.3, 1): "ed512ed3c5a63cc55703452399ba9daed9b6f67a371d127e0f9893cd14be24e2",
    (16, 0.5, 7): "27be02edac45b132a5ab74c3bdbcbe09c6c98fdafbed5b73e1955840a9ed1626",
    (12, 0.8, 42): "165fe4f2c1939624e15edd741ebc33283b2446af83e1714ba87758ff0ec7c00d",
}


# Golden digests of larger graphs, taken from the row-by-row scalar gnp and
# the set-based random_ktree pool before either was rewritten.
LARGE_GNP_DIGESTS = {
    (2000, 0.01, 1): "d7126a03ef018d16186a6a22453844e4239ecbd5c2593915946c1374047a89b7",
    (85, 0.5, 16): "46e203699fb6fe3e2c653923c588d4e2bfdf7a0d8dc43fc5938ffb63cfbc4922",
    (0, 0.5, 1): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}
KTREE_DIGESTS = {
    (2000, 5, 1): "7d600be9fa59e3ed7a25fdbcb2cd424770b03e5fb303fe9eb6f659c8c822003c",
    (60, 3, 7): "30e78a9d0719ef1bb12c517cd646dd6689861dae0235d1629cb62eca92e25beb",
}


def _edge_digest(g):
    text = ";".join(f"{u},{v}" for u, v in g.edges())
    return hashlib.sha256(text.encode()).hexdigest()


def _gnp_reference(n, p, seed):
    """The scalar definition of gnp: one SplitMix64 draw per pair, row-major."""
    threshold = round(p * 2.0**64)
    rng = SplitMix64(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.next_u64() < threshold:
                edges.append((i, j))
    return from_edges(n, edges)


class TestSplitMix64:
    @pytest.mark.parametrize("seed,expected", sorted(SPLITMIX_VECTORS.items()))
    def test_reference_vectors(self, seed, expected):
        rng = SplitMix64(seed)
        assert tuple(rng.next_u64() for _ in range(3)) == expected

    def test_below_requires_positive_bound(self):
        with pytest.raises(ValueError):
            SplitMix64(0).below(0)


class TestMoonMoser:
    def test_k1_is_three_isolated_vertices(self):
        g = moon_moser(1)
        assert g.n == 3 and g.m == 0

    def test_k2_shape(self):
        g = moon_moser(2)
        assert g.n == 6 and g.m == 9
        rep = bk_pivot(g)
        assert len(rep.cliques) == 9
        assert all(len(c) == 2 for c in rep.cliques)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_structure_and_clique_count(self, k):
        g = moon_moser(k)
        assert g.n == 3 * k
        assert g.m == 9 * k * (k - 1) // 2
        rep = bk_pivot(g)
        assert len(rep.cliques) == 3**k
        assert max(rep.census) == k

    def test_guard(self):
        with pytest.raises(GuardError):
            moon_moser(21)
        with pytest.raises(GuardError):
            moon_moser(0)


class TestGnp:
    def test_p0_empty(self):
        assert gnp(10, 0.0, 3).m == 0

    def test_p1_complete(self):
        assert gnp(10, 1.0, 3).m == 45

    def test_determinism(self):
        assert gnp(10, 0.5, 42).adj == gnp(10, 0.5, 42).adj

    def test_invalid_p(self):
        with pytest.raises(GraphError):
            gnp(5, 1.5, 0)

    def test_negative_vertex_count(self):
        with pytest.raises(GraphError, match="negative"):
            gnp(-1, 0.5, 0)

    @pytest.mark.parametrize("key,digest", sorted(GNP_DIGESTS.items()))
    def test_golden_edge_digests(self, key, digest):
        n, p, seed = key
        g = gnp(n, p, seed)
        text = ";".join(f"{u},{v}" for u, v in g.edges())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("key,digest", sorted(LARGE_GNP_DIGESTS.items()))
    def test_large_golden_edge_digests(self, key, digest):
        assert _edge_digest(gnp(*key)) == digest

    @pytest.mark.parametrize("seed", [0, 1, 42, -1, 2**64 + 5])
    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.3, 0.5, 0.7, 1.0])
    def test_rows_equal_the_scalar_reference(self, p, seed):
        for n in range(41):
            assert gnp(n, p, seed).adj == _gnp_reference(n, p, seed).adj, n

    @pytest.mark.parametrize("seed", [0, -1, 2**64 + 5])
    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.5, 1.0])
    @pytest.mark.parametrize("total", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_draw_digits_across_chunk_boundaries(self, total, p, seed):
        threshold = round(p * 2.0**64)
        rng = SplitMix64(seed)
        expected = bytes(b"01"[rng.next_u64() < threshold] for _ in range(total))
        chunks = list(_edge_digits(total, p, seed))
        assert len(chunks) == -(-total // _CHUNK)
        assert all(len(c) == min(total, _CHUNK) for c in chunks)
        assert b"".join(chunks)[:total] == expected

    def test_memory_stays_below_the_edge_byte_string(self):
        """The decode never holds the whole digit stream: the peak stays
        under n(n-1)/2 bytes, one byte per pair."""
        n = 2000
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            g = gnp(n, 0.01, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == n
        assert peak < n * (n - 1) // 2

    def test_runs_without_numpy(self):
        """gnp and the gnp spec build with numpy blocked."""
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from cliquetrace import gnp, parse_gen_spec\n"
            "assert gnp(300, 0.5, 1).n == 300\n"
            "assert parse_gen_spec('gnp:n=20,p=0.3,seed=1').adj == gnp(20, 0.3, 1).adj\n"
            "assert sys.modules.get('numpy') is None\n"
            "print('ok')\n"
        )
        child = run_python(script)
        assert child.returncode == 0, child.stderr
        assert child.stdout == "ok\n"


class TestRandomKtree:
    def test_minimum_is_complete(self):
        g = random_ktree(4, 3, 0)
        assert g.m == 6

    def test_output_is_chordal(self):
        for seed in range(5):
            g = random_ktree(12, 3, seed)
            assert simplicial_reduction(g).residual.n == 0

    def test_degeneracy_equals_k(self):
        assert degeneracy_ordering(random_ktree(8, 2, 7)).degeneracy == 2

    @pytest.mark.parametrize("key,digest", sorted(KTREE_DIGESTS.items()))
    def test_golden_edge_digests(self, key, digest):
        assert _edge_digest(random_ktree(*key)) == digest

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            random_ktree(3, 3, 0)
        with pytest.raises(GraphError):
            random_ktree(5, 0, 0)


class TestNamed:
    def test_cycle3_equals_complete3(self):
        assert named("cycle", 3).adj == named("complete", 3).adj

    def test_star_counts_leaves(self):
        g = named("star", 4)
        assert g.n == 5 and g.m == 4
        assert g.degree(0) == 4

    def test_empty(self):
        assert named("empty", 5).m == 0

    def test_cycle_needs_three(self):
        with pytest.raises(GraphError):
            named("cycle", 2)

    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            named("wheel", 5)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_rows_equal_the_edge_list_build(self, n):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert named("complete", n) == from_edges(n, edges)

    def test_complete_memory_is_bounded_by_its_rows(self):
        """K_20000's rows take 50 MB; its 199,990,000 edge tuples would not fit
        in the 800 MB address space the child is limited to. One vertex past
        the guard is refused before anything is built."""
        limit = 800 << 20

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        script = (
            "from cliquetrace import GuardError, named\n"
            "print('m =', named('complete', 20000).m)\n"
            f"try:\n    named('complete', {MAX_VERTICES + 1})\n"
            "except GuardError as exc:\n    print(exc)\n"
        )
        child = run_python(script, preexec_fn=cap_address_space)
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines() == [
            "m = 199990000",
            f"complete graph refuses n={MAX_VERTICES + 1}: the vertex guard allows n <= {MAX_VERTICES}",
        ]


class TestGenSpec:
    def test_moonmoser(self):
        assert parse_gen_spec("moonmoser:k=2").n == 6

    def test_gnp_roundtrip(self):
        assert parse_gen_spec("gnp:n=10,p=0.5,seed=1").adj == gnp(10, 0.5, 1).adj

    def test_named(self):
        assert parse_gen_spec("empty:n=7").n == 7

    def test_bad_spec(self):
        with pytest.raises(GraphError):
            parse_gen_spec("gnp:n=10")
        with pytest.raises(GraphError):
            parse_gen_spec("lattice:n=4")
        with pytest.raises(GraphError):
            parse_gen_spec("gnp:n=ten,p=0.5,seed=1")
