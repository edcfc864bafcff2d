"""Shared corpus builders and hypothesis strategies."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from cliquetrace import Graph, from_edges, gnp, random_ktree

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(script: str, timeout: float = 120, **run_args) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout's
    package, for at most ``timeout`` seconds; ``run_args`` (say, a
    ``preexec_fn``) go to ``subprocess.run``."""
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=timeout,
        **run_args,
    )


def gnp_corpus(ns, ps, seeds) -> list[Graph]:
    """Deterministic seeded random-graph corpus."""
    return [gnp(n, p, seed) for n in ns for p in ps for seed in seeds]


def ktree_corpus(cases) -> list[Graph]:
    """Deterministic chordal corpus; cases are (n, k, seed) triples."""
    return [random_ktree(n, k, seed) for n, k, seed in cases]


def octahedron() -> Graph:
    """K_{2,2,2}: every vertex sits in triangles, no vertex is unicliqual."""
    return from_edges(
        6, [(u, v) for u in range(6) for v in range(u + 1, 6) if u + 3 != v and v + 3 != u]
    )


@st.composite
def graphs(draw, max_n: int = 10):
    """Arbitrary small graphs with good shrinking behavior."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return from_edges(n, edges)


@pytest.fixture(scope="session")
def small_random_graphs() -> list[Graph]:
    """216 seeded graphs with n in [4, 12] across three densities."""
    return gnp_corpus(range(4, 13), (0.2, 0.5, 0.8), range(8))
