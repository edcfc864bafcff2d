#!/usr/bin/env python3
"""Differential campaign against the historical reconstruction.

Runs the 1957 procedure over seeded random graphs, classifies every emitted
set with the oracle, and summarizes how often it over-reports (spurious
sets) or falls back to non-clique residual components, by edge density."""

import argparse

from cliquetrace import gnp, harary_ross_reconstruction, oracle_maximal_cliques
from cliquetrace.harary import PROV_RESIDUAL_FALLBACK


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--graphs", type=int, default=100)
    args = parser.parse_args()

    for p in (0.2, 0.4, 0.6, 0.8):
        spurious_graphs = fallback_graphs = missing_graphs = 0
        for seed in range(args.graphs):
            g = gnp(args.n, p, seed)
            hist = harary_ross_reconstruction(g)
            truth = set(oracle_maximal_cliques(g, 3))
            if hist.spurious:
                spurious_graphs += 1
            if any(PROV_RESIDUAL_FALLBACK in f for f in hist.flags.values()):
                fallback_graphs += 1
            if not truth <= set(hist.true_cliques):
                missing_graphs += 1
        print(
            f"n={args.n} p={p}: {args.graphs} graphs | "
            f"spurious in {spurious_graphs} | residual fallback in {fallback_graphs} | "
            f"true cliques missed in {missing_graphs}"
        )


if __name__ == "__main__":
    main()
