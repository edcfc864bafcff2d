#!/usr/bin/env python3
"""Run a fixed corpus of source mutants against the tests that should catch them.

Each mutant replaces one text, which must occur exactly once in its file
under src/, with another. For each mutant the script copies src/, tests/
(whose child interpreters import the src/ beside them, so they see the
mutant too) and pyproject.toml to a temporary directory, applies the
mutant there, runs the mutant's test selection with pytest against that
copy (stopping at the first failure), and prints ``<name>: killed`` when a
test failed or ``<name>: survived`` when all passed. It exits 1 when a
mutant survived or could not be run.

    python scripts/mutants.py

Needs pytest and hypothesis, as the tests do.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, relative to the repository root


SEARCH = "src/cliquetrace/enumerators.py"
SEARCH_TESTS = ("tests/test_enumerators.py", "-k", "SearchContract or ClosedFrames or FreePivot")
HARNESS = "src/cliquetrace/harness.py"
HARNESS_TESTS = ("tests/test_harness.py",)

CORPUS = (
    # |P| = 0: report R even when X holds a vertex that extends it.
    Mutant(
        "leaf-ignores-x",
        SEARCH,
        "            if not p:\n                if not x:\n",
        "            if not p:\n                if True:\n",
        SEARCH_TESTS,
    ),
    # |P| = 1: ask for X empty instead of X not adjacent to w.
    Mutant(
        "closed-one-needs-empty-x",
        SEARCH,
        "                if not x & adj[w]:\n",
        "                if not x:\n",
        SEARCH_TESTS,
    ),
    # |P| = 2 on an edge: block the edge when X is adjacent to either end.
    Mutant(
        "closed-two-edge-blocked-by-either-end",
        SEARCH,
        "                    if not xa & xb:\n",
        "                    if not xa | xb:\n",
        SEARCH_TESTS,
    ),
    # |P| = 2 on a non-edge: test a against X where b belongs.
    Mutant(
        "closed-two-singletons-swap-x",
        SEARCH,
        "                    if not xb:\n",
        "                    if not xa:\n",
        SEARCH_TESTS,
    ),
    # |P| = 3: take a path through a for a triangle.
    Mutant(
        "closed-three-path-as-triangle",
        SEARCH,
        "                if ab and ac and bc:\n",
        "                if ab and ac:\n",
        SEARCH_TESTS,
    ),
    # Free pivot that also drops the pivot itself from the branches.
    Mutant(
        "free-pivot-drops-pivot",
        SEARCH,
        "        return p & ~adj[(todo & -todo).bit_length() - 1]\n",
        "        return p & ~adj[(todo & -todo).bit_length() - 1] & ~(todo & -todo)\n",
        SEARCH_TESTS,
    ),
    # A witness that is no maximal clique still classified a true clique.
    Mutant(
        "comparison-never-spurious",
        HARNESS,
        "        elif is_maximal_clique(g, clique):\n",
        "        elif True:\n",
        HARNESS_TESTS,
    ),
    # bench times enumerators whose outputs differ without complaint.
    Mutant(
        "bench-agreement-never-checked",
        HARNESS,
        "    if any(cliques != outputs[0] for cliques in outputs[1:]):\n",
        "    if False:\n",
        HARNESS_TESTS,
    ),
)


def run(mutant: Mutant) -> str:
    """``killed``, ``survived``, or ``error: ...`` for one mutant."""
    source = (ROOT / mutant.file).read_text()
    if source.count(mutant.old) != 1:
        return f"error: the old text occurs {source.count(mutant.old)} times in {mutant.file}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / name, work / name)
        (work / mutant.file).write_text(source.replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=work,
            env={**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
            timeout=600,
        )
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1:  # pytest: some test failed
        return "killed"
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return f"error: pytest exited {proc.returncode}: {lines[-1] if lines else ''}"


def main() -> int:
    ok = True
    for mutant in CORPUS:
        outcome = run(mutant)
        print(f"{mutant.name}: {outcome}", flush=True)
        ok &= outcome == "killed"
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
