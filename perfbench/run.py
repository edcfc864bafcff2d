#!/usr/bin/env python3
"""cliquetrace benchmark: one named workload per process.

    python3 perfbench/run.py --workload large|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Load model: a closed loop in one process and one thread; each operation
starts after the previous one returns, and CLI children run one at a time.

Until ``--seconds`` have elapsed, the run repeats a set-up slice and a
pass (see suite.py), checking every output. A set-up slice generates the
workload's graphs from the seed at least once and until SETUP_SLICE_S
seconds have passed; ``setup_s`` is the median of all set-ups, whose
samples are spread over the whole run like the passes. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``:

* ``--trace 0``: the end-to-end metrics: for each phase, the best time of
  each of its operations over the passes, summed over the operations; plus
  ``peak_rss_mb`` of this process (children excluded). The best time, not
  the median: the reference host runs up to about 1.5 times slower for
  tens of seconds at a time, so a median over passes reads the share of
  the run spent slowed, while each operation's best time reads the program;
* ``--trace 1``: the per-layer metrics, medians over traced passes that
  alternate with untraced ones; ``trace.overhead_ratio`` compares the two.
  The deterministic counters are also printed on the line before, alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SLICE_S = 0.2
WORKLOAD_NAMES = ("large", "verify")


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB), children excluded."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(suite, workload: str, seed: int, seconds: int, traced: bool, import_rss_mb: float) -> dict:
    tally = suite.Tally()
    # Untimed: a child import writes the bytecode caches CLI children reuse.
    tally.run("warm-up import", suite.run_import_probe)
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        setup_s, gen_s = [], []

        def set_up():
            slice_start = time.perf_counter()
            while True:
                tally.pass_no = -1 - len(setup_s)
                tr = suite.Trace() if traced else suite.NoTrace()
                start = time.perf_counter()
                inputs = suite.build_inputs(workload, seed, Path(tmp), tally, tr)
                setup_s.append(time.perf_counter() - start)
                if traced:
                    gen_s.append(tr.seconds["generators.gen"])
                if time.perf_counter() - slice_start >= SETUP_SLICE_S:
                    return inputs

        phases = defaultdict(list)  # phase -> per pass, its operation times
        totals = {False: [], True: []}
        layers = defaultdict(list)
        units = {}
        start = time.perf_counter()
        n = 0
        while n < (2 if traced else 1) or time.perf_counter() - start < seconds:
            inputs = set_up()
            tally.pass_no = n
            trace_this = traced and n % 2 == 1
            tr = suite.Trace() if trace_this else suite.NoTrace()
            result = suite.run_pass(inputs, tally, tr)
            totals[trace_this].append(sum(map(sum, result.values())))
            if trace_this:
                for name, (value, unit) in suite.layer_metrics(tr).items():
                    layers[name].append(value)
                    units[name] = unit
            else:
                for name, value in result.items():
                    phases[name].append(value)
            n += 1

    if traced:
        metrics = {name: (statistics.median(values), units[name]) for name, values in layers.items()}
        metrics["generators.gen_s"] = (statistics.median(gen_s), "s")
        metrics["generators.draws"] = (inputs.draws, "count")
        metrics["process.import_rss_mb"] = (import_rss_mb, "MB")
        untraced, traced_total = statistics.median(totals[False]), statistics.median(totals[True])
        metrics["trace.untraced_e2e_s"] = (untraced, "s")
        metrics["trace.traced_e2e_s"] = (traced_total, "s")
        metrics["trace.overhead_ratio"] = (traced_total / untraced if untraced else 0.0, "ratio")
        counters = {name: metrics[name][0] for name in suite.DETERMINISTIC_COUNTERS}
        print(json.dumps({"counters": counters}, sort_keys=True))
    else:
        metrics = {name: (sum(map(min, zip(*passes))), "s") for name, passes in phases.items()}
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    print(f"{workload} seed={seed} passes={n} attempted={tally.attempted} failed={tally.failed}", file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:36} {value:>14.6g} {unit}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so children are killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cliquetrace" / "__init__.py").is_file():
        print(f"perfbench: no cliquetrace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import suite

    # The floor under peak_rss_mb: this process after importing cliquetrace.
    import_rss_mb = peak_rss_mb()
    result = measure(suite, args.workload, args.seed, args.seconds, bool(args.trace), import_rss_mb)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
