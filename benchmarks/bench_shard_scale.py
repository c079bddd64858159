#!/usr/bin/env python
"""Sharded-aggregation scaling sweep: fleet size x shard count.

Two questions, answered with numbers:

1. **Bounded memory** — does the peak resident accumulator footprint
   (``aggregator_peak_bytes`` plus the process RSS high-water mark) stay
   flat as the fleet grows from 10^3 to 10^5 clients?
2. **Exactness at scale** — does every shard count produce the same
   ``weights_sha256`` as the flat topology at the same seed?

Writes ``BENCH_shard.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_shard_scale.py
    PYTHONPATH=src python benchmarks/bench_shard_scale.py --quick --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from common import write_result  # noqa: E402

from repro import obs  # noqa: E402
from repro.obs import VirtualClock  # noqa: E402
from repro.sim import FLSimulator, FaultPlan, FaultRates, SimConfig  # noqa: E402


def max_rss_bytes() -> int:
    """Process high-water RSS; Linux reports KiB, macOS bytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) * (1 if sys.platform == "darwin" else 1024)


def run_one(
    num_clients: int,
    shards: int,
    rounds: int,
    seed: int,
    cohort: int,
    shard_down: float = 0.0,
) -> dict:
    rates = FaultRates(dropout=0.1, straggler=0.05, shard_down=shard_down)
    with obs.fresh(clock=VirtualClock()) as ctx:
        simulator = FLSimulator(
            SimConfig(
                num_clients=num_clients,
                rounds=rounds,
                seed=seed,
                cohort=cohort,
                shards=shards,
            ),
            fault_plan=FaultPlan(rates, seed=seed),
            clock=ctx.clock,
        )
        started = time.perf_counter()
        report = simulator.run()
        wall = time.perf_counter() - started
    return {
        "clients": num_clients,
        "shards": shards,
        "shard_down": shard_down,
        "cohort": cohort,
        "rounds": rounds,
        "wall_seconds": wall,
        "virtual_seconds": report["virtual_seconds"],
        "aggregator_peak_bytes": report["aggregator_peak_bytes"],
        "shard_bytes": report["totals"]["shard_bytes"],
        "shard_down_losses": report["totals"]["shard_down"],
        "retries": report["totals"]["retries"],
        "max_rss_bytes": max_rss_bytes(),
        "weights_sha256": report["weights_sha256"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smoke configuration")
    parser.add_argument("--rounds", type=int, default=2, help="rounds per cell")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_shard.json")
    args = parser.parse_args(argv)

    fleet_sizes = [1000, 10000] if args.quick else [1000, 10000, 100000]
    shard_counts = [1, 8, 64]
    cohort = 256

    results = []
    for size in fleet_sizes:
        sha_by_shards = {}
        for shards in shard_counts:
            entry = run_one(size, shards, args.rounds, args.seed, cohort)
            results.append(entry)
            sha_by_shards[shards] = entry["weights_sha256"]
            print(
                f"  {size:>7} clients x {shards:>2} shards  "
                f"{entry['wall_seconds']:7.3f}s wall  "
                f"peak agg {entry['aggregator_peak_bytes']:>6} B  "
                f"rss {entry['max_rss_bytes'] / 1e6:7.1f} MB"
            )
        if len(set(sha_by_shards.values())) != 1:
            raise AssertionError(
                f"shard count changed the weights: {sha_by_shards}"
            )
        # One faulty cell per fleet size: dead shard aggregators exercise
        # the loss/re-route/retry path.  (Shard-fault draws are a function
        # of the shard index, so this cell's weights are not comparable
        # across topologies — no sha assertion here.)
        faulty = run_one(
            size, 64, args.rounds, args.seed, cohort, shard_down=0.05
        )
        results.append(faulty)
        print(
            f"  {size:>7} clients x 64 shards (5% shard_down)  "
            f"{faulty['shard_down_losses']:>4} lost  "
            f"{faulty['retries']:>4} retries"
        )

    flat_peaks = [r["aggregator_peak_bytes"] for r in results if r["shards"] == 64]
    if len(set(flat_peaks)) != 1:
        raise AssertionError(
            f"aggregator peak grew with the fleet: {flat_peaks}"
        )

    payload = {
        "benchmark": "shard_scale",
        "schema": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {
            "rounds": args.rounds,
            "seed": args.seed,
            "cohort": cohort,
            "quick": args.quick,
        },
        "results": results,
    }
    write_result(args.out, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
