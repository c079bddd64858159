#!/usr/bin/env python
"""Coordinator-service load test: multi-tenant scale, crash safety, wire cost.

Four sections, written to ``BENCH_serve.json``:

* **Load**: two concurrent tenant jobs driven by the deterministic load
  generator — 10^5 simulated clients across the fleet in the full
  configuration — reporting commits per virtual second, bytes per client
  in each direction, dispatch→commit latency percentiles, and the
  per-tenant aggregator peak bytes.
* **Scale**: single-tenant fleets of increasing size under the same
  buffer.  The claim under measurement is the flat-memory invariant:
  ``aggregator_peak_bytes`` is O(model size), independent of fleet size.
* **Kill/resume**: the same load run uninterrupted, and run again with
  the harness cut mid-commit and resumed from its sealed checkpoint.
  The two reports must be byte-identical (same ``weights_sha256``).
* **Compression**: dense f64 uplinks vs top-k f32 frames on the same
  seed.  Ratio 1.0 at f64 must commit bitwise-identical weights; ratio
  0.125 at f32 must cut uplink bytes per client by at least 4x.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --quick --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from common import write_result  # noqa: E402

from repro import obs  # noqa: E402
from repro.obs import VirtualClock  # noqa: E402
from repro.serve import LoadSpec, ServeHarness  # noqa: E402
from repro.tee.storage import InMemoryBackend, SecureStorage  # noqa: E402


def run_load(specs, *, storage=None, resume=False, max_events=None,
             checkpoint_every=1):
    """One harness run under a fresh obs context; returns (report, wall, done)."""
    with obs.fresh(clock=VirtualClock()) as ctx:
        harness = ServeHarness(
            specs,
            storage=storage,
            checkpoint_every=checkpoint_every,
            clock=ctx.clock,
        )
        if resume and not harness.restore():
            raise RuntimeError("expected a checkpoint to resume from")
        started = time.perf_counter()
        report = harness.run(max_events=max_events)
        wall = time.perf_counter() - started
        return report, wall, harness.finished


def job_row(report, wall):
    rows = []
    for job in report["jobs"]:
        rows.append({
            "tenant": job["tenant"],
            "job_id": job["job_id"],
            "clients": job["clients"],
            "dispatches": job["dispatches"],
            "commits": job["commits"],
            "folds": job["folds"],
            "drops": job["drops"],
            "bytes_up_per_client": job["bytes_up_per_client"],
            "bytes_down_per_client": job["bytes_down_per_client"],
            "latency_p50_s": job["latency_p50_s"],
            "latency_p99_s": job["latency_p99_s"],
            "aggregator_peak_bytes": job["aggregator_peak_bytes"],
            "weights_sha256": job["weights_sha256"],
        })
    return {
        "jobs": rows,
        "events": report["events"],
        "virtual_seconds": report["virtual_seconds"],
        "commits_per_virtual_second": report["commits_per_virtual_second"],
        "wall_seconds": wall,
        "commits_per_wall_second": (
            sum(job["commits"] for job in report["jobs"]) / wall
        ),
    }


def tenant_specs(*, clients, commits, buffer_size, concurrency, seed,
                 tenants=2, **overrides):
    return [
        LoadSpec(
            tenant=f"tenant-{i}",
            job_id=f"job-{i}",
            clients=clients,
            commits=commits,
            buffer_size=buffer_size,
            concurrency=concurrency,
            seed=seed + i,
            dropout=0.02,
            straggler=0.05,
            **overrides,
        )
        for i in range(tenants)
    ]


def storage_for(tmp_dir, tag):
    return SecureStorage(
        InMemoryBackend(),
        ssk=hashlib.sha256(f"bench-serve-{tag}".encode()).digest(),
        counters_path=os.path.join(tmp_dir, f"counters-{tag}.json"),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smoke configuration")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_serve.json")
    args = parser.parse_args(argv)

    failures = []

    # --- load: two tenants, 10^5-client fleet in the full configuration ----
    load_cfg = (
        dict(clients=500, commits=10, buffer_size=50, concurrency=128)
        if args.quick
        else dict(clients=50_000, commits=100, buffer_size=500, concurrency=1000)
    )
    specs = tenant_specs(seed=args.seed, **load_cfg)
    report, wall, done = run_load(specs)
    assert done, "load run did not finish"
    load = job_row(report, wall)
    fleet = sum(job["clients"] for job in load["jobs"])
    print(
        f"  load: {fleet} clients / {len(load['jobs'])} tenants  "
        f"{wall:7.2f}s wall  "
        f"{load['commits_per_virtual_second']:.3f} commits/vs  "
        f"p99={load['jobs'][0]['latency_p99_s']:.3f}vs"
    )

    # --- scale: aggregator memory must stay flat as the fleet grows --------
    sizes = [200, 1_000] if args.quick else [1_000, 10_000, 100_000]
    scale = []
    for size in sizes:
        entry_specs = tenant_specs(
            tenants=1, clients=size, commits=5, buffer_size=64,
            concurrency=256, seed=args.seed,
        )
        entry_report, entry_wall, entry_done = run_load(entry_specs)
        assert entry_done
        job = entry_report["jobs"][0]
        scale.append({
            "clients": size,
            "commits": job["commits"],
            "dispatches": job["dispatches"],
            "wall_seconds": entry_wall,
            "aggregator_peak_bytes": job["aggregator_peak_bytes"],
            "weights_sha256": job["weights_sha256"],
        })
        print(
            f"  scale: {size:>7} clients  {entry_wall:6.2f}s wall  "
            f"{job['aggregator_peak_bytes']:>7} peak agg bytes"
        )
    peaks = [entry["aggregator_peak_bytes"] for entry in scale]
    memory_flat = max(peaks) <= 1.5 * min(peaks)
    print(f"  aggregator memory flat across sweep: {memory_flat} (peaks={peaks})")
    if not memory_flat:
        failures.append("aggregator memory grows with fleet size")

    # --- kill/resume: cut mid-commit, resume, byte-identical report --------
    kr_specs = tenant_specs(
        tenants=2, clients=200, commits=4, buffer_size=16,
        concurrency=32, seed=args.seed,
    )
    reference, _, _ = run_load(kr_specs)
    with tempfile.TemporaryDirectory() as tmp_dir:
        storage = storage_for(tmp_dir, "kr")
        cut = 25  # mid-window: neither job has finished by event 25
        _, _, cut_done = run_load(kr_specs, storage=storage, max_events=cut)
        assert not cut_done, "cut landed after completion; lower the cut point"
        resumed, _, resumed_done = run_load(kr_specs, storage=storage, resume=True)
    identical = resumed_done and (
        json.dumps(resumed, sort_keys=True) == json.dumps(reference, sort_keys=True)
    )
    kill_resume = {
        "cut_after_events": cut,
        "resumed_report_identical": identical,
        "weights_sha256": [job["weights_sha256"] for job in reference["jobs"]],
    }
    print(f"  kill/resume byte-identical after cut@{cut}: {identical}")
    if not identical:
        failures.append("kill/resume report differs from uninterrupted run")

    # --- compression: wire-format cost vs exactness ------------------------
    comp_cfg = dict(
        tenants=1, clients=300, commits=6, buffer_size=32,
        concurrency=64, seed=args.seed,
    )
    dense, _, _ = run_load(tenant_specs(**comp_cfg))
    exact, _, _ = run_load(tenant_specs(ratio=1.0, encoding="f64", **comp_cfg))
    topk, _, _ = run_load(tenant_specs(ratio=0.125, encoding="f32", **comp_cfg))
    exact_sha_matches = (
        dense["jobs"][0]["weights_sha256"] == exact["jobs"][0]["weights_sha256"]
    )
    reduction = (
        dense["jobs"][0]["bytes_up_per_client"]
        / topk["jobs"][0]["bytes_up_per_client"]
    )
    compression = {
        "dense_bytes_up_per_client": dense["jobs"][0]["bytes_up_per_client"],
        "topk_bytes_up_per_client": topk["jobs"][0]["bytes_up_per_client"],
        "topk_ratio": 0.125,
        "topk_encoding": "f32",
        "uplink_reduction": round(reduction, 3),
        "ratio_one_f64_sha_matches_dense": exact_sha_matches,
    }
    print(
        f"  compression: {reduction:.2f}x uplink reduction  "
        f"ratio-1.0 f64 bitwise-exact: {exact_sha_matches}"
    )
    if reduction < 4.0:
        failures.append(f"uplink reduction {reduction:.2f}x below 4x")
    if not exact_sha_matches:
        failures.append("ratio-1.0 f64 run is not bitwise-exact")

    payload = {
        "benchmark": "serve",
        "schema": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {"seed": args.seed, "quick": args.quick, **load_cfg},
        "fleet_clients": fleet,
        "load": load,
        "scale": scale,
        "aggregator_memory_flat": memory_flat,
        "kill_resume": kill_resume,
        "compression": compression,
    }
    write_result(args.out, payload)
    for failure in failures:
        print(f"  FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
