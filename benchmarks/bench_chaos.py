#!/usr/bin/env python
"""Chaos-transport sweep: fault rate vs cost, exactness held bitwise.

Writes ``BENCH_chaos.json``.  The sweep drives the same tenant job
through the seeded chaos transport at fault rates 0–20% across several
chaos seeds and, per cell, *asserts* the three exactly-once claims
rather than merely measuring them:

* ``weights_sha256`` is bitwise identical to the fault-free (rate-0)
  run — faults cost retransmissions and virtual time, never bytes;
* the coordinator's dedup-hit count equals the channel's count of
  redundant clean deliveries (every duplicate the wire manufactured was
  caught by the ledger, nothing was double-folded) — valid because the
  sweep also asserts nothing was shed or refused;
* a run cut mid-chaos and resumed from its sealed checkpoint produces a
  report byte-identical to the uninterrupted run.

What *is* measured: goodput (ledger inserts per physical send),
retransmit overhead, wire-byte inflation vs the fault-free run, and
dispatch→commit latency percentiles as the fault rate climbs.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py
    PYTHONPATH=src python benchmarks/bench_chaos.py --quick --out /tmp/b.json
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

RATES = (0.0, 0.05, 0.10, 0.20)
CHAOS_SEEDS = (0, 1)


def build_spec(cfg, *, rate, chaos_seed):
    return LoadSpec(
        tenant="tenant-0",
        job_id="job-0",
        clients=cfg["clients"],
        commits=cfg["commits"],
        buffer_size=cfg["buffer_size"],
        concurrency=cfg["concurrency"],
        seed=cfg["seed"],
        dropout=0.02,
        straggler=0.05,
        chaos=True,
        chaos_rate=rate,
        chaos_seed=chaos_seed,
    )


def run_load(spec, *, storage=None, resume=False, max_events=None):
    with obs.fresh(clock=VirtualClock()) as ctx:
        harness = ServeHarness([spec], storage=storage, clock=ctx.clock)
        if resume and not harness.restore():
            raise RuntimeError("expected a checkpoint to resume from")
        started = time.perf_counter()
        report = harness.run(max_events=max_events)
        wall = time.perf_counter() - started
        return report, wall, harness.finished


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smoke configuration")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_chaos.json")
    args = parser.parse_args(argv)

    cfg = (
        dict(clients=100, commits=3, buffer_size=8, concurrency=16)
        if args.quick
        else dict(clients=2_000, commits=8, buffer_size=64, concurrency=128)
    )
    cfg["seed"] = args.seed
    failures = []

    # --- fault-free baseline -----------------------------------------------
    baseline_report, baseline_wall, done = run_load(
        build_spec(cfg, rate=0.0, chaos_seed=0)
    )
    assert done, "baseline run did not finish"
    baseline_job = baseline_report["jobs"][0]
    baseline_sha = baseline_job["weights_sha256"]
    baseline_bytes_up = baseline_job["bytes_up"]
    print(
        f"  baseline: {cfg['clients']} clients  {baseline_wall:6.2f}s wall  "
        f"sha={baseline_sha[:12]}"
    )

    # --- rate x seed sweep --------------------------------------------------
    sweep = []
    for rate in RATES:
        for chaos_seed in CHAOS_SEEDS:
            if rate == 0.0 and chaos_seed != 0:
                continue  # rate 0 draws nothing; seeds are indistinguishable
            report, wall, done = run_load(
                build_spec(cfg, rate=rate, chaos_seed=chaos_seed)
            )
            job = report["jobs"][0]
            transport = job["transport"]
            cell = f"rate={rate:.2f} seed={chaos_seed}"
            sha_ok = done and job["weights_sha256"] == baseline_sha
            if not sha_ok:
                failures.append(f"{cell}: weights differ from fault-free run")
            if transport["shed"] or transport["refused"]:
                failures.append(f"{cell}: unexpected shed/refused deliveries")
            dedup_ok = (
                transport["dedup_hits"] == transport["dup_clean_deliveries"]
            )
            if not dedup_ok:
                failures.append(
                    f"{cell}: dedup hits {transport['dedup_hits']} != "
                    f"channel duplicates {transport['dup_clean_deliveries']}"
                )
            sweep.append({
                "chaos_rate": rate,
                "chaos_seed": chaos_seed,
                "wall_seconds": wall,
                "virtual_seconds": report["virtual_seconds"],
                "sends": transport["sends"],
                "copies": transport["copies"],
                "deliveries": transport["deliveries"],
                "drops": transport["drops"],
                "duplicates": transport["duplicates"],
                "reorders": transport["reorders"],
                "corruptions": transport["corruptions"],
                "truncations": transport["truncations"],
                "replays": transport["replays"],
                "retransmits": transport["retransmits"],
                "dedup_hits": transport["dedup_hits"],
                "dup_clean_deliveries": transport["dup_clean_deliveries"],
                "breaker_trips": transport["breaker_trips"],
                "goodput": transport["goodput"],
                "retransmit_overhead": transport["retransmit_overhead"],
                "bytes_up_inflation": round(
                    job["bytes_up"] / baseline_bytes_up, 4
                ),
                "latency_p50_s": job["latency_p50_s"],
                "latency_p99_s": job["latency_p99_s"],
                "weights_sha256_matches_fault_free": sha_ok,
                "dedup_matches_channel_duplicates": dedup_ok,
            })
            print(
                f"  {cell}: goodput={transport['goodput']}  "
                f"retransmits={transport['retransmits']}  "
                f"p99={job['latency_p99_s']}vs  sha_ok={sha_ok}  "
                f"dedup_ok={dedup_ok}"
            )

    # --- kill -9 mid-chaos, resume, byte-identical report -------------------
    kr_spec = build_spec(cfg, rate=0.10, chaos_seed=1)
    reference, _, _ = run_load(kr_spec)
    cut = max(20, cfg["clients"] // 10)
    with tempfile.TemporaryDirectory() as tmp_dir:
        storage = SecureStorage(
            InMemoryBackend(),
            ssk=hashlib.sha256(b"bench-chaos-kr").digest(),
            counters_path=os.path.join(tmp_dir, "counters.json"),
        )
        _, _, cut_done = run_load(kr_spec, storage=storage, max_events=cut)
        assert not cut_done, "cut landed after completion; lower the cut point"
        resumed, _, resumed_done = run_load(kr_spec, storage=storage, resume=True)
    resume_identical = resumed_done and (
        json.dumps(resumed, sort_keys=True)
        == json.dumps(reference, sort_keys=True)
    )
    print(f"  kill/resume mid-chaos byte-identical after cut@{cut}: "
          f"{resume_identical}")
    if not resume_identical:
        failures.append("mid-chaos resume report differs from uninterrupted run")
    kill_resume = {
        "chaos_rate": 0.10,
        "chaos_seed": 1,
        "cut_after_events": cut,
        "resumed_report_identical": resume_identical,
        "weights_sha256": reference["jobs"][0]["weights_sha256"],
    }

    payload = {
        "benchmark": "chaos",
        "schema": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {"quick": args.quick, **cfg},
        "rates": list(RATES),
        "chaos_seeds": list(CHAOS_SEEDS),
        "baseline": {
            "weights_sha256": baseline_sha,
            "bytes_up": baseline_bytes_up,
            "wall_seconds": baseline_wall,
            "latency_p99_s": baseline_job["latency_p99_s"],
        },
        "sweep": sweep,
        "kill_resume": kill_resume,
        "all_cells_bitwise_exact": all(
            cell["weights_sha256_matches_fault_free"] for cell in sweep
        ),
    }
    write_result(args.out, payload)
    for failure in failures:
        print(f"  FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
