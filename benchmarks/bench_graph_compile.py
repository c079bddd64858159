#!/usr/bin/env python
"""Graph compiler benchmark: compiled steps, batched simulator, memory plans.

Writes ``BENCH_graph.json`` with three sections:

* ``single_step`` — eager vs graph-VM train-step time per zoo model.  The
  elementwise-dominated MLP is the headline (fusion and buffer reuse
  eliminate most interpreter and allocator overhead); LeNet-5 is reported
  honestly — its steps are GEMM-bound, so the VM adds ~nothing.
* ``sim_pipeline`` — simulator client-update production through the batched
  VM at ``client_batch`` 1/8/64 vs the eager per-client loop, plus an
  end-to-end ``repro simulate`` wall-clock comparison whose reports are
  asserted identical (the compiled path is a pure execution knob).
* ``memory_plan`` — compile-time secure-pool peak (:func:`repro.graph.plan_policy`)
  vs the measured ``tee.pool.peak_bytes`` gauge, per zoo model × protection
  policy; every row must satisfy ``planned == measured``.

Usage::

    PYTHONPATH=src python benchmarks/bench_graph_compile.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from common import time_call, write_result  # noqa: E402

import numpy as np  # noqa: E402


# ----------------------------------------------------------------- single step
def _eager_steps(model, x, y, lr, steps):
    from repro.nn import SGD

    params = [p for layer in model.layers for p in layer.parameters()]
    optimizer = SGD(params, lr=lr)
    loss = None
    for _ in range(steps):
        loss, grads = model.loss_and_gradients(x, y)
        flat = [
            grads[li][key]
            for li, layer in enumerate(model.layers)
            for key in sorted(layer.params)
        ]
        optimizer.step(flat)
    return loss


def _compiled_steps(model, step, vm, x, y, lr, steps):
    loss = None
    for _ in range(steps):
        loss, grads = step.run_step(vm, model, x, y)
        for (li, name), g in zip(step.param_index, grads):
            param = model.layers[li].params[name]
            param.data = param.data - lr * g
    return loss


def bench_single_step(name, factory, x, y, steps, repeats):
    from repro.graph.vm import compile_model_step

    lr = 0.05
    eager_model = factory()
    compiled_model = factory()
    step = compile_model_step(compiled_model, x, y)
    vm = step.make_vm()

    eager_t = time_call(
        lambda: _eager_steps(eager_model, x, y, lr, steps),
        repeats=repeats,
        warmup=1,
    )
    compiled_t = time_call(
        lambda: _compiled_steps(compiled_model, step, vm, x, y, lr, steps),
        repeats=repeats,
        warmup=1,
    )

    # Bitwise equivalence: after identical step counts from identical seeds,
    # eager and compiled weights must agree exactly.
    identical = all(
        np.array_equal(a[k], b[k])
        for a, b in zip(eager_model.get_weights(), compiled_model.get_weights())
        for k in a
    )
    return {
        "model": name,
        "batch_size": int(x.shape[0]),
        "steps_per_timing": steps,
        "eager_step_ms": eager_t["best_s"] / steps * 1e3,
        "compiled_step_ms": compiled_t["best_s"] / steps * 1e3,
        "speedup": eager_t["best_s"] / compiled_t["best_s"],
        "weights_identical": bool(identical),
    }


def section_single_step(quick):
    from repro.nn import lenet5, mlp, one_hot

    rng = np.random.default_rng(0)
    rows = []

    x = rng.normal(size=(32, 64))
    y = one_hot(rng.integers(0, 10, size=32), 10)
    rows.append(
        bench_single_step(
            "mlp",
            lambda: mlp(10, (64,), hidden=(64, 32), seed=0),
            x,
            y,
            steps=20 if quick else 200,
            repeats=3 if quick else 5,
        )
    )

    xc = rng.normal(size=(8, 3, 16, 16))
    yc = one_hot(rng.integers(0, 10, size=8), 10)
    rows.append(
        bench_single_step(
            "lenet5",
            lambda: lenet5(num_classes=10, input_shape=(3, 16, 16), seed=0),
            xc,
            yc,
            steps=4 if quick else 16,
            repeats=2 if quick else 3,
        )
    )
    return rows


# ---------------------------------------------------------------- sim pipeline
def _pipeline_once(sim, members, base_flat, compiled):
    sim._update_cache.clear()
    if compiled:
        sim._precompute_updates(0, members, base_flat)
    for client in members:
        sim._make_update(0, client, base_flat)


def bench_sim_pipeline(quick):
    from repro.nn.serialize import flatten_weights
    from repro.obs import VirtualClock, fresh
    from repro.sim import FLSimulator, SimConfig

    num_clients = 512 if quick else 2048
    cohort = 128 if quick else 512
    rows = []
    eager_s = None
    for compiled, batch in ((False, 1), (True, 1), (True, 8), (True, 64)):
        cfg = SimConfig(
            num_clients=num_clients,
            rounds=1,
            seed=1,
            cohort=cohort,
            compile=compiled,
            client_batch=batch,
        )
        with fresh(clock=VirtualClock()) as ctx:
            sim = FLSimulator(cfg, clock=ctx.clock)
            members = sim._select_cohort(0)
            base_flat = flatten_weights(sim.model.get_weights())
            timing = time_call(
                lambda: _pipeline_once(sim, members, base_flat, compiled),
                repeats=3 if quick else (5 if not compiled else 15),
                warmup=1,
            )
        per_round = timing["best_s"]
        if not compiled:
            eager_s = per_round
        rows.append(
            {
                "mode": "compiled" if compiled else "eager",
                "client_batch": batch,
                "clients_per_round": len(members),
                "round_seconds": per_round,
                "client_steps_per_s": len(members) / per_round,
                "speedup_vs_eager": (eager_s / per_round) if eager_s else None,
            }
        )
    return rows


def bench_end_to_end(quick):
    from repro.api import simulate

    kwargs = dict(
        clients=256 if quick else 1024,
        rounds=3,
        seed=2,
        cohort=96 if quick else 384,
    )
    started = time.perf_counter()
    eager = simulate(**kwargs)
    eager_s = time.perf_counter() - started
    started = time.perf_counter()
    compiled = simulate(**kwargs, compile=True, client_batch=64)
    compiled_s = time.perf_counter() - started
    identical = json.dumps(eager, sort_keys=True) == json.dumps(
        compiled, sort_keys=True
    )
    if not identical:
        raise AssertionError("compiled simulate report diverged from eager")
    return {
        "config": kwargs,
        "client_batch": 64,
        "eager_wall_s": eager_s,
        "compiled_wall_s": compiled_s,
        "speedup": eager_s / compiled_s,
        "reports_identical": identical,
        "weights_sha256": eager["weights_sha256"],
    }


# ----------------------------------------------------------------- memory plan
def bench_memory_plan():
    from repro.core.policy import DarknetzPolicy, DynamicPolicy, StaticPolicy
    from repro.core.shielded import ShieldedModel
    from repro.graph import plan_policy
    from repro.nn import lenet5, mlp, one_hot
    from repro.obs import fresh
    from repro.tee.memory import SecureMemoryPool

    batch = 8
    capacity = 64 * 1024 * 1024  # generous: we measure peaks, not admission
    cases = []
    lenet_factory = lambda: lenet5(num_classes=10, input_shape=(3, 16, 16), seed=0)
    mlp_factory = lambda: mlp(10, (64,), hidden=(64, 32), seed=0)
    cases.append(("lenet5", lenet_factory, StaticPolicy(5, [2, 4])))
    cases.append(("lenet5", lenet_factory, DarknetzPolicy(5, [4, 5])))
    cases.append(
        ("lenet5", lenet_factory, DynamicPolicy(5, 2, [0.25] * 4, seed=3))
    )
    cases.append(("mlp", mlp_factory, StaticPolicy(3, [1, 3])))
    cases.append(("mlp", mlp_factory, DynamicPolicy(3, 1, [1 / 3] * 3, seed=3)))

    rng = np.random.default_rng(0)
    rows = []
    for model_name, factory, policy in cases:
        model = factory()
        cycles = 3 if isinstance(policy, DynamicPolicy) else 1
        worst, per_cycle = plan_policy(
            model, policy, batch_size=batch, cycles=cycles, capacity_bytes=capacity
        )
        if model_name == "mlp":
            x = rng.normal(size=(batch, 64))
        else:
            x = rng.normal(size=(batch, 3, 16, 16))
        y = one_hot(rng.integers(0, 10, size=batch), 10)
        for cycle, plan in enumerate(per_cycle):
            with fresh() as ctx:
                pool_name = f"bench-{model_name}-{policy.__class__.__name__}-{cycle}"
                shielded = ShieldedModel(
                    factory(),
                    policy,
                    pool=SecureMemoryPool(capacity, name=pool_name),
                    batch_size=batch,
                )
                shielded.begin_cycle(cycle=cycle)
                shielded.train_step(x, y, lr=0.05)
                shielded.end_cycle()
                measured = int(
                    ctx.registry.gauge("tee.pool.peak_bytes").value(pool=pool_name)
                )
            rows.append(
                {
                    "model": model_name,
                    "policy": policy.describe(),
                    "cycle": cycle,
                    "protected": sorted(plan.protected),
                    "planned_peak_bytes": plan.peak_bytes,
                    "measured_peak_bytes": measured,
                    "planned_equals_measured": plan.peak_bytes == measured,
                    "worst_cycle_peak_bytes": worst.peak_bytes,
                }
            )
    mismatches = [r for r in rows if not r["planned_equals_measured"]]
    if mismatches:
        raise AssertionError(
            f"planned secure-pool peak != measured gauge: {mismatches}"
        )
    return rows


# ------------------------------------------------------------------------ main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smoke configuration")
    parser.add_argument("--out", default="BENCH_graph.json")
    args = parser.parse_args(argv)

    from repro.graph import plan_cache_stats

    print("timing eager vs compiled train steps ...")
    single = section_single_step(args.quick)
    for row in single:
        print(
            f"  {row['model']:>7}: eager {row['eager_step_ms']:.2f} ms/step, "
            f"compiled {row['compiled_step_ms']:.2f} ms/step "
            f"({row['speedup']:.2f}x, identical={row['weights_identical']})"
        )

    print("timing simulator update pipeline (eager vs batched VM) ...")
    pipeline = bench_sim_pipeline(args.quick)
    for row in pipeline:
        speedup = row["speedup_vs_eager"]
        print(
            f"  {row['mode']:>8} batch {row['client_batch']:>2}: "
            f"{row['client_steps_per_s']:,.0f} client-steps/s"
            + (f" ({speedup:.1f}x)" if speedup else "")
        )

    print("timing end-to-end repro simulate ...")
    end_to_end = bench_end_to_end(args.quick)
    print(
        f"  eager {end_to_end['eager_wall_s']:.2f}s -> compiled "
        f"{end_to_end['compiled_wall_s']:.2f}s ({end_to_end['speedup']:.2f}x), "
        f"reports identical: {end_to_end['reports_identical']}"
    )

    print("checking planned vs measured secure-pool peaks ...")
    memory = bench_memory_plan()
    print(
        f"  {len(memory)} rows, planned == measured for all: "
        f"{all(r['planned_equals_measured'] for r in memory)}"
    )

    payload = {
        "benchmark": "graph_compile",
        "schema": 1,
        "quick": bool(args.quick),
        "single_step": single,
        "sim_pipeline": pipeline,
        "end_to_end": end_to_end,
        "memory_plan": memory,
        "plan_cache": plan_cache_stats(),
        "notes": (
            "single_step times one full train step (forward, backward, SGD) "
            "eager vs the graph VM; the MLP is the fusion headline, LeNet-5 "
            "is GEMM-bound and gains ~nothing.  sim_pipeline times the "
            "simulator's client-update production (the per-round hot loop) "
            "eager vs the client-batched VM; reports stay byte-identical.  "
            "memory_plan checks the compile-time secure-pool budget equals "
            "the runtime tee.pool.peak_bytes gauge for every policy cycle."
        ),
    }
    write_result(args.out, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
