#!/usr/bin/env python
"""Transformer workload benchmark: block shielding, leakage, and step time.

Writes ``BENCH_transformer.json`` with three sections:

* ``policies`` — the ``repro blocks --dpia`` rows (DRIA, MIA, DPIA on
  ``vit_tiny`` under no protection, per-block static Pelta shielding,
  all-blocks static shielding, and a moving window over block positions).
  Every row also carries a per-sublayer leakage table (observed gradient
  L2 per sublayer from one shielded training cycle; protected sublayers
  leak nothing) and the policy's memory footprint — the runtime
  secure-pool peak is asserted equal to ``CostModel.tee_memory_bytes``
  row by row.
* ``step_time`` — eager vs graph-compiled train-step time for ``vit_tiny``
  and ``gpt_tiny`` (losses asserted bitwise-equal).
* ``models`` — layer and parameter counts and block names.

Usage::

    PYTHONPATH=src python benchmarks/bench_transformer.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from common import time_call, write_result  # noqa: E402

import numpy as np  # noqa: E402


def _batch(model, n, seed=0):
    from repro.nn import one_hot

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, *model.input_shape))
    y = one_hot(rng.integers(0, model.output_shape[-1], size=n), model.output_shape[-1])
    return x, y


# ------------------------------------------------------------------- leakage
def _sublayer_leakage(model, protected, batch_size=4, lr=0.05):
    """Observed gradient L2 per sublayer after one cycle shielding ``protected``."""
    from repro.core.policy import StaticPolicy
    from repro.core.shielded import ShieldedModel

    x, y = _batch(model, batch_size, seed=7)
    layout = model.layout()
    policy = StaticPolicy(layout, [layout.ref(i) for i in protected], max_slices=None)
    shielded = ShieldedModel(model, policy, batch_size=batch_size)
    shielded.begin_cycle(cycle=0)
    shielded.train_step(x, y, lr=lr)
    record = shielded.end_cycle()
    rows = []
    for index in range(1, model.num_layers + 1):
        ref = layout.ref(index)
        observed = record.gradients[index - 1]
        l2 = float(
            np.sqrt(
                sum(float((np.asarray(g) ** 2).sum()) for gs in observed.values() for g in gs)
            )
        )
        rows.append(
            {
                "index": index,
                "name": ref.name,
                "block": ref.block,
                "role": ref.role,
                "protected": index in record.protected,
                "observed_grad_l2": l2,
            }
        )
    return rows, int(record.peak_tee_bytes)


def bench_policies(quick):
    """``repro blocks --dpia`` on ``vit_tiny``, each row with its sublayer leakage.

    A cycle's leakage and secure-pool peak depend only on the layers it
    shields, so each row replays its cycle-0 protected set.
    """
    from repro import api
    from repro.nn import vit_tiny
    from repro.tee import CostModel

    batch = 4
    payload = api.run_experiment(
        "blocks", fast=quick, dpia=True, rounds=8 if quick else 24, batch_size=batch
    )
    model = vit_tiny(num_classes=10, seed=1)  # the model `blocks` audits at seed 0
    cost_model = CostModel(batch_size=batch)
    rows = []
    for row in payload["rows"]:
        expected = cost_model.tee_memory_bytes(model, row["protected"])
        sublayers, runtime_peak = _sublayer_leakage(
            model.clone(), row["protected"], batch_size=batch
        )
        assert runtime_peak == expected, (row["label"], runtime_peak, expected)
        rows.append(
            {
                **row,
                "cost_model_bytes": expected,
                "runtime_peak_bytes": runtime_peak,
                "sublayers": sublayers,
            }
        )
    return rows


# ----------------------------------------------------------------- step time
def bench_step_time(quick):
    from repro.graph.vm import compile_model_step

    from repro.nn import gpt_tiny, vit_tiny

    lr = 0.05
    steps = 2 if quick else 5
    repeats = 2 if quick else 5
    out = {}
    for name, factory in (("vit_tiny", vit_tiny), ("gpt_tiny", gpt_tiny)):
        eager_model = factory(num_classes=10, seed=2)
        compiled_model = factory(num_classes=10, seed=2)
        x, y = _batch(eager_model, 4, seed=2)

        def eager_run():
            losses = []
            for _ in range(steps):
                loss, grads = eager_model.loss_and_gradients(x, y)
                for layer, g in zip(eager_model.layers, grads):
                    for key, grad_t in g.items():
                        layer.params[key].data = (
                            layer.params[key].data - lr * grad_t.data
                        )
                losses.append(float(loss.data))
            return losses

        step = compile_model_step(compiled_model, x, y)
        vm = step.make_vm()

        def compiled_run():
            losses = []
            for _ in range(steps):
                loss, grads = step.run_step(vm, compiled_model, x, y)
                for (li, key), g in zip(step.param_index, grads):
                    param = compiled_model.layers[li].params[key]
                    param.data = param.data - lr * g
                losses.append(loss)
            return losses

        # Bitwise guard before timing: same losses from the same start.
        ref_model = factory(num_classes=10, seed=2)
        ref_step = compile_model_step(ref_model, x, y)
        ref_losses = []
        check_model = factory(num_classes=10, seed=2)
        for _ in range(steps):
            loss, grads = check_model.loss_and_gradients(x, y)
            for layer, g in zip(check_model.layers, grads):
                for key, grad_t in g.items():
                    layer.params[key].data = layer.params[key].data - lr * grad_t.data
            ref_losses.append(float(loss.data))
        ref_vm = ref_step.make_vm()
        compiled_losses = []
        for _ in range(steps):
            loss, grads = ref_step.run_step(ref_vm, ref_model, x, y)
            for (li, key), g in zip(ref_step.param_index, grads):
                param = ref_model.layers[li].params[key]
                param.data = param.data - lr * g
            compiled_losses.append(loss)
        assert ref_losses == compiled_losses, (name, ref_losses, compiled_losses)

        eager_t = time_call(eager_run, repeats=repeats)
        compiled_t = time_call(compiled_run, repeats=repeats)
        out[name] = {
            "steps": steps,
            "eager_step_ms": 1e3 * eager_t["best_s"] / steps,
            "compiled_step_ms": 1e3 * compiled_t["best_s"] / steps,
            "speedup": eager_t["best_s"] / compiled_t["best_s"],
        }
        print(
            f"  {name:<10} eager {out[name]['eager_step_ms']:7.2f} ms/step  "
            f"compiled {out[name]['compiled_step_ms']:7.2f} ms/step  "
            f"({out[name]['speedup']:.2f}x)"
        )
    return out


def bench_models():
    from repro.nn import gpt_tiny, vit_tiny

    out = {}
    for name, factory in (("vit_tiny", vit_tiny), ("gpt_tiny", gpt_tiny)):
        model = factory(num_classes=10, seed=0)
        out[name] = {
            "num_layers": model.num_layers,
            "param_count": model.param_count,
            "blocks": model.layout().block_names(),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smoke configuration")
    parser.add_argument(
        "--out",
        default=str(os.path.join(os.path.dirname(__file__), "..", "BENCH_transformer.json")),
    )
    args = parser.parse_args(argv)

    policies = bench_policies(args.quick)
    print("train-step time:")
    step_time = bench_step_time(args.quick)
    payload = {
        "benchmark": "transformer",
        "quick": bool(args.quick),
        "models": bench_models(),
        "policies": policies,
        "step_time": step_time,
    }
    write_result(args.out, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
