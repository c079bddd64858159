"""Golden weight hashes for shielded training steps, and the kernel-workspace
footprint of a warm LeNet-5 step.

Each hash is SHA-256 of the flattened weights after three ``ShieldedModel``
steps (protected layers restored at ``end_cycle``), recorded on the tree
whose dW kernel still copied its column matrix in one full transposed pass
and whose workspace pooled scratch by shape.  Kernel layout and scratch
pooling may move time and memory; not one weight bit.

BLAS thread count changes GEMM bits at these sizes, so the hashes are
computed in a child interpreter pinned to one thread, as the perf ledger
pins it: ``python -m tests.test_golden_shielded`` prints them.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.autodiff.workspace import get_workspace
from repro.core import ShieldedModel, policy_from_spec
from repro.data import synthetic_cifar
from repro.nn import alexnet, lenet5, one_hot
from repro.nn.serialize import flatten_weights

# name -> (model builder, policy spec, batch size)
CASES = {
    "lenet5-static-L2+L4": (lambda: lenet5(num_classes=10, seed=3), "static:L2+L4", 32),
    "lenet5-darknetz-L2-L5": (
        lambda: lenet5(num_classes=10, seed=4), "darknetz:L2+L3+L4+L5", 16,
    ),
    "alexnet-quarter-static-L3+L5": (
        lambda: alexnet(num_classes=10, seed=5, scale=0.25), "static:L3+L5", 8,
    ),
}

GOLDEN_WEIGHTS = {
    "alexnet-quarter-static-L3+L5": "4a1ad1702f19242cda7fc2df3278c8b7af765cdff79d44b56e8d8f2173bcf305",
    "lenet5-darknetz-L2-L5": "64e2282de7d1b6f3ed78b52d55a1d3bb38d12cc0feac1b935fd3204ed45ffb48",
    "lenet5-static-L2+L4": "89c7b98074dfe4af3b873ca2ee2e5677deef91e1e410c71122e43e41ac2e7c02",
}

# Bytes the global workspace holds after a warm LeNet-5 (3x32x32, batch 32)
# step under static:L2+L4.  The tree that pooled by shape held 38 055 936.
WARM_LENET5_WORKSPACE_BYTES = 28_225_536


def _shielded(name):
    build, spec, batch = CASES[name]
    model = build()
    policy = policy_from_spec(spec, model.layout())
    return model, ShieldedModel(model, policy, batch_size=batch), batch


def _steps(shielded, batch, steps, seed=11):
    data = synthetic_cifar(batch * steps, num_classes=10, seed=seed)
    y = one_hot(data.y, 10)
    for step in range(steps):
        rows = slice(step * batch, (step + 1) * batch)
        shielded.train_step(data.x[rows], y[rows], lr=0.05)


def trained_weights_sha256(name: str) -> str:
    model, shielded, batch = _shielded(name)
    shielded.begin_cycle()
    _steps(shielded, batch, 3)
    shielded.end_cycle(restore=True)
    flat = np.ascontiguousarray(flatten_weights(model.get_weights()), dtype="<f8")
    return hashlib.sha256(flat.tobytes()).hexdigest()


def test_shielded_weights_hold_the_recorded_bits(spawn_python, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    result = spawn_python("-m", "tests.test_golden_shielded")
    assert json.loads(result.stdout) == GOLDEN_WEIGHTS


def test_warm_lenet5_step_workspace_footprint():
    ws = get_workspace()
    ws.clear()
    _, shielded, batch = _shielded("lenet5-static-L2+L4")
    shielded.begin_cycle()
    _steps(shielded, batch, 2)  # the first step fills the pool, the second reuses it
    shielded.end_cycle()
    assert ws.cached_bytes == WARM_LENET5_WORKSPACE_BYTES


if __name__ == "__main__":
    print(json.dumps({name: trained_weights_sha256(name) for name in sorted(CASES)}))
