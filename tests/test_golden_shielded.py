"""Golden hashes for shielded training steps, and the kernel-workspace
footprint of a warm LeNet-5 step.

Each weight hash is SHA-256 of the flattened weights after three
``ShieldedModel`` steps (protected layers restored at ``end_cycle``),
recorded on the tree whose dW kernel still copied its column matrix in one
full transposed pass and whose workspace pooled scratch by shape.  Kernel
layout and scratch pooling may move time and memory; not one weight bit.

The leakage hashes pin what the normal world observes: every
:class:`~repro.core.leakage.CycleLeakage` field of two cycles x two steps,
and the trainer's accrued ``simulated_cost``.  They were recorded on the
tree whose enclave and normal world each carried their own copy of the run
forward/backward, and whose trainer priced steps itself.

BLAS thread count changes GEMM bits at these sizes, so the hashes are
computed in a child interpreter pinned to one thread, as the perf ledger
pins it: ``python -m tests.test_golden_shielded`` prints the weight hashes,
``python -m tests.test_golden_shielded leakage`` the leakage hashes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

import numpy as np

from repro.autodiff.workspace import get_workspace
from repro.core import ShieldedModel, policy_from_spec
from repro.data import synthetic_cifar
from repro.nn import alexnet, lenet5, one_hot, vit_tiny
from repro.nn.serialize import flatten_weights
from repro.tee import CostModel

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
# step under static:L2+L4.  The tree that pooled by shape held 38 055 936;
# the one that kept each forward's column matrix until backward, 28 225 536.
WARM_LENET5_WORKSPACE_BYTES = 8_564_736


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


# name -> (model builder, policy spec, batch size); two cycles x two steps each.
LEAKAGE_CASES = {
    "lenet5-static-L2+L4": (lambda: lenet5(num_classes=10, seed=6), "static:L2+L4", 16),
    "lenet5-darknetz-L2-L5": (
        lambda: lenet5(num_classes=10, seed=7), "darknetz:L2+L3+L4+L5", 16,
    ),
    "lenet5-mw2": (lambda: lenet5(num_classes=10, seed=8), "mw:2", 16),
    "vit_tiny-pelta": (lambda: vit_tiny(num_classes=10, seed=9), "pelta", 8),
}

GOLDEN_LEAKAGE = {
    "lenet5-darknetz-L2-L5": {
        "cycle0.protected": [2, 3, 4, 5],
        "cycle0.gradients": "52b51bce570feff718c89ae8e20b1f2da3bf1b10b1ffd8bb602c9698bfb68def",
        "cycle0.weights_before": "e64526f56b26d3c5327b9daa916f684626a783e409e2ec04394a038e8dd8e23e",
        "cycle0.weights_after": "f7ba82d927dcf88bfd5632689db55e358c259806776b4953f6b4224e78e028d1",
        "cycle0.peak_tee_bytes": "6a3a1a9428e657d85ee66bbffb2dfecb52720c27053e87c6d6ac318b2dc959b6",
        "cycle1.protected": [2, 3, 4, 5],
        "cycle1.gradients": "65a0deb616ae57fc0996deefba5bc68633eb7ce2108a03cc0b0cbbb1a5e3cea5",
        "cycle1.weights_before": "f7ba82d927dcf88bfd5632689db55e358c259806776b4953f6b4224e78e028d1",
        "cycle1.weights_after": "c7fa3c935e21f833c44d0640b536b88131adfea9c409e9be2014eaeb8abdbae6",
        "cycle1.peak_tee_bytes": "6a3a1a9428e657d85ee66bbffb2dfecb52720c27053e87c6d6ac318b2dc959b6",
        "simulated_cost": "a52b1fd4159ea5dc354707a0abc47e60bb22ffd9b4f7137766d814fe695a1fd3",
    },
    "lenet5-mw2": {
        "cycle0.protected": [3, 4],
        "cycle0.gradients": "8ff2f301f19bfb7c6f69a0a5036b97e3ca732b725e74d579b98d242e69772a2d",
        "cycle0.weights_before": "0eb3db1c3f6fec9599c44c7bf2d91ff6f5592d02382e478d5bf93d93290f3fcb",
        "cycle0.weights_after": "6f5407ad3cc09ee1d9aec05abd7461afdaea8687802a303ec715fcb02e64815a",
        "cycle0.peak_tee_bytes": "5fe6ac356cb44084acde458cefc8d4bd67fa458e555a8e90247ae716e25b7f30",
        "cycle1.protected": [4, 5],
        "cycle1.gradients": "df913604406e5c3d4e8e0363a08f462ed0a5184732d183af6680a8445b2d2ba2",
        "cycle1.weights_before": "d36444d0982ad53e62f359e5198304783605d24440f6405f68c87d0dc80195ce",
        "cycle1.weights_after": "0dfb16014a6862b77ba7530322409410634466a4e80f51a0ff421b12eee3bed4",
        "cycle1.peak_tee_bytes": "a05e5017c4df31e01254fb905ad91b2074224dade5f9a26faca3a3fefa4f66d2",
        "simulated_cost": "2074da33b3fd744264b3ee814cb7f5f9e889a280e5ec50b6a8acbe1333988e3d",
    },
    "lenet5-static-L2+L4": {
        "cycle0.protected": [2, 4],
        "cycle0.gradients": "76166e3e6e9784a74fc81e51d346c41ea5d02c9588f1eaa6d82856b8e83cecdd",
        "cycle0.weights_before": "acd014883b15f697b635e00fbd508457f1fbdd472fb5efa4b2ffa518441d2ca8",
        "cycle0.weights_after": "7d38703a0ece80f96bc620c5d97650fcb3bdcfde23f62d16dfa8768a33f81757",
        "cycle0.peak_tee_bytes": "de57bb97bbf12885045758fe439034c2cf4b64daa3cd0afe3aae60cd60b9d86d",
        "cycle1.protected": [2, 4],
        "cycle1.gradients": "73c253b727f684fa4cbfdfe6bf998c39bf18f18580c763787bce7ca333707ce6",
        "cycle1.weights_before": "7d38703a0ece80f96bc620c5d97650fcb3bdcfde23f62d16dfa8768a33f81757",
        "cycle1.weights_after": "5712ba92b7cbcd6eb3232c85ab98fbac62002d041d4784dc629391c2043631dc",
        "cycle1.peak_tee_bytes": "de57bb97bbf12885045758fe439034c2cf4b64daa3cd0afe3aae60cd60b9d86d",
        "simulated_cost": "5ce9509870409862d5032c9577fc563be760c8482d41f21b1a3306a76da77437",
    },
    "vit_tiny-pelta": {
        "cycle0.protected": [2, 4, 6, 8, 10, 12],
        "cycle0.gradients": "19600b4256a58dc8193fe8eea928eba14be282f11d19f614ab08521c69918ca7",
        "cycle0.weights_before": "77db7f92859e93a62ff83437ed6e271dcabdb8a8b8fd19c55dba36042dda0ec6",
        "cycle0.weights_after": "75b152ec35c77fca52b3a2786ddb6abcf0be7651f81c8620e0e99020bc000107",
        "cycle0.peak_tee_bytes": "e6c1aba7f93e0347323c7372ec1004183eceece56ae58b7c8f998e9d7c1de1ef",
        "cycle1.protected": [2, 4, 6, 8, 10, 12],
        "cycle1.gradients": "766ad41598f2de3ac8994defdb92439072ba0f73b5f2cc78ff8081f5a24879d7",
        "cycle1.weights_before": "75b152ec35c77fca52b3a2786ddb6abcf0be7651f81c8620e0e99020bc000107",
        "cycle1.weights_after": "0b6befb8e72958df7d1f4ff5ec27397bf42fa90782e28a4b1175475d20a96fcd",
        "cycle1.peak_tee_bytes": "e6c1aba7f93e0347323c7372ec1004183eceece56ae58b7c8f998e9d7c1de1ef",
        "simulated_cost": "a14ff289918fb9ed85d0e149c1c80b1d05df0f88715b439e35ae00f944eac256",
    },
}


def _feed(h, value) -> None:
    """Hash ``value`` with its structure: shapes, keys, order and None slots."""
    if value is None:
        h.update(b"N")
    elif isinstance(value, np.ndarray):
        h.update(f"A{value.shape}".encode())
        h.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
    elif isinstance(value, dict):
        h.update(f"D{len(value)}".encode())
        for key in sorted(value):
            h.update(key.encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"L{len(value)}".encode())
        for item in value:
            _feed(h, item)
    else:
        h.update(repr(value).encode())


def _sha256(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def leakage_sha256s(name: str) -> dict:
    build, spec, batch = LEAKAGE_CASES[name]
    model = build()
    policy = policy_from_spec(spec, model.layout())
    shielded = ShieldedModel(
        model, policy, batch_size=batch, cost_model=CostModel(batch_size=batch)
    )
    hashes = {}
    for cycle in range(2):
        shielded.begin_cycle()
        _steps(shielded, batch, 2, seed=20 + cycle)
        leak = shielded.end_cycle(restore=True)
        hashes[f"cycle{cycle}.protected"] = sorted(leak.protected)
        for field in ("gradients", "weights_before", "weights_after", "peak_tee_bytes"):
            hashes[f"cycle{cycle}.{field}"] = _sha256(getattr(leak, field))
    hashes["simulated_cost"] = _sha256(dataclasses.astuple(shielded.simulated_cost))
    return hashes


def test_leakage_and_cost_hold_the_recorded_bits(spawn_python, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    result = spawn_python("-m", "tests.test_golden_shielded", "leakage")
    assert json.loads(result.stdout) == GOLDEN_LEAKAGE


if __name__ == "__main__":
    if sys.argv[1:] == ["leakage"]:
        print(json.dumps(
            {name: leakage_sha256s(name) for name in sorted(LEAKAGE_CASES)}, indent=1
        ))
    else:
        print(json.dumps({name: trained_weights_sha256(name) for name in sorted(CASES)}))
