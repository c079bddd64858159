"""The FL client trains at the device's precision, float32, end to end.

LeNet-5 under ``static:L2+L4`` through :class:`~repro.fl.server.FLServer`:
two clients, three cycles.  Everything that crosses the secure monitor is
float32, the bytes crossing it are pinned, shielded training still equals
unprotected training bitwise, and the float32 fleet stays close to the same
fleet on a float64 device.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.policy import policy_from_spec
from repro.data.synthetic import synthetic_cifar
from repro.fl import client as client_module
from repro.fl.client import FLClient
from repro.fl.plan import TrainingPlan
from repro.fl.server import FLServer
from repro.nn import lenet5
from repro.nn.serialize import flatten_weights
from repro.tee.monitor import SecureMonitor

CLIENTS = 2
CYCLES = 3
#: Parameters of L2 and L4 (3 600 weights + 12 biases each).
PROTECTED_PARAMS = 2 * (3600 + 12)
#: Per cycle, float32 client: activations and deltas of 22 SMCs, ...
ARRAY_BYTES = 1_376_256
#: ... the server's sealed download of L2+L4, float64 on the wire ...
DOWNLOAD_BYTES = 118_220
#: ... and the two clients' sealed float32 uploads.
UPLOAD_BYTES = 60_428
SMC_BYTES_PER_CYCLE = ARRAY_BYTES + DOWNLOAD_BYTES + UPLOAD_BYTES  # 1 554 904
#: Largest |float32 fleet - float64 fleet| over the global weights after
#: three cycles (measured 2.0e-8, on weights of magnitude <= 0.13).
FLOAT64_DEVICE_ATOL = 1e-7


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def _crossings(params: dict, result) -> list:
    return [*_arrays(list(params.values())), *_arrays(result)]


def _fleet(monkeypatch, spec, device_dtype=np.float32):
    """Run the fleet; return its global weights and each cycle's SMC log."""
    monkeypatch.setattr(client_module, "DEVICE_DTYPE", device_dtype)
    log = []
    smc = SecureMonitor.smc

    def recording_smc(self, uuid, command, **params):
        result = smc(self, uuid, command, **params)
        log.append((command, params, result))
        return result

    monkeypatch.setattr(SecureMonitor, "smc", recording_smc)
    model = lenet5(num_classes=10, input_shape=(3, 32, 32), seed=3)
    policy = policy_from_spec(spec, model.layout()) if spec else None
    plan = TrainingPlan(lr=0.05, batch_size=8, local_steps=2)
    server = FLServer(model, plan, policy=policy)
    clients = [
        FLClient(
            f"client-{i}",
            synthetic_cifar(16, num_classes=10, seed=10 + i),
            model.clone(),
            policy=policy,
            seed=i,
        )
        for i in range(CLIENTS)
    ]
    cycles = []
    for _ in range(CYCLES):
        start = len(log)
        server.run_cycle(clients)
        cycles.append(log[start:])
    monkeypatch.undo()
    return flatten_weights(server.model.get_weights()), cycles


def _smc_bytes(cycle) -> dict:
    """Bytes crossing the monitor in one cycle, split as the pins are."""
    sizes = {"arrays": 0, "provision": 0, "export_weights": 0}
    for command, params, result in cycle:
        sizes["arrays"] += sum(a.nbytes for a in _crossings(params, result))
        if command == "provision":
            sizes["provision"] += len(params["blob"])
        if command == "export_weights":
            sizes["export_weights"] += len(result)
    return sizes


def _sha(flat) -> str:
    return hashlib.sha256(np.ascontiguousarray(flat, dtype="<f8").tobytes()).hexdigest()


@pytest.fixture(scope="module")
def fleets():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {
            "device": _fleet(monkeypatch, "static:L2+L4"),
            "unprotected": _fleet(monkeypatch, None),
            "float64": _fleet(monkeypatch, "static:L2+L4", np.float64),
        }


def test_every_array_crossing_the_monitor_is_float32(fleets):
    _, cycles = fleets["device"]
    dtypes = {
        a.dtype
        for cycle in cycles
        for _, params, result in cycle
        for a in _crossings(params, result)
    }
    assert dtypes == {np.dtype(np.float32)}


def test_smc_bytes_per_cycle_are_pinned(fleets):
    for cycle in fleets["device"][1]:
        sizes = _smc_bytes(cycle)
        assert sizes == {
            "arrays": ARRAY_BYTES,
            "provision": DOWNLOAD_BYTES,
            "export_weights": UPLOAD_BYTES,
        }
        assert sum(sizes.values()) == SMC_BYTES_PER_CYCLE


def test_a_float64_device_moves_twice_the_arrays_and_upload_payload(fleets):
    """Half of the float64 figure, except the float64 sealed download (the
    server's model) and each sealed upload's fixed framing."""
    for cycle in fleets["float64"][1]:
        assert _smc_bytes(cycle) == {
            "arrays": 2 * ARRAY_BYTES,
            "provision": DOWNLOAD_BYTES,
            "export_weights": UPLOAD_BYTES + 4 * PROTECTED_PARAMS * CLIENTS,
        }


def test_shielded_weights_equal_the_unprotected_fleets(fleets):
    assert _sha(fleets["device"][0]) == _sha(fleets["unprotected"][0])


def test_float32_device_stays_close_to_a_float64_device(fleets):
    device, float64 = fleets["device"][0], fleets["float64"][0]
    assert _sha(device) != _sha(float64)  # the precision really changed
    assert float(np.abs(device - float64).max()) <= FLOAT64_DEVICE_ATOL


def test_the_callers_model_is_not_converted():
    model = lenet5(num_classes=10, input_shape=(3, 32, 32), seed=3)
    before = flatten_weights(model.get_weights())
    client = FLClient("c", synthetic_cifar(4, num_classes=10, seed=0), model)
    assert model.dtype == np.float64 and client.model.dtype == np.float32
    assert client.model is not model
    np.testing.assert_array_equal(flatten_weights(model.get_weights()), before)
