"""A shielded training step is freed by reference counting alone.

No autodiff node may sit on a reference cycle: one cycle keeps the whole
graph behind it (every activation and input tensor of the step) alive until
the cyclic collector runs, so a client's peak memory would follow collector
timing instead of its computation.  Each case runs with the collector off
and ``DEBUG_SAVEALL`` on, so everything only a collection could free lands
in ``gc.garbage``; no :class:`~repro.autodiff.Tensor` may be there.
"""

import gc

import pytest

from repro.autodiff import Tensor
from repro.core import ShieldedModel, policy_from_spec
from repro.data import synthetic_cifar
from repro.fl import FLClient, FLServer, TrainingPlan
from repro.nn import lenet5, one_hot, vit_tiny


def cyclic_tensors(run) -> int:
    """Tensors that only the cyclic collector could free after ``run()``."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return sum(isinstance(obj, Tensor) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "build, spec, batch",
    [
        (lambda: lenet5(num_classes=10, seed=3), "static:L2+L4", 8),
        (lambda: lenet5(num_classes=10, seed=3), "none", 8),
        (lambda: lenet5(num_classes=10, seed=3), "darknetz:L3+L4+L5", 8),
        (lambda: vit_tiny(num_classes=10, seed=9), "pelta", 4),
    ],
    ids=["lenet5-static:L2+L4", "lenet5-none", "lenet5-darknetz:L3+L4+L5", "vit_tiny-pelta"],
)
def test_shielded_steps_leave_no_cyclic_tensor(build, spec, batch):
    model = build()
    shielded = ShieldedModel(model, policy_from_spec(spec, model.layout()), batch_size=batch)
    data = synthetic_cifar(2 * batch, num_classes=10, seed=0)
    y = one_hot(data.y, 10)

    def cycle():
        shielded.begin_cycle()
        for step in range(2):
            rows = slice(step * batch, (step + 1) * batch)
            shielded.train_step(data.x[rows], y[rows], lr=0.05)
        shielded.end_cycle()

    assert cyclic_tensors(cycle) == 0


def test_client_cycle_through_the_server_leaves_no_cyclic_tensor():
    layout = lenet5().layout()
    shards = synthetic_cifar(num_samples=32, num_classes=5, seed=0).shard(2)
    server = FLServer(
        lenet5(num_classes=5, seed=7, scale=0.5),
        TrainingPlan(lr=0.1, batch_size=8, local_steps=2),
        policy_from_spec("static:L2+L4", layout),
    )
    clients = [
        FLClient(
            f"client-{i}",
            shards[i],
            lenet5(num_classes=5, seed=7, scale=0.5),
            policy=policy_from_spec("static:L2+L4", layout),
            seed=i,
        )
        for i in range(2)
    ]
    assert cyclic_tensors(lambda: server.run_cycle(clients)) == 0
