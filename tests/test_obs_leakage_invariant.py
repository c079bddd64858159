"""Differential leakage invariants, proven through the observability layer.

For both static and moving-window protection these tests assert the two
halves of the GradSec guarantee:

* *the protected computation really happened in the secure world* — for
  every protected layer of every cycle there is a ``tee.smc`` span whose
  ``forward_run``/``backward_run`` indices cover it (the span is only
  opened by the monitor around a world switch);
* *the normal world cannot reach the protected state* — reading a
  protected layer's shielded buffer from outside the secure world raises
  :class:`SecureWorldViolation`, through every access path numpy offers.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import DynamicPolicy, ShieldedModel, StaticPolicy, policy_from_spec
from repro.core import shielded as shielded_module
from repro.nn import lenet5, one_hot, vit_tiny
from repro.obs import FakeClock
from repro.tee import SecureMemoryPool, SecureWorldViolation
from repro.tee.world import World, current_world

NUM_CLASSES = 5
BATCH = 8
LENET = lenet5().layout()


def make_batch(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.5, 0.2, size=(BATCH, 3, 32, 32))
    y = one_hot(rng.integers(0, NUM_CLASSES, BATCH), NUM_CLASSES)
    return x, y


def make_shielded(policy, pool_name):
    model = lenet5(num_classes=NUM_CLASSES, seed=0, scale=0.5)
    return ShieldedModel(
        model, policy, pool=SecureMemoryPool(name=pool_name), batch_size=BATCH
    )


def covered_indices(spans, command):
    """Layer indices that appeared in any ``command`` SMC span."""
    covered = set()
    for span in spans:
        if span.name == "tee.smc" and span.attributes.get("command") == command:
            covered.update(span.attributes.get("indices", []))
    return covered


class TestStaticProtection:
    def test_every_protected_layer_crossed_the_boundary(self):
        protected = (2, 5)
        with obs.fresh(clock=FakeClock()) as ctx:
            shielded = make_shielded(StaticPolicy(LENET, ["L2", "L5"]), "leak-static")
            x, y = make_batch()
            shielded.begin_cycle()
            shielded.train_step(x, y, lr=0.05)
            shielded.end_cycle()
            spans = ctx.tracer.finished_spans()
        for direction in ("forward_run", "backward_run"):
            assert covered_indices(spans, direction) == set(protected)

    def test_normal_world_buffer_access_raises(self):
        with obs.fresh(clock=FakeClock()):
            shielded = make_shielded(StaticPolicy(LENET, ["L2", "L5"]), "leak-access")
            x, y = make_batch()
            shielded.begin_cycle()
            shielded.train_step(x, y, lr=0.05)
            # Mid-cycle the protected weights live only in shielded buffers;
            # every normal-world exfiltration path must fail closed.
            for (index, name), buffer in shielded.ta._buffers.items():
                assert index in (2, 5)
                with pytest.raises(SecureWorldViolation):
                    buffer.read()
                with pytest.raises(SecureWorldViolation):
                    buffer.view()
                with pytest.raises(SecureWorldViolation):
                    np.asarray(buffer)
            shielded.end_cycle()


class TestMovingWindowProtection:
    def make_policy(self):
        # Window of 2 over 5 layers: 4 positions, uniform draw.
        return DynamicPolicy(LENET, 2, [0.25, 0.25, 0.25, 0.25], seed=11)

    def test_each_cycles_window_is_covered(self):
        policy = self.make_policy()
        cycles = 3
        with obs.fresh(clock=FakeClock()) as ctx:
            shielded = make_shielded(policy, "leak-mw")
            x, y = make_batch()
            windows = []
            boundaries = []
            for _ in range(cycles):
                before = len(ctx.tracer.finished_spans())
                shielded.begin_cycle()
                windows.append(shielded.protected_layers)
                shielded.train_step(x, y, lr=0.05)
                shielded.end_cycle()
                boundaries.append((before, len(ctx.tracer.finished_spans())))
            spans = ctx.tracer.finished_spans()
        assert len({tuple(sorted(w)) for w in windows}) > 1  # window moved
        for window, (lo, hi) in zip(windows, boundaries):
            cycle_spans = spans[lo:hi]
            for direction in ("forward_run", "backward_run"):
                assert covered_indices(cycle_spans, direction) == set(window)

    def test_moving_window_buffers_fail_closed(self):
        policy = self.make_policy()
        with obs.fresh(clock=FakeClock()):
            shielded = make_shielded(policy, "leak-mw-access")
            x, y = make_batch()
            shielded.begin_cycle()
            shielded.train_step(x, y, lr=0.05)
            window = shielded.protected_layers
            touched = set()
            for (index, _name), buffer in shielded.ta._buffers.items():
                touched.add(index)
                with pytest.raises(SecureWorldViolation):
                    buffer.read()
            assert touched == set(window)
            shielded.end_cycle()

BOUNDARY_CASES = {
    "lenet5-static": (lambda: lenet5(num_classes=NUM_CLASSES, seed=0, scale=0.5), "static:L2+L4"),
    "lenet5-mw": (lambda: lenet5(num_classes=NUM_CLASSES, seed=0, scale=0.5), "mw:2"),
    "vit_tiny-pelta": (lambda: vit_tiny(num_classes=NUM_CLASSES, seed=0), "pelta"),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_boundary_holds_inside_every_smc(case, monkeypatch):
    """While an SMC runs, the normal world's copies of the protected layers
    are zeros and share no memory with the enclave's buffers."""
    build, spec = BOUNDARY_CASES[case]
    model = build()
    shielded = ShieldedModel(
        model,
        policy_from_spec(spec, model.layout(), seed=3),
        pool=SecureMemoryPool(name=f"leak-during-{case}"),
        batch_size=BATCH,
    )
    checked = []

    def assert_boundary():
        payloads = [buffer.view() for buffer in shielded.ta._buffers.values()]
        for index in shielded.protected_layers:
            for param in model.layer(index).params.values():
                assert not param.data.any()
                assert not any(np.shares_memory(param.data, p) for p in payloads)
            # The enclave trains the buffers themselves, not copies of them.
            for param in shielded.ta._layers[index].params.values():
                assert any(param.data is p for p in payloads)
        checked.append(shielded.protected_layers)

    def watched(run):
        def inside(*args, **kwargs):
            if current_world() is World.SECURE:
                assert_boundary()
            result = run(*args, **kwargs)
            if current_world() is World.SECURE:
                assert_boundary()
            return result

        return inside

    for name in ("_run_forward", "_run_backward"):
        monkeypatch.setattr(shielded_module, name, watched(getattr(shielded_module, name)))
    rng = np.random.default_rng(5)
    x = rng.normal(0.5, 0.2, size=(BATCH, *model.input_shape))
    y = one_hot(rng.integers(0, NUM_CLASSES, BATCH), NUM_CLASSES)
    for _ in range(3):
        shielded.begin_cycle()
        shielded.train_step(x, y, lr=0.05)
        shielded.end_cycle()
    assert checked and all(checked)
