"""Deterministic invariant tests: overhead claims as executable checks.

These tests assert, through :mod:`repro.obs` metrics *alone*, the exact
world-switch counts and secure-memory high-water mark of a shielded
training round — and that those numbers agree with the monitor's own
``SMCStats`` and the pool's accounting, and with the analytical cost
model's memory formula.  Everything runs under a fake clock inside a fresh
observability context, so the expected values are exact equalities, not
bounds.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import ShieldedModel, StaticPolicy
from repro.nn import lenet5, one_hot
from repro.obs import FakeClock, validate_trace
from repro.tee import CostModel, SecureMemoryPool

NUM_CLASSES = 5
BATCH = 8


def make_batch(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.5, 0.2, size=(BATCH, 3, 32, 32))
    y = one_hot(rng.integers(0, NUM_CLASSES, BATCH), NUM_CLASSES)
    return x, y


def run_shielded_round(protected_layers, steps, pool_name):
    """One full protected cycle; returns (shielded, pool, ctx)."""
    with obs.fresh(clock=FakeClock()) as ctx:
        model = lenet5(num_classes=NUM_CLASSES, seed=0, scale=0.5)
        pool = SecureMemoryPool(name=pool_name)
        shielded = ShieldedModel(
            model,
            StaticPolicy(model, [f"L{i}" for i in protected_layers]),
            pool=pool,
            batch_size=BATCH,
        )
        x, y = make_batch()
        shielded.begin_cycle()
        for _ in range(steps):
            shielded.train_step(x, y, lr=0.05)
        shielded.end_cycle()
    return shielded, pool, ctx


class TestExactSMCCounts:
    """World-switch counts follow from the protection topology, exactly."""

    def test_contiguous_two_layer_round(self):
        """One protected slice: 2 x steps compute SMCs (fwd + bwd per step)."""
        steps = 3
        shielded, _, ctx = run_shielded_round((2, 3), steps, "inv-contig")
        calls = ctx.registry.counter("tee.smc.calls")
        ta = shielded.ta.name
        assert calls.value(ta=ta, command="forward_run") == steps
        assert calls.value(ta=ta, command="backward_run") == steps
        assert calls.value(ta=ta, command="protect") == 1
        assert calls.value(ta=ta, command="release") == 1
        # The headline invariant: compute crossings are exactly 2 x steps.
        compute = calls.value(ta=ta, command="forward_run") + calls.value(
            ta=ta, command="backward_run"
        )
        assert compute == 2 * steps
        assert calls.total() == 2 * steps + 2

    def test_non_contiguous_set_doubles_crossings(self):
        """{L2, L5} forms two runs, so each step crosses twice per direction."""
        steps = 2
        shielded, _, ctx = run_shielded_round((2, 5), steps, "inv-split")
        calls = ctx.registry.counter("tee.smc.calls")
        ta = shielded.ta.name
        assert calls.value(ta=ta, command="forward_run") == 2 * steps
        assert calls.value(ta=ta, command="backward_run") == 2 * steps
        assert calls.total() == 4 * steps + 2

    def test_metrics_agree_with_smc_stats(self):
        """The registry and the monitor's own counters are the same numbers."""
        shielded, _, ctx = run_shielded_round((2, 3), 3, "inv-agree")
        calls = ctx.registry.counter("tee.smc.calls")
        stats = shielded.monitor.stats
        assert calls.total() == stats.calls
        assert calls.value(ta=shielded.ta.name, command="forward_run") + sum(
            calls.value(ta=shielded.ta.name, command=c)
            for c in ("backward_run", "protect", "release")
        ) == stats.per_ta[shielded.ta.name]

    def test_smc_latency_histogram_is_deterministic(self):
        """Under the fake clock every SMC takes an identical span of time."""
        shielded, _, ctx = run_shielded_round((2, 3), 2, "inv-clock")
        seconds = ctx.registry.histogram("tee.smc.seconds")
        stats = seconds.stats(ta=shielded.ta.name)
        assert stats["count"] == shielded.monitor.stats.calls
        assert stats["min"] == stats["max"] > 0  # no wall-clock jitter


class TestSecureMemoryHighWater:
    def test_peak_matches_pool_and_cost_model(self):
        """Metrics high-water == pool accounting == analytic memory formula."""
        protected = (2, 3)
        shielded, pool, ctx = run_shielded_round(protected, 2, "inv-mem")
        peak = ctx.registry.gauge("tee.pool.peak_bytes").value(pool="inv-mem")
        assert peak == pool.peak_bytes > 0
        expected = CostModel(batch_size=BATCH).tee_memory_bytes(
            shielded.model, protected
        )
        assert peak == expected
        capacity = ctx.registry.gauge("tee.pool.capacity_bytes").value(
            pool="inv-mem"
        )
        assert capacity == pool.capacity_bytes
        assert peak <= capacity

    def test_allocation_counts_match(self):
        _, pool, ctx = run_shielded_round((2, 3), 1, "inv-allocs")
        allocations = ctx.registry.counter("tee.pool.allocations")
        assert allocations.value(pool="inv-allocs") == pool.allocation_count > 0

    def test_memory_released_after_cycle(self):
        _, pool, ctx = run_shielded_round((2, 3), 1, "inv-free")
        assert pool.used_bytes == 0
        assert ctx.registry.gauge("tee.pool.used_bytes").value(pool="inv-free") == 0
        # ... but the high-water mark survives for Table 6 style reporting.
        assert ctx.registry.gauge("tee.pool.peak_bytes").value(pool="inv-free") > 0

    def test_exhaustion_is_counted(self):
        with obs.fresh(clock=FakeClock()) as ctx:
            pool = SecureMemoryPool(capacity_bytes=64, name="inv-oom")
            from repro.tee import SecureMemoryExhausted

            with pytest.raises(SecureMemoryExhausted):
                pool.allocate(65)
            assert ctx.registry.counter("tee.pool.exhaustions").value(
                pool="inv-oom"
            ) == 1


class TestTraceInvariants:
    def test_round_trace_is_schema_valid_and_ordered(self):
        shielded, _, ctx = run_shielded_round((2, 3), 2, "inv-trace")
        payload = ctx.tracer.export()
        validate_trace(payload)
        starts = [span["start"] for span in payload["spans"]]
        # Creation order == span-id order == strictly increasing fake time.
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)
        smc_spans = [s for s in payload["spans"] if s["name"] == "tee.smc"]
        assert len(smc_spans) == shielded.monitor.stats.calls

    def test_trace_is_reproducible(self):
        """Two identical runs emit bit-identical traces."""
        _, _, ctx_a = run_shielded_round((2, 3), 2, "inv-repro")
        _, _, ctx_b = run_shielded_round((2, 3), 2, "inv-repro")
        assert ctx_a.tracer.export() == ctx_b.tracer.export()
        assert (
            ctx_a.registry.snapshot()["counters"]
            == ctx_b.registry.snapshot()["counters"]
        )
