"""Graph IR, optimization passes, memory planner, and plan-cache tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.ir import Node, Program
from repro.graph.passes import (
    eliminate_dead_code,
    fuse_elementwise,
    liveness,
    optimize,
    plan_buffers,
)
from repro.graph.vm import (
    VM,
    compile_model_step,
    plan_cache_clear,
    plan_cache_stats,
    trace_callable,
)
from repro.nn import lenet5, mlp, one_hot
from repro.obs import fresh


def _simple_program():
    """(a + b) * a, then neg — placeholders 0, 1."""
    shapes = {i: (4,) for i in range(5)}
    dtypes = {i: "float64" for i in range(5)}
    nodes = [
        Node("add", {}, (0, 1), (2,)),
        Node("mul", {}, (2, 0), (3,)),
        Node("neg", {}, (3,), (4,)),
    ]
    return Program(nodes, 5, [0, 1], {}, [4], shapes, dtypes)


class TestProgramValidation:
    def test_use_before_def_raises(self):
        with pytest.raises(ValueError, match="before it is defined"):
            Program([Node("neg", {}, (7,), (1,))], 8, [0], {}, [1])

    def test_double_definition_raises(self):
        nodes = [Node("neg", {}, (0,), (1,)), Node("neg", {}, (0,), (1,))]
        with pytest.raises(ValueError, match="defined twice"):
            Program(nodes, 2, [0], {}, [1])

    def test_undefined_output_raises(self):
        with pytest.raises(ValueError, match="never defined"):
            Program([Node("neg", {}, (0,), (1,))], 3, [0], {}, [2])

    def test_valid_program_constructs(self):
        program = _simple_program()
        assert program.op_counts() == {"add": 1, "mul": 1, "neg": 1}


class TestPasses:
    def test_dce_drops_unreachable_nodes(self):
        program = _simple_program()
        dead = Node("exp", {}, (2,), (5,))
        program = Program(
            program.nodes + [dead],
            6,
            [0, 1],
            {},
            [4],
            {**program.shapes, 5: (4,)},
            {**program.dtypes, 5: "float64"},
        )
        pruned = eliminate_dead_code(program)
        assert pruned.op_counts() == {"add": 1, "mul": 1, "neg": 1}

    def test_fuse_collapses_single_consumer_chain(self):
        program = _simple_program()
        fused = fuse_elementwise(program)
        assert fused.op_counts() == {"fused": 1}
        chain_ops = [spec[0] for spec in fused.nodes[0].params["chain"]]
        assert chain_ops == ["add", "mul", "neg"]

    def test_fused_program_is_bitwise_equal(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4,)), rng.normal(size=(4,))
        program = _simple_program()
        plain = VM(program, reuse_buffers=False).run([a, b])[0]
        fused = VM(fuse_elementwise(program)).run([a, b])[0]
        np.testing.assert_array_equal(plain, fused)

    def test_liveness_frees_intermediates_only(self):
        program = _simple_program()
        free_after = liveness(program)
        freed = [vid for frees in free_after for vid in frees]
        # 0/1 are placeholders, 4 is the output: only 2 and 3 die.
        assert sorted(freed) == [2, 3]

    def test_plan_buffers_reuses_slots(self):
        # Two sequential chains of the same shape: the second chain should
        # reuse the slot the first one freed.
        shapes = {i: (8,) for i in range(6)}
        dtypes = {i: "float64" for i in range(6)}
        nodes = [
            Node("exp", {}, (0,), (1,)),
            Node("sum", {"axis": None}, (1,), (2,)),
            Node("exp", {}, (0,), (3,)),
            Node("sum", {"axis": None}, (3,), (4,)),
            Node("add", {}, (2, 4), (5,)),
        ]
        shapes[2] = shapes[4] = shapes[5] = ()
        program = Program(nodes, 6, [0], {}, [5], shapes, dtypes)
        plan = plan_buffers(program)
        assert plan.slot_of[1] == plan.slot_of[3]
        assert plan.peak_live_bytes > 0

    def test_outputs_never_get_scratch_slots(self):
        program = _simple_program()
        plan = plan_buffers(optimize(program, fuse=False))
        assert 4 not in plan.slot_of


class TestTraceCallable:
    def test_traced_program_replays_bitwise(self):
        from repro.autodiff.ops import add, mul, sub

        def fn(a, b, c):
            return add(mul(sub(a, b), 0.25), mul(c, 1.75))

        program = trace_callable(fn, [np.zeros(6)] * 3)
        rng = np.random.default_rng(1)
        a, b, c = (rng.normal(size=(6,)) for _ in range(3))
        eager = 0.25 * (a - b) + 1.75 * c
        out = VM(optimize(program)).run([a, b, c])[0]
        np.testing.assert_array_equal(out, eager)


class TestMemoryPlanner:
    BATCH = 8
    CAPACITY = 64 * 1024 * 1024

    def _cases(self):
        from repro.core.policy import DarknetzPolicy, DynamicPolicy, StaticPolicy

        lenet_factory = lambda: lenet5(
            num_classes=10, input_shape=(3, 16, 16), seed=0
        )
        mlp_factory = lambda: mlp(10, (64,), hidden=(64, 32), seed=0)
        lenet, dense = lenet_factory().layout(), mlp_factory().layout()
        return [
            ("lenet5", lenet_factory, StaticPolicy(lenet, ["L2", "L4"])),
            ("lenet5", lenet_factory, DarknetzPolicy(lenet, ["L4", "L5"])),
            ("lenet5", lenet_factory, DynamicPolicy(lenet, 2, [0.25] * 4, seed=3)),
            ("mlp", mlp_factory, StaticPolicy(dense, ["L1", "L3"])),
            ("mlp", mlp_factory, DynamicPolicy(dense, 1, [1 / 3] * 3, seed=3)),
        ]

    def test_plan_matches_cost_model(self):
        from repro.graph import plan_protection
        from repro.tee.costmodel import CostModel

        model = lenet5(num_classes=10, input_shape=(3, 16, 16), seed=0)
        plan = plan_protection(model, [2, 4], batch_size=self.BATCH)
        expected = CostModel(batch_size=self.BATCH).tee_memory_bytes(
            model, (2, 4)
        )
        assert plan.peak_bytes == expected
        assert plan.peak_bytes == sum(e.total_bytes for e in plan.layers)

    def test_planned_peak_equals_measured_gauge(self):
        """Compile-time secure-pool peak == runtime tee.pool.peak_bytes,
        for every zoo model x protection policy cycle."""
        from repro.core.policy import DynamicPolicy
        from repro.core.shielded import ShieldedModel
        from repro.graph import plan_protection
        from repro.tee.memory import SecureMemoryPool

        rng = np.random.default_rng(0)
        for model_name, factory, policy in self._cases():
            model = factory()
            cycles = 3 if isinstance(policy, DynamicPolicy) else 1
            per_cycle = [
                plan_protection(
                    model, policy.layers_for_cycle(cycle), batch_size=self.BATCH
                )
                for cycle in range(cycles)
            ]
            if model_name == "mlp":
                x = rng.normal(size=(self.BATCH, 64))
            else:
                x = rng.normal(size=(self.BATCH, 3, 16, 16))
            y = one_hot(rng.integers(0, 10, size=self.BATCH), 10)
            for cycle, plan in enumerate(per_cycle):
                with fresh() as ctx:
                    name = f"test-{model_name}-{cycle}"
                    shielded = ShieldedModel(
                        factory(),
                        policy,
                        pool=SecureMemoryPool(self.CAPACITY, name=name),
                        batch_size=self.BATCH,
                    )
                    shielded.begin_cycle(cycle=cycle)
                    shielded.train_step(x, y, lr=0.05)
                    shielded.end_cycle()
                    measured = ctx.registry.gauge("tee.pool.peak_bytes").value(
                        pool=name
                    )
                assert plan.peak_bytes == int(measured), (
                    model_name,
                    policy.describe(),
                    cycle,
                )


class TestPlanCache:
    def _compile_once(self):
        model = mlp(4, (6,), hidden=(8,), seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 6))
        y = one_hot(rng.integers(0, 4, size=4), 4)
        return compile_model_step(model, x, y)

    def test_second_compile_hits_cache(self):
        with fresh() as ctx:
            first = self._compile_once()
            second = self._compile_once()
            assert first is second
            counters = ctx.registry.snapshot()["counters"]
            assert counters["graph.plan_cache.misses"][""] == 1.0
            assert counters["graph.plan_cache.hits"][""] == 1.0

    def test_fresh_resets_plan_cache(self):
        """obs.fresh() must clear the graph plan cache (regression: cached
        plans used to leak across isolated fresh() blocks)."""
        with fresh():
            self._compile_once()
            assert plan_cache_stats()["entries"] >= 1
            with fresh() as ctx:
                assert plan_cache_stats()["entries"] == 0
                self._compile_once()
                counters = ctx.registry.snapshot()["counters"]
                assert counters["graph.plan_cache.misses"][""] == 1.0

    def test_plan_cache_clear_is_idempotent(self):
        plan_cache_clear()
        plan_cache_clear()
        assert plan_cache_stats()["entries"] == 0
