"""Graph IR validation, tracing checks, the batched VM's lifting rule and
the secure-pool budget that replaced the compile-time memory planner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.ir import Node, Program
from repro.graph.trace import TraceError
from repro.graph.vm import VM, BatchedVM, GraphUnsupported, trace_callable
from repro.nn import lenet5, mlp, one_hot
from repro.obs import fresh


def _simple_program():
    """(a + b) * a, then neg — placeholders 0, 1."""
    shapes = {i: (4,) for i in range(5)}
    nodes = [
        Node("add", {}, (0, 1), (2,)),
        Node("mul", {}, (2, 0), (3,)),
        Node("neg", {}, (3,), (4,)),
    ]
    return Program(nodes, 5, [0, 1], {}, [4], shapes)


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
        assert [node.op for node in program.nodes] == ["add", "mul", "neg"]
        a, b = np.arange(4.0), np.ones(4)
        np.testing.assert_array_equal(VM(program).run([a, b])[0], -((a + b) * a))


class TestTraceCallable:
    def test_traced_program_replays_bitwise(self):
        from repro.autodiff.ops import add, mul, sub

        def fn(a, b, c):
            return add(mul(sub(a, b), 0.25), mul(c, 1.75))

        program = trace_callable(fn, [np.zeros(6)] * 3)
        rng = np.random.default_rng(1)
        a, b, c = (rng.normal(size=(6,)) for _ in range(3))
        eager = 0.25 * (a - b) + 1.75 * c
        out = VM(program).run([a, b, c])[0]
        np.testing.assert_array_equal(out, eager)

    def test_large_unwatched_array_is_not_baked_as_a_constant(self):
        from repro.autodiff.ops import add
        from repro.autodiff.tensor import Tensor

        hidden = Tensor(np.ones(17))
        with pytest.raises(TraceError, match="baked as a constant"):
            trace_callable(lambda a: add(a, hidden), [np.zeros(17)])


class TestBatchedLifting:
    def test_non_elementwise_op_on_a_batched_value_is_unsupported(self):
        from repro.autodiff.ops import matmul

        program = trace_callable(matmul, [np.zeros((2, 3)), np.zeros((3, 2))])
        with pytest.raises(GraphUnsupported, match="no batched lifting rule"):
            BatchedVM(program, [0])
        # Unbatched, the same node replays through its ordinary kernel.
        BatchedVM(program, [])


class TestMemoryPlanner:
    """The secure-pool budget is planned from shapes alone, before any
    enclave is provisioned; ``CostModel.tee_memory_bytes`` is that plan and
    the runtime ``tee.pool.peak_bytes`` gauge must meet it exactly."""

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

    def test_plan_matches_cost_model(self, shape_budget):
        from repro.tee.costmodel import CostModel

        model = lenet5(num_classes=10, input_shape=(3, 16, 16), seed=0)
        expected = CostModel(batch_size=self.BATCH).tee_memory_bytes(
            model, (2, 4)
        )
        assert shape_budget(model, (2, 4), self.BATCH) == expected
        assert expected == sum(
            model.layer(i).tee_memory_bytes(self.BATCH) for i in (2, 4)
        )

    def test_planned_peak_equals_measured_gauge(self, shape_budget):
        """Planned secure-pool peak == runtime tee.pool.peak_bytes,
        for every zoo model x protection policy cycle."""
        from repro.core.policy import DynamicPolicy
        from repro.core.shielded import ShieldedModel
        from repro.tee.costmodel import CostModel
        from repro.tee.memory import SecureMemoryPool

        cost_model = CostModel(batch_size=self.BATCH)
        rng = np.random.default_rng(0)
        for model_name, factory, policy in self._cases():
            model = factory()
            cycles = 3 if isinstance(policy, DynamicPolicy) else 1
            if model_name == "mlp":
                x = rng.normal(size=(self.BATCH, 64))
            else:
                x = rng.normal(size=(self.BATCH, 3, 16, 16))
            y = one_hot(rng.integers(0, 10, size=self.BATCH), 10)
            for cycle in range(cycles):
                protected = policy.layers_for_cycle(cycle)
                planned = cost_model.tee_memory_bytes(model, protected)
                assert planned == shape_budget(model, protected, self.BATCH)
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
                assert planned == int(measured), (
                    model_name,
                    policy.describe(),
                    cycle,
                )
