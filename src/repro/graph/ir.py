"""Static op-DAG intermediate representation for traced training steps.

A :class:`Program` is the result of running one eager forward+backward pass
under the trace tape (:mod:`repro.graph.trace`): a flat, topologically
ordered list of :class:`Node` records over an integer *value id* space.
Values are usually ``float64`` ndarrays, but may be any auxiliary object an
op produces (e.g. the cached argmax coordinate tuple of ``maxpool2d``).

The IR is deliberately minimal — no basic blocks, no control flow — because
a training step for a fixed (model, input shape) pair is a straight-line
computation: the trace *is* the schedule.  The VM (:mod:`repro.graph.vm`)
binds each node to a numpy kernel and replays the list on fresh inputs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Node", "Program"]


class Node:
    """One traced operation.

    Parameters
    ----------
    op:
        Registry name of the kernel (``"matmul"``, ``"conv2d_fused"``, ...).
    params:
        Static (non-tensor) attributes baked at trace time: axes, shapes,
        strides, scalar exponents.  Everything data-dependent must instead
        flow through ``inputs``.
    inputs / outputs:
        Value ids consumed / produced.  Most nodes have one output;
        maxpool produces ``(out, argmax)``.

    Every node is a pure function of its inputs and params: the VM builds
    its kernel from ``(op, params)``.
    """

    __slots__ = ("op", "params", "inputs", "outputs")

    def __init__(
        self,
        op: str,
        params: Dict[str, Any],
        inputs: Tuple[int, ...],
        outputs: Tuple[int, ...],
    ) -> None:
        self.op = op
        self.params = params
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)

    def __repr__(self) -> str:
        return (
            f"Node({self.op!r}, in={list(self.inputs)}, "
            f"out={list(self.outputs)})"
        )


class Program:
    """A topologically ordered op DAG over a flat value-id space.

    Attributes
    ----------
    nodes:
        Nodes in execution order (the order the eager pass ran them).
    n_values:
        Size of the value-id space; ids not produced by any node are
        placeholders or constants.
    placeholders:
        Value ids bound to fresh inputs on every execution, in the order
        :meth:`repro.graph.trace.Tape.watch` was called.
    constants:
        ``{value_id: baked object}`` for values that entered the trace from
        outside the watched set (seed-gradient ones, scalar coefficients).
    outputs:
        Value ids returned by :meth:`repro.graph.vm.VM.run`.
    shapes:
        ``{value_id: shape}`` for ndarray values (``None`` entries for
        auxiliary objects); used by batching.
    """

    def __init__(
        self,
        nodes: List[Node],
        n_values: int,
        placeholders: Sequence[int],
        constants: Dict[int, Any],
        outputs: Sequence[int],
        shapes: Optional[Dict[int, Optional[tuple]]] = None,
    ) -> None:
        self.nodes = list(nodes)
        self.n_values = int(n_values)
        self.placeholders = tuple(placeholders)
        self.constants = dict(constants)
        self.outputs = tuple(outputs)
        self.shapes = dict(shapes or {})
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check producer-before-consumer ordering and single assignment."""
        defined = set(self.placeholders) | set(self.constants)
        for node in self.nodes:
            for vid in node.inputs:
                if vid not in defined:
                    raise ValueError(
                        f"node {node!r} consumes value {vid} before it is "
                        "defined"
                    )
            for vid in node.outputs:
                if vid in defined:
                    raise ValueError(f"value {vid} defined twice ({node!r})")
                defined.add(vid)
        for vid in self.outputs:
            if vid not in defined:
                raise ValueError(f"program output {vid} is never defined")
