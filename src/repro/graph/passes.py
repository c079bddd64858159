"""Deterministic optimization passes over traced programs.

Three passes, all bitwise-neutral by construction:

* :func:`eliminate_dead_code` — drops nodes whose outputs never reach the
  program outputs.  A traced train step always records some unconsumed
  adjoints (e.g. the input-gradient chain when only parameter gradients are
  requested); pruning them removes real kernel launches.
* :func:`fuse_elementwise` — generalizes PR 1's fused-conv idea to every
  elementwise chain: runs of same-shape elementwise ops in which each link
  is the *sole* consumer of its predecessor collapse into one
  :class:`~repro.graph.ir.Node` with ``op="fused"``.  The VM executes the
  chain back-to-back through a single scratch buffer (``out=`` chaining);
  since each sub-op runs the identical ufunc on identical input bits, the
  fused result is bitwise equal to the unfused one.
* :func:`plan_buffers` — liveness analysis assigning elementwise outputs to
  reusable scratch slots and computing, as a compile-time artifact, the
  peak live bytes of the schedule.

The pass pipeline (:func:`optimize`) is deterministic: same program in,
same program out, no randomness, no wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .ir import Node, Program

__all__ = [
    "eliminate_dead_code",
    "fuse_elementwise",
    "liveness",
    "plan_buffers",
    "optimize",
    "BufferPlan",
    "ELEMENTWISE_UNARY",
    "ELEMENTWISE_BINARY",
]

# Elementwise ops whose output shape equals their (first) input shape and
# whose kernels support ``out=`` chaining.  Binary members additionally
# require both operand shapes to equal the output shape (no broadcasting)
# before they join a fused chain.
ELEMENTWISE_UNARY = frozenset(
    {
        "neg", "exp", "log", "sigmoid", "tanh", "relu", "gtzero_mask", "pow",
    }
)
ELEMENTWISE_BINARY = frozenset({"add", "sub", "mul"})
ELEMENTWISE = ELEMENTWISE_UNARY | ELEMENTWISE_BINARY


def eliminate_dead_code(program: Program) -> Program:
    """Drop nodes that contribute to no program output."""
    needed = set(program.outputs)
    kept_reversed: List[Node] = []
    for node in reversed(program.nodes):
        if any(vid in needed for vid in node.outputs):
            kept_reversed.append(node)
            needed.update(node.inputs)
    return program.with_nodes(list(reversed(kept_reversed)))


def _consumer_counts(program: Program) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for node in program.nodes:
        for vid in node.inputs:
            counts[vid] = counts.get(vid, 0) + 1
    for vid in program.outputs:
        counts[vid] = counts.get(vid, 0) + 1
    return counts


def _fusable(node: Node, program: Program) -> bool:
    if node.op not in ELEMENTWISE or len(node.outputs) != 1:
        return False
    out_shape = program.shapes.get(node.outputs[0])
    if out_shape is None:
        return False
    # All ndarray operands must match the output shape exactly; scalar () and
    # broadcast operands would change the ufunc loop the chain runs.
    return all(program.shapes.get(vid) == out_shape for vid in node.inputs)


def fuse_elementwise(program: Program) -> Program:
    """Collapse single-consumer chains of same-shape elementwise ops.

    A fused node's ``params["chain"]`` holds the sub-op specs in execution
    order.  Each spec is ``(op, params, arg_refs)`` where an arg ref is
    either ``("prev",)`` (the running chain value) or ``("ext", k)`` (the
    k-th external input of the fused node).
    """
    consumers = _consumer_counts(program)
    nodes = program.nodes
    fused_nodes: List[Node] = []
    i = 0
    while i < len(nodes):
        node = nodes[i]
        if not _fusable(node, program):
            fused_nodes.append(node)
            i += 1
            continue
        # Greedily extend the chain while the next node is fusable, consumes
        # exactly this node's output, and is its sole consumer.
        chain = [node]
        while True:
            last = chain[-1]
            out_vid = last.outputs[0]
            nxt = nodes[i + len(chain)] if i + len(chain) < len(nodes) else None
            if (
                nxt is not None
                and _fusable(nxt, program)
                and out_vid in nxt.inputs
                and consumers.get(out_vid, 0) == 1
                and out_vid not in program.outputs
            ):
                chain.append(nxt)
            else:
                break
        if len(chain) == 1:
            fused_nodes.append(node)
            i += 1
            continue
        ext_inputs: List[int] = []
        ext_index: Dict[int, int] = {}
        specs = []
        chain_vids = {link.outputs[0] for link in chain[:-1]}
        for link in chain:
            arg_refs = []
            for vid in link.inputs:
                if vid in chain_vids:
                    arg_refs.append(("prev",))
                else:
                    if vid not in ext_index:
                        ext_index[vid] = len(ext_inputs)
                        ext_inputs.append(vid)
                    arg_refs.append(("ext", ext_index[vid]))
            specs.append((link.op, link.params, tuple(arg_refs)))
        fused_nodes.append(
            Node(
                "fused",
                {"chain": specs},
                tuple(ext_inputs),
                (chain[-1].outputs[0],),
            )
        )
        i += len(chain)
    return program.with_nodes(fused_nodes)


def liveness(program: Program) -> List[List[int]]:
    """Per-node list of value ids that die right after that node runs.

    Placeholders, constants and program outputs are never freed (inputs
    belong to the caller; outputs are returned).
    """
    pinned = (
        set(program.placeholders)
        | set(program.constants)
        | set(program.outputs)
    )
    last_use: Dict[int, int] = {}
    for idx, node in enumerate(program.nodes):
        for vid in node.inputs:
            last_use[vid] = idx
        for vid in node.outputs:
            last_use.setdefault(vid, idx)
    free_after: List[List[int]] = [[] for _ in program.nodes]
    for vid, idx in last_use.items():
        if vid not in pinned:
            free_after[idx].append(vid)
    for frees in free_after:
        frees.sort()
    return free_after


@dataclass
class BufferPlan:
    """Liveness-derived buffer-reuse plan (a compile-time artifact).

    ``slot_of`` maps a value id to a reusable scratch-slot index;
    ``slot_shapes`` describes each slot.  Values not in ``slot_of`` are
    materialized fresh (non-elementwise results, program outputs).
    ``peak_live_bytes`` is the maximum, over the schedule, of the bytes of
    all simultaneously live ndarray values — what the step costs in working
    memory before any TEE accounting.
    """

    slot_of: Dict[int, int] = field(default_factory=dict)
    slot_shapes: List[Tuple[tuple, str]] = field(default_factory=list)
    peak_live_bytes: int = 0

    @property
    def scratch_bytes(self) -> int:
        return sum(
            int(np.prod(shape)) * np.dtype(dtype).itemsize
            for shape, dtype in self.slot_shapes
        )


def _value_bytes(program: Program, vid: int) -> int:
    shape = program.shapes.get(vid)
    dtype = program.dtypes.get(vid)
    if shape is None or dtype is None:
        return 0
    return int(np.prod(shape)) * np.dtype(dtype).itemsize


def plan_buffers(program: Program) -> BufferPlan:
    """Assign elementwise outputs to reusable scratch slots.

    Slots are keyed on exact ``(shape, dtype)``; a slot freed by liveness is
    reused by the next value of the same key.  Program outputs never get a
    slot (they are handed to the caller, who may hold them across runs).
    Writing an elementwise result into the slot that held one of its own
    operands is safe: elementwise ufuncs have no loop-carried dependence.
    """
    free_after = liveness(program)
    plan = BufferPlan()
    free_slots: Dict[Tuple[tuple, str], List[int]] = {}
    live_bytes = sum(_value_bytes(program, vid) for vid in program.placeholders)
    live_bytes += sum(_value_bytes(program, vid) for vid in program.constants)
    peak = live_bytes
    slot_owner: Dict[int, int] = {}
    for idx, node in enumerate(program.nodes):
        for vid in node.outputs:
            live_bytes += _value_bytes(program, vid)
        peak = max(peak, live_bytes)
        if (
            (node.op in ELEMENTWISE or node.op == "fused")
            and len(node.outputs) == 1
            and node.outputs[0] not in program.outputs
        ):
            out_vid = node.outputs[0]
            shape = program.shapes.get(out_vid)
            dtype = program.dtypes.get(out_vid)
            if shape is not None and dtype is not None:
                key = (tuple(shape), dtype)
                stack = free_slots.get(key)
                if stack:
                    slot = stack.pop()
                else:
                    slot = len(plan.slot_shapes)
                    plan.slot_shapes.append(key)
                plan.slot_of[out_vid] = slot
                slot_owner[out_vid] = slot
        for vid in free_after[idx]:
            live_bytes -= _value_bytes(program, vid)
            slot = slot_owner.pop(vid, None)
            if slot is not None:
                shape = program.shapes.get(vid)
                dtype = program.dtypes.get(vid)
                free_slots.setdefault((tuple(shape), dtype), []).append(slot)
    plan.peak_live_bytes = int(peak)
    return plan


def optimize(program: Program, fuse: bool = True) -> Program:
    """Run the standard pass pipeline: DCE, then elementwise fusion."""
    program = eliminate_dead_code(program)
    if fuse:
        program = fuse_elementwise(program)
    return program
