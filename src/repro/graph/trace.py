"""Trace tape: records one eager pass as a static op DAG.

The autodiff primitives in :mod:`repro.autodiff.ops` (and the fused conv
kernels, and the few composite sites that create data-dependent constants)
each contain a guarded hook::

    if _trace.TAPE is not None:
        _trace.TAPE.op("matmul", (a, b), out)

When no trace is active the hook is a single module-attribute load and
``is None`` test, so eager execution pays nothing.  Under an active tape the
eager pass runs exactly as usual — same kernels, same bits — while the tape
records, per op, its registry name, static params, and which *values* (keyed
by ndarray identity) flowed in and out.

Array identity is the linchpin: ``Tensor.detach()`` and ``Tensor(x.data)``
share the underlying ndarray with the original, so re-wrapped tensors
resolve to the already-recorded value id for free.  Every object the tape
has seen is kept alive for the tape's lifetime so ``id()`` cannot be
recycled.

This module must stay import-clean (numpy + stdlib only): it is imported by
``repro.autodiff.ops`` at module load, below everything else in the package.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from .ir import Node, Program

__all__ = ["Tape", "TraceError", "activate", "TAPE"]

#: The active tape, or None.  Op hooks read this attribute directly.
TAPE: Optional["Tape"] = None

#: Largest unwatched array (in elements) a trace bakes as a constant.
CONSTANT_SIZE_LIMIT = 16


class TraceError(RuntimeError):
    """Raised when a trace cannot faithfully capture the computation."""


class Tape:
    """Records ops and value flow during one eager pass.

    An unwatched ndarray of more than :data:`CONSTANT_SIZE_LIMIT` elements
    entering the trace raises instead of being baked as a constant.
    Legitimate constants are small (scalar coefficients, seed-gradient
    ones); a large unknown array almost always means a data-dependent value
    was created by a site without a trace hook — baking it would replay
    stale data on fresh inputs, silently.
    """

    def __init__(self) -> None:
        self.records: List[Node] = []
        self.n_values = 0
        self.placeholders: List[int] = []
        self.constants: dict = {}
        self.shapes: dict = {}
        self._by_key: dict = {}  # id(object) -> value id
        self._keep: list = []  # keepalive: pin ids for the tape's lifetime

    # ------------------------------------------------------------------
    # Value registration
    # ------------------------------------------------------------------
    @staticmethod
    def _payload(value: Any) -> Any:
        """Unwrap a Tensor to its ndarray; pass raw objects through."""
        data = getattr(value, "data", None)
        return data if isinstance(data, np.ndarray) else value

    def _new_value(self, obj: Any) -> int:
        vid = self.n_values
        self.n_values += 1
        self._by_key[id(obj)] = vid
        self._keep.append(obj)
        self.shapes[vid] = obj.shape if isinstance(obj, np.ndarray) else None
        return vid

    def watch(self, value: Any, label: str = "") -> int:
        """Register ``value`` as a program input (placeholder)."""
        obj = self._payload(value)
        if id(obj) in self._by_key:
            raise TraceError(
                f"value {label or type(obj).__name__!r} is already on the "
                "tape; watch() every input before running the traced code"
            )
        vid = self._new_value(obj)
        self.placeholders.append(vid)
        return vid

    def _register_constant(self, obj: Any) -> int:
        if not isinstance(obj, np.ndarray):
            raise TraceError(
                f"non-array value of type {type(obj).__name__} entered the "
                "trace without a producing op — missing trace hook?"
            )
        if obj.size > CONSTANT_SIZE_LIMIT:
            raise TraceError(
                f"unwatched array of shape {obj.shape} entered the trace and "
                "would be baked as a constant; if it is data-dependent this "
                "is a missing trace hook, if it is a genuine constant watch() it"
            )
        vid = self._new_value(obj)
        # Copy: the original may be mutated between trace and replay.
        self.constants[vid] = obj.copy()
        return vid

    def _vid_of(self, value: Any) -> int:
        obj = self._payload(value)
        vid = self._by_key.get(id(obj))
        if vid is None:
            vid = self._register_constant(obj)
        return vid

    # ------------------------------------------------------------------
    # Op recording
    # ------------------------------------------------------------------
    def op(
        self,
        name: str,
        inputs: Sequence[Any],
        outputs: Any,
        **params: Any,
    ) -> None:
        """Record one executed op.

        ``outputs`` is a single value or a tuple of values (multi-output
        ops).  Values may be Tensors, ndarrays, or auxiliary objects.
        """
        in_vids = tuple(self._vid_of(v) for v in inputs)
        outs = outputs if isinstance(outputs, (tuple, list)) else (outputs,)
        out_vids = []
        for out in outs:
            obj = self._payload(out)
            if id(obj) in self._by_key:
                raise TraceError(
                    f"op {name!r} produced a value already on the tape "
                    "(aliased output) — the trace cannot represent it"
                )
            out_vids.append(self._new_value(obj))
        self.records.append(
            Node(name, dict(params), in_vids, tuple(out_vids))
        )

    # ------------------------------------------------------------------
    def finish(self, outputs: Sequence[Any]) -> Program:
        """Freeze the tape into a :class:`~repro.graph.ir.Program`."""
        out_vids = []
        for value in outputs:
            obj = self._payload(value)
            vid = self._by_key.get(id(obj))
            if vid is None:
                raise TraceError(
                    "a requested program output was never recorded on the "
                    "tape — did the traced code run under activate()?"
                )
            out_vids.append(vid)
        return Program(
            self.records,
            self.n_values,
            self.placeholders,
            self.constants,
            out_vids,
            self.shapes,
        )


class activate:
    """Context manager installing ``tape`` as the process-wide trace target.

    Tracing is not reentrant: replaying a VM while tracing, or nesting
    traces, raises immediately rather than producing a tangled tape.
    """

    def __init__(self, tape: Tape) -> None:
        self._tape = tape

    def __enter__(self) -> Tape:
        global TAPE
        if TAPE is not None:
            raise TraceError("a trace is already active; traces do not nest")
        TAPE = self._tape
        return self._tape

    def __exit__(self, *exc_info) -> None:
        global TAPE
        TAPE = None
