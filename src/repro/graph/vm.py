"""Graph VM: replays traced programs, sequentially or client-batched.

Three execution layers on top of :class:`~repro.graph.ir.Program`:

* :class:`VM` — binds every node to a numpy kernel and replays the list on
  fresh inputs, with liveness-driven value release and ``out=`` reuse of
  scratch slots from the :class:`~repro.graph.passes.BufferPlan`.  Each
  kernel reproduces its eager op bit-for-bit (most reuse the exact eager
  helper functions), so a VM step equals the eager step bitwise.
* :class:`BatchedVM` — lifts a program along a leading *client* axis: the
  placeholders marked batched receive ``(B,) + shape`` stacks and every op
  is rewritten with an axis-lifting rule (elementwise ops run unchanged;
  ``matmul`` loops per-slice through the same 2-D BLAS call eager uses, so
  per-client results stay bitwise identical).  Ops with no safe lifting
  rule raise :class:`GraphUnsupported` at construction time — callers fall
  back to sequential execution.
* :func:`compile_model_step` — the cached compile entry: trace one eager
  forward+backward of a model, run the pass pipeline, attach the buffer
  plan, and return a :class:`CompiledStep`.  Plans are cached per
  ``(architecture digest, input shape, conv mode)`` with hit/miss counters;
  :func:`repro.obs.fresh` clears the cache for test isolation.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ir import Node, Program
from .passes import (
    BufferPlan,
    ELEMENTWISE,
    liveness,
    optimize,
    plan_buffers,
)
from .trace import Tape, TraceError, activate

__all__ = [
    "GraphUnsupported",
    "VM",
    "BatchedVM",
    "CompiledStep",
    "compile_model_step",
    "trace_callable",
    "plan_cache_clear",
    "plan_cache_stats",
]


class GraphUnsupported(RuntimeError):
    """Raised when a program cannot be executed in the requested mode."""


class _NoPoolWorkspace:
    """Workspace stand-in that never recycles buffers.

    Used while tracing (a recycled buffer would alias two distinct trace
    values under ``id()`` keying) and inside VM conv kernels (the VM's own
    liveness pass manages lifetimes).  ``checkout``/``release`` match
    :class:`repro.autodiff.workspace.Workspace` bit-for-bit: a fresh
    ``np.empty`` filled by the kernel is indistinguishable from a pooled
    buffer filled by the kernel.
    """

    def checkout(self, shape, dtype=np.float64, zero: bool = False):
        if zero:
            return np.zeros(shape, dtype=dtype)
        return np.empty(shape, dtype=dtype)

    def release(self, buf) -> None:  # pragma: no cover - trivial
        pass

    def clear(self) -> None:  # pragma: no cover - trivial
        pass


_NOPOOL = _NoPoolWorkspace()


# ----------------------------------------------------------------------
# Kernel registry
# ----------------------------------------------------------------------

def _elementwise_kernel(op: str, params: dict):
    """Kernel for an elementwise op; returns ``(fn, supports_out)``.

    ``fn(*args, out=None)`` writes into ``out`` when given (same ufunc
    sequence as the eager op, so the bits match either way).
    """
    if op == "add":
        return (lambda a, b, out=None: np.add(a, b, out=out) if out is not None else a + b), True
    if op == "sub":
        return (lambda a, b, out=None: np.subtract(a, b, out=out) if out is not None else a - b), True
    if op == "mul":
        return (lambda a, b, out=None: np.multiply(a, b, out=out) if out is not None else a * b), True
    if op == "neg":
        return (lambda a, out=None: np.negative(a, out=out) if out is not None else -a), True
    if op == "exp":
        return (lambda a, out=None: np.exp(a, out=out) if out is not None else np.exp(a)), True
    if op == "log":
        return (lambda a, out=None: np.log(a, out=out) if out is not None else np.log(a)), True
    if op == "abs":
        return (lambda a, out=None: np.abs(a, out=out) if out is not None else np.abs(a)), True
    if op == "sign":
        return (lambda a, out=None: np.sign(a, out=out) if out is not None else np.sign(a)), True
    if op == "tanh":
        return (lambda a, out=None: np.tanh(a, out=out) if out is not None else np.tanh(a)), True
    if op == "softplus":
        return (lambda a, out=None: np.logaddexp(0.0, a, out=out) if out is not None else np.logaddexp(0.0, a)), True
    if op == "relu":
        return (lambda a, out=None: np.maximum(a, 0.0, out=out) if out is not None else np.maximum(a, 0.0)), True
    if op == "pow":
        exponent = params["exponent"]
        return (lambda a, out=None: np.power(a, exponent, out=out) if out is not None else a ** exponent), True
    if op == "clip":
        low, high = params["low"], params["high"]
        return (lambda a, out=None: np.clip(a, low, high, out=out) if out is not None else np.clip(a, low, high)), True
    if op == "sigmoid":
        def sigmoid(a, out=None):
            if out is None:
                return 1.0 / (1.0 + np.exp(-a))
            np.negative(a, out=out)
            np.exp(out, out=out)
            np.add(out, 1.0, out=out)
            np.divide(1.0, out, out=out)
            return out
        return sigmoid, True
    # Mask-producing ops: allocate fresh (no out= path; they are cheap and
    # rare relative to the arithmetic chain).
    if op == "gtzero_mask":
        return (lambda a: (a > 0).astype(a.dtype)), False
    if op == "clip_mask":
        low, high = params["low"], params["high"]
        return (lambda a: ((a >= low) & (a <= high)).astype(a.dtype)), False
    if op == "leaky_relu":
        slope = params["slope"]
        return (lambda a: np.where(a > 0, a, slope * a)), False
    if op == "leaky_factor":
        slope = params["slope"]
        return (lambda a: np.where(a > 0, 1.0, slope)), False
    raise GraphUnsupported(f"no elementwise kernel for op {op!r}")


def _build_kernel(node: Node):
    """Bind a node to its numpy kernel; returns ``(fn, supports_out)``."""
    op, p = node.op, node.params
    if op in ELEMENTWISE:
        return _elementwise_kernel(op, p)
    if op == "fused":
        subs = [( _elementwise_kernel(name, prm), refs) for name, prm, refs in p["chain"]]

        def fused(*args, out=None):
            cur = None
            for (fn, supports_out), refs in subs:
                call_args = [cur if ref[0] == "prev" else args[ref[1]] for ref in refs]
                if supports_out and out is not None:
                    cur = fn(*call_args, out=out)
                else:
                    cur = fn(*call_args)
            return cur

        return fused, True
    if op == "broadcast_to":
        shape = tuple(p["shape"])
        return (lambda a: np.broadcast_to(a, shape).copy()), False
    if op == "matmul":
        return (lambda a, b: a @ b), False
    if op == "bmm":
        return (lambda a, b: np.matmul(a, b)), False
    if op == "transpose":
        axes = tuple(p["axes"])
        return (lambda a: np.transpose(a, axes).copy()), False
    if op == "reshape":
        shape = p["shape"]
        return (lambda a: a.reshape(shape).copy()), False
    if op == "concatenate":
        axis = p["axis"]
        return (lambda *args: np.concatenate(list(args), axis=axis)), False
    if op == "sum":
        axis, keepdims = p["axis"], p["keepdims"]
        return (lambda a: np.asarray(a.sum(axis=axis, keepdims=keepdims))), False
    if op == "getitem":
        index = p["index"]
        return (lambda a: np.asarray(a[index]).copy()), False
    if op == "scatter":
        index, shape = p["index"], tuple(p["shape"])

        def scatter(g):
            data = np.zeros(shape, dtype=g.dtype)
            data[index] = g
            return data

        return scatter, False
    if op == "pad2d":
        pad = p["pad"]
        return (lambda a: np.pad(a, ((0, 0), (0, 0), (pad, pad), (pad, pad)))), False
    if op == "rowmax":
        return (lambda a: a.max(axis=1, keepdims=True)), False
    if op == "im2col":
        from ..autodiff.ops import _im2col_array

        kh, kw = p["kernel"]
        stride, pad = p["stride"], p["pad"]
        return (lambda a: _im2col_array(a, kh, kw, stride, pad)), False
    if op == "col2im":
        from ..autodiff.ops import _col2im_array

        kh, kw = p["kernel"]
        x_shape, stride, pad = tuple(p["x_shape"]), p["stride"], p["pad"]
        return (lambda a: _col2im_array(a, x_shape, kh, kw, stride, pad)), False
    if op == "maxpool2d":
        kernel = p["kernel"]

        def maxpool(x):
            n, c, h, w = x.shape
            oh, ow = h // kernel, w // kernel
            windows = x.reshape(n, c, oh, kernel, ow, kernel)
            windows = windows.transpose(0, 1, 2, 4, 3, 5).reshape(
                n, c, oh, ow, kernel * kernel
            )
            idx = windows.argmax(axis=-1)
            out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
            rows = np.arange(oh).reshape(1, 1, oh, 1) * kernel + idx // kernel
            cols = np.arange(ow).reshape(1, 1, 1, ow) * kernel + idx % kernel
            argmax = (
                np.arange(n).reshape(n, 1, 1, 1),
                np.arange(c).reshape(1, c, 1, 1),
                rows,
                cols,
            )
            return out, argmax

        return maxpool, False
    if op == "maxpool_scatter":
        x_shape = tuple(p["x_shape"])

        def mp_scatter(g, argmax):
            data = np.zeros(x_shape, dtype=g.dtype)
            data[argmax] = g
            return data

        return mp_scatter, False
    if op == "maxpool_gather":
        return (lambda x, argmax: x[argmax]), False
    if op == "conv2d_fused":
        from ..autodiff.fused import _conv_forward_data

        stride, pad, has_bias = p["stride"], p["pad"], p["has_bias"]

        def conv_fwd(*args):
            x, w = args[0], args[1]
            b = args[2] if has_bias else None
            return _conv_forward_data(x, w, b, stride, pad, _NOPOOL)

        return conv_fwd, False
    if op == "conv2d_dx":
        from ..autodiff.fused import _conv_dx_data, _grad_mat

        x_shape, stride, pad = tuple(p["x_shape"]), p["stride"], p["pad"]

        def conv_dx(g, w):
            gt = _grad_mat(g, _NOPOOL)
            return _conv_dx_data(gt, w, x_shape, stride, pad, _NOPOOL)

        return conv_dx, False
    if op == "conv2d_dw":
        from ..autodiff.fused import _conv_dw_data, _grad_mat, _im2col_cols

        w_shape, stride, pad = tuple(p["w_shape"]), p["stride"], p["pad"]
        kh, kw = w_shape[2], w_shape[3]

        def conv_dw(g, x):
            gt = _grad_mat(g, _NOPOOL)
            cols = _im2col_cols(x, kh, kw, stride, pad, _NOPOOL)
            return _conv_dw_data(gt, cols, w_shape, _NOPOOL)

        return conv_dw, False
    if op == "conv2d_dw_cols":
        from ..autodiff.fused import _conv_dw_data, _grad_mat

        w_shape = tuple(p["w_shape"])

        def conv_dw_cols(g, cols):
            gt = _grad_mat(g, _NOPOOL)
            return _conv_dw_data(gt, cols, w_shape, _NOPOOL)

        return conv_dw_cols, False
    raise GraphUnsupported(f"no kernel registered for op {node.op!r}")


# ----------------------------------------------------------------------
# Sequential VM
# ----------------------------------------------------------------------

class VM:
    """Replays a program on fresh inputs, one client at a time.

    A VM owns mutable scratch buffers (from the buffer plan), so instances
    are **not** thread-safe; create one VM per worker.  Programs and plans
    are immutable and shared freely.
    """

    def __init__(self, program: Program, reuse_buffers: bool = True) -> None:
        self.program = program
        self.buffer_plan: BufferPlan = (
            plan_buffers(program) if reuse_buffers else BufferPlan()
        )
        self._scratch = [
            np.empty(shape, dtype=np.dtype(dtype))
            for shape, dtype in self.buffer_plan.slot_shapes
        ]
        free_after = liveness(program)
        steps = []
        for idx, node in enumerate(program.nodes):
            fn, supports_out = _build_kernel(node)
            slot = (
                self.buffer_plan.slot_of.get(node.outputs[0])
                if supports_out and len(node.outputs) == 1
                else None
            )
            steps.append((fn, node.inputs, node.outputs, slot, free_after[idx]))
        self._steps = steps
        template: List[Any] = [None] * program.n_values
        for vid, value in program.constants.items():
            template[vid] = value
        self._template = template

    def run(self, inputs: Sequence[np.ndarray]) -> List[Any]:
        """Execute the program; returns the output values in order."""
        program = self.program
        if len(inputs) != len(program.placeholders):
            raise ValueError(
                f"program expects {len(program.placeholders)} inputs, "
                f"got {len(inputs)}"
            )
        values = list(self._template)
        for vid, array in zip(program.placeholders, inputs):
            values[vid] = array
        scratch = self._scratch
        for fn, in_vids, out_vids, slot, frees in self._steps:
            args = [values[v] for v in in_vids]
            if slot is not None:
                result = fn(*args, out=scratch[slot])
            else:
                result = fn(*args)
            if len(out_vids) == 1:
                values[out_vids[0]] = result
            else:
                for vid, res in zip(out_vids, result):
                    values[vid] = res
            for vid in frees:
                values[vid] = None
        return [values[vid] for vid in program.outputs]


# ----------------------------------------------------------------------
# Batched VM
# ----------------------------------------------------------------------

def _per_client_ndim(program: Program, vid: int) -> int:
    shape = program.shapes.get(vid)
    if shape is None:
        raise GraphUnsupported("auxiliary values cannot be batched")
    return len(shape)


class BatchedVM:
    """Executes a program for B clients at once along a leading axis.

    Parameters
    ----------
    program:
        An (unfused) traced program.
    batched_placeholders:
        Positions (indices into ``program.placeholders``) whose inputs are
        per-client stacks of shape ``(B,) + traced_shape``.  The remaining
        placeholders are shared across clients, exactly as in the
        sequential loop.

    Construction lifts every node reachable from a batched input with an
    op-specific rule; an op with no bitwise-safe rule raises
    :class:`GraphUnsupported`, and callers fall back to per-client VMs.
    """

    def __init__(self, program: Program, batched_placeholders: Sequence[int]) -> None:
        self.program = program
        self.batched_positions = tuple(batched_placeholders)
        batched = {program.placeholders[i] for i in self.batched_positions}
        steps = []
        for node in program.nodes:
            in_flags = tuple(vid in batched for vid in node.inputs)
            fn, out_batched = self._lift(node, in_flags)
            if out_batched:
                batched.update(node.outputs)
            steps.append((fn, node.inputs, node.outputs))
        self._steps = steps
        self.batched_values = batched
        template: List[Any] = [None] * program.n_values
        for vid, value in program.constants.items():
            template[vid] = value
        self._template = template

    # -- lifting rules -------------------------------------------------
    def _lift(self, node: Node, in_flags: Tuple[bool, ...]):
        program = self.program
        op = node.op
        if not any(in_flags):
            return _build_kernel(node)[0], False
        if op in ELEMENTWISE:
            # Unchanged kernel: numpy broadcasting aligns the unbatched
            # operands against the trailing (per-client) axes, which matches
            # the per-client computation bit-for-bit — provided no unbatched
            # operand outranks a batched one.
            batched_ndim = min(
                _per_client_ndim(program, vid)
                for vid, flag in zip(node.inputs, in_flags)
                if flag
            )
            for vid, flag in zip(node.inputs, in_flags):
                if not flag and _per_client_ndim(program, vid) > batched_ndim:
                    raise GraphUnsupported(
                        f"elementwise op {op!r} broadcasts an unbatched "
                        "operand over leading axes; no safe lifting"
                    )
            return _elementwise_kernel(op, node.params)[0], True
        if op == "fused":
            raise GraphUnsupported("batch the unfused program, not the fused one")
        if op == "broadcast_to":
            shape = tuple(node.params["shape"])
            return (lambda a: np.broadcast_to(a, (a.shape[0],) + shape).copy()), True
        if op == "reshape":
            shape = node.params["shape"]
            shape = (shape,) if isinstance(shape, int) else tuple(shape)
            return (lambda a: a.reshape((a.shape[0],) + shape).copy()), True
        if op == "transpose":
            axes = (0,) + tuple(ax + 1 for ax in node.params["axes"])
            return (lambda a: np.transpose(a, axes).copy()), True
        if op == "sum":
            axis, keepdims = node.params["axis"], node.params["keepdims"]
            ndim = _per_client_ndim(program, node.inputs[0])
            if axis is None:
                axes = tuple(range(1, ndim + 1))
            else:
                axes = tuple(ax + 1 for ax in axis)
            return (
                lambda a: np.asarray(a.sum(axis=axes, keepdims=keepdims))
            ), True
        if op == "rowmax":
            return (lambda a: a.max(axis=2, keepdims=True)), True
        if op == "getitem":
            index = node.params["index"]
            index = index if isinstance(index, tuple) else (index,)
            lifted = (slice(None),) + index
            return (lambda a: np.asarray(a[lifted]).copy()), True
        if op == "scatter":
            index = node.params["index"]
            index = index if isinstance(index, tuple) else (index,)
            lifted = (slice(None),) + index
            shape = tuple(node.params["shape"])

            def scatter(g):
                data = np.zeros((g.shape[0],) + shape, dtype=g.dtype)
                data[lifted] = g
                return data

            return scatter, True
        if op == "concatenate":
            if not all(in_flags):
                raise GraphUnsupported("mixed batched/unbatched concatenate")
            axis = node.params["axis"] + 1
            return (lambda *args: np.concatenate(list(args), axis=axis)), True
        if op == "matmul":
            a_b, b_b = in_flags

            def matmul(a, b):
                # Per-slice 2-D products through the same BLAS call the
                # sequential loop makes — stacked np.matmul is not
                # guaranteed bit-identical to it, a per-slice loop is.
                if a_b and b_b:
                    rows = [a[i] @ b[i] for i in range(a.shape[0])]
                elif a_b:
                    rows = [a[i] @ b for i in range(a.shape[0])]
                else:
                    rows = [a @ b[i] for i in range(b.shape[0])]
                return np.stack(rows)

            return matmul, True
        if op == "bmm":
            a_b, b_b = in_flags

            def bmm(a, b):
                # Per-client 3-D products through the same np.matmul call the
                # eager loop makes — a 4-D stacked matmul is not guaranteed
                # bit-identical to it, a per-client loop is.
                if a_b and b_b:
                    rows = [np.matmul(a[i], b[i]) for i in range(a.shape[0])]
                elif a_b:
                    rows = [np.matmul(a[i], b) for i in range(a.shape[0])]
                else:
                    rows = [np.matmul(a, b[i]) for i in range(b.shape[0])]
                return np.stack(rows)

            return bmm, True
        raise GraphUnsupported(f"op {op!r} has no batched lifting rule")

    def run(self, inputs: Sequence[np.ndarray]) -> List[Any]:
        """Execute for a stack of clients; batched inputs carry the leading
        client axis."""
        program = self.program
        if len(inputs) != len(program.placeholders):
            raise ValueError(
                f"program expects {len(program.placeholders)} inputs, "
                f"got {len(inputs)}"
            )
        values = list(self._template)
        for vid, array in zip(program.placeholders, inputs):
            values[vid] = array
        for fn, in_vids, out_vids in self._steps:
            result = fn(*[values[v] for v in in_vids])
            if len(out_vids) == 1:
                values[out_vids[0]] = result
            else:
                for vid, res in zip(out_vids, result):
                    values[vid] = res
        return [values[vid] for vid in program.outputs]


# ----------------------------------------------------------------------
# Tracing entry points
# ----------------------------------------------------------------------

def trace_callable(
    fn: Callable[..., Sequence[Any]],
    example_inputs: Sequence[Any],
    strict: bool = True,
) -> Program:
    """Trace ``fn(*tensors)`` into a program.

    ``example_inputs`` are arrays; each is wrapped in a gradient-carrying
    Tensor and watched, in order.  ``fn`` must return the output tensors
    (a single tensor or a sequence).  The global fused-kernel workspace is
    swapped for a non-recycling one while tracing, so pooled buffers cannot
    alias two trace values.
    """
    from ..autodiff.tensor import Tensor
    from ..autodiff import workspace as workspace_mod

    tape = Tape(strict=strict)
    tensors = []
    previous_ws = workspace_mod.get_workspace()
    workspace_mod.set_workspace(_NOPOOL)
    try:
        with activate(tape):
            for array in example_inputs:
                t = Tensor(np.asarray(array, dtype=np.float64).copy(), requires_grad=True)
                tape.watch(t)
                tensors.append(t)
            outputs = fn(*tensors)
        if not isinstance(outputs, (tuple, list)):
            outputs = (outputs,)
        return tape.finish(list(outputs))
    finally:
        workspace_mod.set_workspace(previous_ws)


class CompiledStep:
    """Compile artifact for one (model architecture, input shape) pair.

    Holds the optimized program, its buffer plan, and the placeholder
    layout ``(x, y, *params in (layer, sorted key) order)``; outputs are
    ``(loss, *gradients)`` in the same parameter order.  ``make_vm()``
    builds a per-worker executor.
    """

    def __init__(
        self,
        program: Program,
        optimized: Program,
        param_index: List[Tuple[int, str]],
    ) -> None:
        self.program = program  # unfused (batchable)
        self.optimized = optimized  # DCE + fusion (fast sequential replay)
        self.param_index = list(param_index)
        self.buffer_plan = plan_buffers(optimized)

    def make_vm(self) -> VM:
        return VM(self.optimized)

    def run_step(self, vm: VM, model, x: np.ndarray, y: np.ndarray):
        """One train-step evaluation: returns ``(loss, grads)`` with grads
        aligned to ``param_index``; parameters are read live from the model."""
        params = [
            model.layers[li].params[key].data for li, key in self.param_index
        ]
        out = vm.run([np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64), *params])
        return float(np.asarray(out[0]).reshape(-1)[0]), out[1:]


_PLAN_CACHE: Dict[tuple, CompiledStep] = {}
_PLAN_CACHE_LOCK = threading.Lock()


def plan_cache_clear() -> None:
    """Drop all cached compile plans (hooked into :func:`repro.obs.fresh`)."""
    with _PLAN_CACHE_LOCK:
        _PLAN_CACHE.clear()


def plan_cache_stats() -> dict:
    with _PLAN_CACHE_LOCK:
        return {"entries": len(_PLAN_CACHE)}


def _plan_cache_key(model, x_shape: tuple, y_shape: tuple) -> tuple:
    from ..autodiff import functional as F

    return (
        model.architecture_digest(),
        tuple(x_shape),
        tuple(y_shape),
        bool(F._USE_FUSED_CONV),
    )


def compile_model_step(model, example_x: np.ndarray, example_y: np.ndarray) -> CompiledStep:
    """Trace + optimize one train step of ``model`` (cached).

    The traced computation is exactly ``loss_and_gradients``: a
    cross-entropy forward over the layer stack and one reverse pass
    collecting per-parameter gradients in (layer, sorted key) order.
    """
    from ..obs import get_registry, get_tracer

    x = np.asarray(example_x, dtype=np.float64)
    y = np.asarray(example_y, dtype=np.float64)
    key = _plan_cache_key(model, x.shape, y.shape)
    registry = get_registry()
    with _PLAN_CACHE_LOCK:
        cached = _PLAN_CACHE.get(key)
    if cached is not None:
        registry.counter("graph.plan_cache.hits", "compile plans served from cache").inc()
        return cached
    registry.counter("graph.plan_cache.misses", "compile plans traced anew").inc()

    param_index: List[Tuple[int, str]] = []
    for li, layer in enumerate(model.layers):
        for key_name in sorted(layer.params):
            param_index.append((li, key_name))

    with get_tracer().span("graph.compile", model=model.name, inputs=str(x.shape)):

        def step_fn(x_t, y_t, *param_tensors):
            from ..autodiff import functional as F
            from ..autodiff.tensor import grad

            # Run the layers against the watched parameter tensors: swap
            # them in for the trace, restore after.
            saved = []
            for (li, key_name), p_t in zip(param_index, param_tensors):
                saved.append(model.layers[li].params[key_name])
                model.layers[li].params[key_name] = p_t
            try:
                loss = F.cross_entropy(model.forward(x_t), y_t)
                grads = grad(loss, list(param_tensors)) if param_tensors else ()
            finally:
                for (li, key_name), original in zip(param_index, saved):
                    model.layers[li].params[key_name] = original
            return (loss, *grads)

        param_arrays = [
            model.layers[li].params[key_name].data for li, key_name in param_index
        ]
        program = trace_callable(step_fn, [x, y, *param_arrays])
    step = CompiledStep(program, optimize(program), param_index)
    with _PLAN_CACHE_LOCK:
        _PLAN_CACHE[key] = step
    return step


def _register_fresh_hook() -> None:
    from ..obs import on_fresh

    on_fresh(plan_cache_clear)


_register_fresh_hook()
