"""Graph VM: replays traced programs, sequentially or client-batched.

Three entry points on top of :class:`~repro.graph.ir.Program`:

* :class:`VM` — binds every node to a numpy kernel and replays the traced
  node list on fresh inputs.  Each kernel reproduces its eager op
  bit-for-bit (most reuse the exact eager helper functions), so a VM step
  equals the eager step bitwise.
* :class:`BatchedVM` — lifts a program along a leading *client* axis: the
  placeholders marked batched receive ``(B,) + shape`` stacks, and every
  node reached by a batched value must be elementwise (those run
  unchanged, so per-client results stay bitwise identical).  Any other op
  raises :class:`GraphUnsupported` at construction time.
* :func:`compile_model_step` — trace one eager forward+backward of a
  model and return a :class:`CompiledStep` holding the program.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

import numpy as np

from .ir import Node, Program
from .trace import Tape, activate

__all__ = [
    "GraphUnsupported",
    "VM",
    "BatchedVM",
    "CompiledStep",
    "compile_model_step",
    "trace_callable",
]


class GraphUnsupported(RuntimeError):
    """Raised when a program cannot be executed in the requested mode."""


class _NoPoolWorkspace:
    """Workspace stand-in that never recycles buffers.

    Used while tracing (a recycled buffer would alias two distinct trace
    values under ``id()`` keying) and inside VM conv kernels.
    ``checkout``/``release`` match
    :class:`repro.autodiff.workspace.Workspace` bit-for-bit: a fresh
    ``np.empty`` filled by the kernel is indistinguishable from a pooled
    buffer filled by the kernel.
    """

    def checkout(self, shape, dtype, zero: bool = False):
        if zero:
            return np.zeros(shape, dtype=dtype)
        return np.empty(shape, dtype=dtype)

    def release(self, buf) -> None:  # pragma: no cover - trivial
        pass


_NOPOOL = _NoPoolWorkspace()


# ----------------------------------------------------------------------
# Kernel registry
# ----------------------------------------------------------------------

#: Elementwise kernels: the same ufunc sequence as the eager op.
_ELEMENTWISE_KERNELS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "neg": lambda a: -a,
    "exp": np.exp,
    "log": np.log,
    "tanh": np.tanh,
    "relu": lambda a: np.maximum(a, 0.0),
    "sigmoid": lambda a: 1.0 / (1.0 + np.exp(-a)),
    "gtzero_mask": lambda a: (a > 0).astype(a.dtype),
}

#: Ops whose output shape is their operands' broadcast shape, computed
#: entry by entry: the ops :class:`BatchedVM` can lift.
ELEMENTWISE = frozenset(_ELEMENTWISE_KERNELS) | {"pow"}


def _build_kernel(node: Node):
    """Bind a node to its numpy kernel."""
    op, p = node.op, node.params
    if op == "pow":
        exponent = p["exponent"]
        return lambda a: a ** exponent
    if op in _ELEMENTWISE_KERNELS:
        return _ELEMENTWISE_KERNELS[op]
    if op == "broadcast_to":
        shape = tuple(p["shape"])
        return lambda a: np.broadcast_to(a, shape).copy()
    if op == "matmul":
        return lambda a, b: a @ b
    if op == "bmm":
        return lambda a, b: np.matmul(a, b)
    if op == "transpose":
        axes = tuple(p["axes"])
        return lambda a: np.transpose(a, axes).copy()
    if op == "reshape":
        shape = p["shape"]
        return lambda a: a.reshape(shape).copy()
    if op == "sum":
        axis, keepdims = p["axis"], p["keepdims"]
        return lambda a: np.asarray(a.sum(axis=axis, keepdims=keepdims))
    if op == "getitem":
        index = p["index"]
        return lambda a: np.asarray(a[index]).copy()
    if op == "scatter":
        index, shape = p["index"], tuple(p["shape"])

        def scatter(g):
            data = np.zeros(shape, dtype=g.dtype)
            data[index] = g
            return data

        return scatter
    if op == "pad2d":
        pad = p["pad"]
        return lambda a: np.pad(a, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    if op == "rowmax":
        return lambda a: a.max(axis=1, keepdims=True)
    if op == "im2col":
        from ..autodiff.ops import _im2col_array

        kh, kw = p["kernel"]
        stride, pad = p["stride"], p["pad"]
        return lambda a: _im2col_array(a, kh, kw, stride, pad)
    if op == "col2im":
        from ..autodiff.ops import _col2im_array

        kh, kw = p["kernel"]
        x_shape, stride, pad = tuple(p["x_shape"]), p["stride"], p["pad"]
        return lambda a: _col2im_array(a, x_shape, kh, kw, stride, pad)
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

        return maxpool
    if op == "maxpool_scatter":
        x_shape = tuple(p["x_shape"])

        def mp_scatter(g, argmax):
            data = np.zeros(x_shape, dtype=g.dtype)
            data[argmax] = g
            return data

        return mp_scatter
    if op == "maxpool_gather":
        return lambda x, argmax: x[argmax]
    if op == "conv2d_fused":
        from ..autodiff.fused import _conv_forward_data

        stride, pad, has_bias = p["stride"], p["pad"], p["has_bias"]

        def conv_fwd(*args):
            x, w = args[0], args[1]
            b = args[2] if has_bias else None
            return _conv_forward_data(x, w, b, stride, pad, _NOPOOL)

        return conv_fwd
    if op == "conv2d_dx":
        from ..autodiff.fused import _conv_dx_data, _grad_mat

        x_shape, stride, pad = tuple(p["x_shape"]), p["stride"], p["pad"]

        def conv_dx(g, w):
            gt = _grad_mat(g, _NOPOOL)
            return _conv_dx_data(gt, w, x_shape, stride, pad, _NOPOOL)

        return conv_dx
    if op == "conv2d_dw":
        from ..autodiff.fused import _conv_dw_data, _grad_mat

        w_shape, stride, pad = tuple(p["w_shape"]), p["stride"], p["pad"]

        def conv_dw(g, x):
            gt = _grad_mat(g, _NOPOOL)
            return _conv_dw_data(gt, x, w_shape, stride, pad, _NOPOOL)

        return conv_dw
    raise GraphUnsupported(f"no kernel registered for op {node.op!r}")


def _replay(program: Program, steps, inputs: Sequence[Any]) -> List[Any]:
    """Run ``steps`` (``(kernel, input ids, output ids)`` in node order)
    with ``inputs`` bound to the placeholders; return the outputs."""
    if len(inputs) != len(program.placeholders):
        raise ValueError(
            f"program expects {len(program.placeholders)} inputs, "
            f"got {len(inputs)}"
        )
    values: List[Any] = [None] * program.n_values
    for vid, value in program.constants.items():
        values[vid] = value
    for vid, array in zip(program.placeholders, inputs):
        values[vid] = array
    for fn, in_vids, out_vids in steps:
        result = fn(*[values[v] for v in in_vids])
        if len(out_vids) == 1:
            values[out_vids[0]] = result
        else:
            for vid, res in zip(out_vids, result):
                values[vid] = res
    return [values[vid] for vid in program.outputs]


# ----------------------------------------------------------------------
# Sequential VM
# ----------------------------------------------------------------------

class VM:
    """Replays a program on fresh inputs, one client at a time."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._steps = [
            (_build_kernel(node), node.inputs, node.outputs)
            for node in program.nodes
        ]

    def run(self, inputs: Sequence[np.ndarray]) -> List[Any]:
        """Execute the program; returns the output values in order."""
        return _replay(self.program, self._steps, inputs)


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
        A traced program.
    batched_placeholders:
        Positions (indices into ``program.placeholders``) whose inputs are
        per-client stacks of shape ``(B,) + traced_shape``.  The remaining
        placeholders are shared across clients, exactly as in the
        sequential loop.

    Construction lifts every node reachable from a batched input; a node
    that is not elementwise, or that would broadcast an unbatched operand
    over the client axis, raises :class:`GraphUnsupported`.
    """

    def __init__(self, program: Program, batched_placeholders: Sequence[int]) -> None:
        self.program = program
        batched = {program.placeholders[i] for i in batched_placeholders}
        steps = []
        for node in program.nodes:
            in_flags = tuple(vid in batched for vid in node.inputs)
            if any(in_flags):
                self._check_liftable(node, in_flags)
                batched.update(node.outputs)
            steps.append((_build_kernel(node), node.inputs, node.outputs))
        self._steps = steps

    def _check_liftable(self, node: Node, in_flags: Tuple[bool, ...]) -> None:
        # An elementwise kernel runs unchanged: numpy broadcasting aligns
        # the unbatched operands against the trailing (per-client) axes,
        # which matches the per-client computation bit-for-bit — provided
        # no unbatched operand outranks a batched one.
        if node.op not in ELEMENTWISE:
            raise GraphUnsupported(f"op {node.op!r} has no batched lifting rule")
        program = self.program
        batched_ndim = min(
            _per_client_ndim(program, vid)
            for vid, flag in zip(node.inputs, in_flags)
            if flag
        )
        for vid, flag in zip(node.inputs, in_flags):
            if not flag and _per_client_ndim(program, vid) > batched_ndim:
                raise GraphUnsupported(
                    f"elementwise op {node.op!r} broadcasts an unbatched "
                    "operand over leading axes; no safe lifting"
                )

    def run(self, inputs: Sequence[np.ndarray]) -> List[Any]:
        """Execute for a stack of clients; batched inputs carry the leading
        client axis."""
        return _replay(self.program, self._steps, inputs)


# ----------------------------------------------------------------------
# Tracing entry points
# ----------------------------------------------------------------------

class CompiledStep:
    """Compile artifact for one (model architecture, input shape) pair.

    Holds the traced program and the placeholder layout ``(x, y, *params
    in (layer, sorted key) order)``; outputs are ``(loss, *gradients)`` in
    the same parameter order.  ``make_vm()`` builds a per-worker executor.
    """

    def __init__(self, program: Program, param_index: List[Tuple[int, str]]) -> None:
        self.program = program
        self.param_index = list(param_index)

    def make_vm(self) -> VM:
        return VM(self.program)

    def run_step(self, vm: VM, model, x: np.ndarray, y: np.ndarray):
        """One train-step evaluation: returns ``(loss, grads)`` with grads
        aligned to ``param_index``; parameters are read live from the model."""
        params = [
            model.layers[li].params[key].data for li, key in self.param_index
        ]
        out = vm.run([np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64), *params])
        return float(np.asarray(out[0]).reshape(-1)[0]), out[1:]


def compile_model_step(model, example_x: np.ndarray, example_y: np.ndarray) -> CompiledStep:
    """Trace one train step of ``model``.

    The traced computation is exactly ``loss_and_gradients``: a
    cross-entropy forward over the layer stack and one reverse pass
    collecting per-parameter gradients in (layer, sorted key) order.
    """
    from ..obs import get_tracer

    x = np.asarray(example_x, dtype=np.float64)
    y = np.asarray(example_y, dtype=np.float64)
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
    return CompiledStep(program, param_index)


def trace_callable(
    fn: Callable[..., Sequence[Any]], example_inputs: Sequence[Any]
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

    tape = Tape()
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
