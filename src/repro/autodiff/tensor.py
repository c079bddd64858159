"""Reverse-mode automatic differentiation on numpy arrays.

This module implements the :class:`Tensor` node of a dynamically built
computation graph.  The key design decision — made so that the
Data-Reconstruction Inference Attack (DRIA) can differentiate *through* the
gradient computation — is that every backward rule is itself expressed with
Tensor operations.  Backpropagating with ``create_graph=True`` therefore
yields gradient tensors that are themselves differentiable (double
backward), exactly like ``torch.autograd.grad(..., create_graph=True)``.

Only the graph plumbing lives here; the actual operations are defined in
:mod:`repro.autodiff.ops` and registered onto :class:`Tensor`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = ["Tensor", "as_tensor", "grad"]

_FLOAT32 = np.dtype(np.float32)
_FLOAT64 = np.dtype(np.float64)


class Tensor:
    """A node in the autodiff graph wrapping a ``numpy.ndarray``.

    Parameters
    ----------
    data:
        The payload.  Anything accepted by ``numpy.asarray``; float32 data
        is kept as float32, everything else is stored as float64.
    requires_grad:
        Whether gradients should flow into this tensor.
    parents:
        Graph predecessors (the inputs of the op that produced this tensor).
    grad_fn:
        Callable mapping the incoming gradient (a :class:`Tensor`) to a tuple
        of gradients, one per parent (``None`` for parents that do not
        require grad).  Must be written in terms of Tensor ops so that
        higher-order differentiation works, and must hold the tensor it is
        attached to only weakly (see :mod:`repro.autodiff.ops`).
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = (
        "data", "requires_grad", "grad", "_parents", "_grad_fn", "name", "__weakref__"
    )

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        grad_fn: Optional[Callable[["Tensor"], tuple]] = None,
        name: str = "",
    ) -> None:
        data = np.asarray(data)
        # float32 is the device's training precision and stays float32;
        # anything else (ints, bools, float16, Python floats) is float64.
        if data.dtype != _FLOAT64 and data.dtype != _FLOAT32:
            data = data.astype(_FLOAT64)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Tensor] = None
        self._parents: tuple = tuple(parents)
        self._grad_fn = grad_fn
        self.name = name

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return (
            f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}"
            f"{label})"
        )

    def item(self) -> float:
        """Return the scalar value of a 0-d or single-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, gradient: Optional["Tensor"] = None, create_graph: bool = False) -> None:
        """Backpropagate from this tensor, accumulating into ``.grad``.

        Parameters
        ----------
        gradient:
            Seed gradient.  Defaults to ones (only valid for scalar outputs).
        create_graph:
            If True, the computed gradients remain connected to the graph so
            they can themselves be differentiated (double backward).
        """
        grads = _backward_pass([self], [gradient], create_graph=create_graph)
        for tensor, g in grads.items():
            if tensor.requires_grad:
                if tensor.grad is None:
                    tensor.grad = g
                else:
                    tensor.grad = Tensor(
                        tensor.grad.data + g.data, requires_grad=False
                    ) if not create_graph else tensor.grad + g

    def __hash__(self) -> int:  # identity semantics: tensors are graph nodes
        return id(self)

    def __eq__(self, other) -> bool:
        return self is other


def as_tensor(value, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no-op if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def _topological_order(roots: Iterable[Tensor]) -> list:
    """Return tensors reachable from ``roots`` in reverse-topological order."""
    order: list = []
    visited: set = set()
    stack = [(root, False) for root in roots]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def _backward_pass(
    outputs: Sequence[Tensor],
    seed_grads: Sequence[Optional[Tensor]],
    create_graph: bool,
) -> dict:
    """Run reverse-mode accumulation and return a {tensor: grad} mapping."""
    grads: dict = {}
    for out, seed in zip(outputs, seed_grads):
        if seed is None:
            if out.size != 1:
                raise ValueError(
                    "backward() on a non-scalar tensor requires an explicit "
                    f"seed gradient (shape={out.shape})"
                )
            seed = Tensor(np.ones_like(out.data))
        if seed.shape != out.shape:
            raise ValueError(
                f"seed gradient shape {seed.shape} does not match output "
                f"shape {out.shape}"
            )
        _accumulate(grads, out, seed, create_graph)

    for node in _topological_order(outputs):  # roots first
        g = grads.get(node)
        if g is None or node._grad_fn is None:
            continue
        parent_grads = node._grad_fn(g)
        if len(parent_grads) != len(node._parents):
            raise RuntimeError(
                f"grad_fn of {node!r} returned {len(parent_grads)} gradients "
                f"for {len(node._parents)} parents"
            )
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None:
                continue
            if not _needs_grad(parent):
                continue
            _accumulate(grads, parent, pg, create_graph)
    return grads


def _needs_grad(tensor: Tensor) -> bool:
    """A tensor participates in backward if it or any ancestor requires grad."""
    if tensor.requires_grad:
        return True
    return tensor._grad_fn is not None


def _accumulate(grads: dict, tensor: Tensor, g: Tensor, create_graph: bool) -> None:
    if not create_graph:
        g = g.detach()
    if g.shape != tensor.shape:
        raise RuntimeError(
            f"gradient shape {g.shape} does not match tensor shape "
            f"{tensor.shape} (tensor {tensor!r})"
        )
    existing = grads.get(tensor)
    if existing is None:
        grads[tensor] = g
    else:
        grads[tensor] = existing + g


def grad(
    outputs,
    inputs,
    grad_outputs=None,
    create_graph: bool = False,
    allow_unused: bool = False,
):
    """Compute gradients of ``outputs`` with respect to ``inputs``.

    Functional counterpart of :meth:`Tensor.backward` that does not touch
    ``.grad`` fields.  Returns a tuple of gradient tensors aligned with
    ``inputs``.

    Parameters
    ----------
    outputs:
        A Tensor or sequence of Tensors to differentiate.
    inputs:
        Tensors with respect to which gradients are taken.
    grad_outputs:
        Optional seed gradients matching ``outputs``.
    create_graph:
        If True, the returned gradients are differentiable (double backward).
    allow_unused:
        If True, inputs unreachable from outputs yield ``None`` instead of
        raising.
    """
    outputs = [outputs] if isinstance(outputs, Tensor) else list(outputs)
    inputs = [inputs] if isinstance(inputs, Tensor) else list(inputs)
    if grad_outputs is None:
        seeds: list = [None] * len(outputs)
    elif isinstance(grad_outputs, Tensor):
        seeds = [grad_outputs]
    else:
        seeds = list(grad_outputs)

    grads = _backward_pass(outputs, seeds, create_graph=create_graph)
    result = []
    for inp in inputs:
        g = grads.get(inp)
        if g is None:
            if not allow_unused:
                raise RuntimeError(
                    f"input {inp!r} is not reachable from the outputs; pass "
                    "allow_unused=True to get None instead"
                )
            result.append(None)
        else:
            result.append(g)
    return tuple(result)
