"""A float32 graph never widens to float64, and a float64 graph stays float64.

Every op in :mod:`repro.autodiff.ops` and every function in
:mod:`repro.autodiff.functional` (plus the fused conv kernel) runs on
leaves of one dtype with Python-scalar and NumPy constants mixed in; the
output, the first-order gradients (built with ``create_graph=True``, so the
backward rules' own constants run) and the second-order gradients must all
keep that dtype.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, functional as F, grad, ops
from repro.autodiff.fused import conv2d_fused

TARGETS = np.eye(4)[[0, 2, 1]]  # a float64 NumPy constant


def _conv(fn):
    return lambda leaf: fn(
        leaf((2, 2, 5, 5)), leaf((3, 2, 3, 3)), leaf((3,)), stride=1, pad=1
    )


CASES = {
    "add": lambda leaf: ops.add(ops.add(leaf((2, 3)), leaf((3,))), 0.5),
    "sub": lambda leaf: ops.sub(1.0, ops.sub(leaf((2, 3)), 2)),
    "mul": lambda leaf: ops.mul(3.0, ops.mul(leaf((2, 3)), leaf((2, 1)))),
    "div": lambda leaf: ops.div(ops.div(2.0, leaf((2, 3), positive=True)), 4.0),
    "neg": lambda leaf: ops.neg(leaf((2, 3))),
    "pow_": lambda leaf: ops.pow_(leaf((2, 3), positive=True), 3.0),
    "exp": lambda leaf: ops.exp(leaf((2, 3))),
    "log": lambda leaf: ops.log(leaf((2, 3), positive=True)),
    "matmul": lambda leaf: ops.matmul(leaf((2, 3)), leaf((3, 4))),
    "bmm": lambda leaf: ops.bmm(leaf((2, 3, 4)), leaf((2, 4, 5))),
    "sum_": lambda leaf: ops.sum_(leaf((2, 3)), axis=1),
    "mean": lambda leaf: ops.mean(leaf((2, 3)), axis=0),
    "reshape": lambda leaf: ops.reshape(leaf((2, 3)), (3, 2)),
    "transpose": lambda leaf: ops.transpose(leaf((2, 3, 4)), (2, 0, 1)),
    "broadcast_to": lambda leaf: ops.broadcast_to(leaf((1, 3)), (2, 3)),
    "getitem": lambda leaf: ops.getitem(leaf((2, 3)), (slice(None), 1)),
    "pad2d": lambda leaf: ops.pad2d(leaf((1, 2, 3, 3)), 1),
    "relu": lambda leaf: ops.relu(leaf((2, 3))),
    "sigmoid": lambda leaf: ops.sigmoid(leaf((2, 3))),
    "tanh": lambda leaf: ops.tanh(leaf((2, 3))),
    "im2col": lambda leaf: ops.im2col(leaf((1, 2, 4, 4)), (3, 3), 1, 1),
    "col2im": lambda leaf: ops.col2im(leaf((1, 18, 16)), (1, 2, 4, 4), (3, 3), 1, 1),
    "maxpool2d": lambda leaf: ops.maxpool2d(leaf((1, 2, 4, 4)), 2),
    "linear": lambda leaf: F.linear(leaf((2, 3)), leaf((4, 3)), leaf((4,))),
    "conv2d": _conv(F.conv2d),
    "conv2d_composed": _conv(F.conv2d_composed),
    "conv2d_fused": _conv(conv2d_fused),
    "flatten": lambda leaf: F.flatten(leaf((2, 2, 3))),
    "softmax": lambda leaf: F.softmax(leaf((2, 4))),
    "log_softmax": lambda leaf: F.log_softmax(leaf((2, 4))),
    "cross_entropy": lambda leaf: F.cross_entropy(leaf((3, 4)), TARGETS),
    "gelu": lambda leaf: F.gelu(leaf((2, 3))),
    "layer_norm": lambda leaf: F.layer_norm(leaf((2, 4)), leaf((4,)), leaf((4,))),
    "softmax_lastaxis": lambda leaf: F.softmax_lastaxis(leaf((2, 3, 4))),
    "attention_weights": lambda leaf: F.attention_weights(
        leaf((2, 3, 4)), leaf((2, 3, 4))
    ),
}


def test_every_op_and_functional_has_a_case():
    assert set(CASES) == set(ops.__all__) | set(F.__all__) | {"conv2d_fused"}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_graph_keeps_its_dtype(name, dtype):
    rng = np.random.default_rng(0)
    leaves = []

    def leaf(shape, positive=False):
        data = rng.normal(size=shape)
        data = np.abs(data) + 0.5 if positive else data
        leaves.append(Tensor(data.astype(dtype), requires_grad=True))
        return leaves[-1]

    out = CASES[name](leaf)
    assert out.data.dtype == dtype
    grads = grad(ops.sum_(ops.mul(out, out)), leaves, create_graph=True)
    assert [g.data.dtype for g in grads] == [np.dtype(dtype)] * len(leaves)
    total = ops.sum_(ops.mul(grads[0], grads[0]))
    if total.requires_grad or total._grad_fn is not None:
        second = grad(total, leaves, allow_unused=True)
        assert {g.data.dtype for g in second if g is not None} <= {np.dtype(dtype)}
