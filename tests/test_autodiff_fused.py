"""Fused conv2d kernel: dispatch, dW operand bits, gradients and
workspace-reuse behaviour (bitwise parity with the composed path is
``test_autodiff_property.py``'s)."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients, grad, ops
from repro.autodiff import functional as F
from repro.autodiff.fused import _cols_t, _conv_dw_data, _im2col_cols, conv2d_fused
from repro.autodiff.functional import conv2d_composed
from repro.autodiff.workspace import Workspace, get_workspace, set_workspace
from repro.nn import Conv2D, lenet5


class TestBitwiseParity:
    """Fused output and gradients equal the composed path bit for bit."""

    def test_dispatch_toggle(self, monkeypatch):
        # A Conv2D layer reaches the kernel through F.conv2d: routing that
        # name to the composed reference leaves the layer's output unchanged.
        layer = Conv2D(3, 3, stride=2, pad=1)
        layer.build((2, 9, 9), np.random.default_rng(3))
        x = Tensor(np.random.default_rng(4).normal(size=(1, 2, 9, 9)))
        fused = layer(x)
        monkeypatch.setattr(F, "conv2d", conv2d_composed)
        composed = layer(x)
        assert np.array_equal(fused.data, composed.data)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 5, 5)))
        w = Tensor(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d_fused(x, w)


# (batch, in_ch, height, width, kernel_h, kernel_w, stride, pad)
DW_GEOMETRIES = [
    (1, 1, 5, 5, 1, 1, 1, 0),
    (2, 3, 7, 9, 3, 3, 1, 0),
    (3, 2, 11, 6, 2, 3, 2, 1),
    (1, 4, 9, 9, 3, 2, 3, 2),
    (2, 5, 13, 10, 4, 1, 3, 0),
    (3, 12, 19, 19, 5, 5, 1, 2),
    (2, 64, 9, 9, 5, 5, 1, 2),  # 1 600 column-matrix rows
    (32, 3, 32, 32, 5, 5, 2, 2),  # LeNet-5 L1
    (32, 12, 16, 16, 5, 5, 2, 2),  # LeNet-5 L2
]


class TestDwKernelBits:
    """dW's operand, rebuilt from ``x``, is the column matrix's contiguous
    transpose byte for byte, so the dW GEMM sees the bytes it always did."""

    def test_dw_equals_gemm_on_a_contiguous_transpose(self):
        rng = np.random.default_rng(17)
        ws = Workspace()  # shared, so stale pooled bytes are in play
        for geometry in DW_GEOMETRIES:
            n, c, h, w, kh, kw, stride, pad = geometry
            dense = rng.normal(size=(n, c, h, w))
            strided = rng.normal(size=(c, n, w, h)).transpose(1, 0, 3, 2)
            for x in (dense, strided):
                cols = _im2col_cols(x, kh, kw, stride, pad, ws)
                reference = ops._im2col_array(x, kh, kw, stride, pad)
                assert np.array_equal(
                    cols, reference.transpose(1, 0, 2).reshape(cols.shape)
                )
                want_t = np.ascontiguousarray(cols.T)
                ws.release(cols)
                cols_t = _cols_t(x, kh, kw, stride, pad, ws)
                assert cols_t.flags.c_contiguous
                assert cols_t.tobytes() == want_t.tobytes()
                ws.release(cols_t)
                for f in (1, 12):
                    gt = rng.normal(size=(f, want_t.shape[0]))
                    got = _conv_dw_data(gt, x, (f, c, kh, kw), stride, pad, ws)
                    want = (gt @ want_t).reshape(f, c, kh, kw)
                    assert got.tobytes() == want.tobytes(), (geometry, f)


class TestGeometry:
    """A conv geometry out of range is a ValueError naming the field."""

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"stride": 0}, "stride"),
            ({"stride": 1.5}, "stride"),
            ({"pad": -1}, "pad"),
            ({"pad": 0.5}, "pad"),
            ({"filters": 0}, "filters"),
            ({"filters": 2.7}, "filters"),
            ({"kernel_size": 0}, "kernel_size"),
            ({"kernel_size": "3"}, "kernel_size"),
        ],
    )
    def test_conv2d_layer_rejects(self, kwargs, field):
        args = {"filters": 4, "kernel_size": 3, **kwargs}
        with pytest.raises(ValueError, match=field):
            Conv2D(**args)

    @pytest.mark.parametrize(
        "stride, pad, w_shape, field",
        [
            (0, 0, (2, 3, 3, 3), "stride"),
            (-1, 0, (2, 3, 3, 3), "stride"),
            (1, -1, (2, 3, 3, 3), "pad"),
            (2.0, 0, (2, 3, 3, 3), "stride"),
            (1, 0, (0, 3, 3, 3), "filters"),
            (1, 0, (2, 3, 0, 3), "kernel_size"),
        ],
    )
    def test_conv2d_fused_rejects(self, stride, pad, w_shape, field):
        x = Tensor(np.zeros((1, 3, 5, 5)))
        w = Tensor(np.zeros(w_shape))
        with pytest.raises(ValueError, match=field):
            conv2d_fused(x, w, stride=stride, pad=pad)


class TestGradients:
    def test_gradcheck_stride_pad(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.4)
        b = Tensor(rng.normal(size=(3,)))

        def fn(xs, ws, bs):
            return ops.sum_(conv2d_fused(xs, ws, bs, stride=2, pad=1) ** 2)

        check_gradients(fn, [x, w, b])

    def test_no_grad_input_skips_dx(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))  # requires_grad=False
        w = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        out = conv2d_fused(x, w, stride=1, pad=1)
        out.backward(Tensor(np.ones(out.shape)))
        assert w.grad is not None
        assert x.grad is None


class TestWorkspace:
    def test_checkout_reuses_buffer(self):
        ws = Workspace()
        a = ws.checkout((4, 5), np.float64)
        ws.release(a)
        b = ws.checkout((4, 5), np.float64)
        assert b is a
        stats = ws.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_checkout_zero_fills(self):
        ws = Workspace()
        a = ws.checkout((3, 3), np.float64)
        a.fill(7.0)
        ws.release(a)
        b = ws.checkout((3, 3), np.float64, zero=True)
        assert np.array_equal(b, np.zeros((3, 3)))

    def test_distinct_until_released(self):
        ws = Workspace()
        a = ws.checkout((2, 2), np.float64)
        b = ws.checkout((2, 2), np.float64)
        assert a is not b

    def test_clear_drops_cache(self):
        ws = Workspace()
        ws.release(ws.checkout((8, 8), np.float64))
        assert ws.cached_bytes > 0
        ws.clear()
        assert ws.cached_bytes == 0

    def test_checkout_reuses_a_same_sized_buffer_in_a_new_shape(self):
        ws = Workspace()
        a = ws.checkout((75, 64), np.float64)
        ws.release(a)
        b = ws.checkout((64, 75), np.float64)
        assert b.shape == (64, 75) and b.flags.c_contiguous
        assert np.shares_memory(a, b)
        ws.release(b)  # the reshape returns the allocation behind it
        assert ws.checkout((75, 64), np.float64) is a
        assert ws.stats()["hits"] == 2

    def test_double_release_pools_the_buffer_once(self):
        ws = Workspace()
        a = ws.checkout((4, 5), np.float64)
        ws.release(a)
        ws.release(a)
        ws.release(a.reshape(20))
        assert ws.cached_bytes == a.nbytes
        b = ws.checkout((4, 5), np.float64)
        c = ws.checkout((4, 5), np.float64)
        assert not np.shares_memory(b, c)

    def test_views_that_do_not_own_a_whole_buffer_are_not_pooled(self):
        ws = Workspace()
        owner = np.empty((5, 4))
        ws.release(owner.T)  # strided
        ws.release(np.empty(40)[:20])  # part of an allocation
        ws.release(np.empty(40)[::2])  # strided and partial
        assert ws.cached_bytes == 0
        assert ws.checkout((4, 5), np.float64).flags.c_contiguous

    def test_a_stale_view_cannot_pool_memory_twice(self):
        ws = Workspace()
        a = ws.checkout((4, 5), np.float64)
        ws.release(a)
        ws.release(a[:2])
        ws.release(a.T)
        b = ws.checkout((4, 5), np.float64)
        c = ws.checkout((2, 5), np.float64)
        d = ws.checkout((5, 4), np.float64)
        assert not np.shares_memory(b, c)
        assert not np.shares_memory(b, d)

    def test_threads_never_share_a_buffer(self):
        ws = Workspace()
        clobbered = []

        def worker(tag):
            for i in range(300):
                buf = ws.checkout((6, 10) if (i + tag) % 2 else (10, 6), np.float64)
                buf.fill(tag)
                time.sleep(0)
                if not (buf == tag).all():
                    clobbered.append(tag)
                ws.release(buf)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(1, 9)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not clobbered
        stats = ws.stats()
        assert stats["hits"] + stats["misses"] == 8 * 300
        assert stats["cached_bytes"] <= ws.max_buffers_per_key * 480

    def test_global_workspace_reused_by_training(self):
        ws = get_workspace()
        ws.clear()
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 2, 8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        for _ in range(3):
            out = conv2d_fused(x, w, stride=1, pad=1)
            out.backward(Tensor(np.ones(out.shape)))
            x.grad = None
            w.grad = None
        stats = ws.stats()
        assert stats["hits"] > 0  # later iterations hit the free list

    def test_no_scratch_is_held_between_forward_and_backward(self):
        class CountingWorkspace(Workspace):
            out_bytes = 0

            def checkout(self, shape, dtype, zero=False):
                buf = super().checkout(shape, dtype, zero)
                self.out_bytes += buf.nbytes
                return buf

            def release(self, buf):
                self.out_bytes -= buf.nbytes
                super().release(buf)

        model = lenet5(num_classes=10, seed=1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 3, 32, 32))
        y = np.eye(10)[rng.integers(0, 10, size=8)]
        counting = CountingWorkspace()
        previous = set_workspace(counting)
        try:
            loss = F.cross_entropy(model.forward(Tensor(x)), Tensor(y))
            assert counting.out_bytes == 0
            loss.backward()
            assert counting.out_bytes == 0
        finally:
            set_workspace(previous)
        assert counting.stats()["misses"] > 0  # the kernels did use it
