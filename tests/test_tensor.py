"""Tensor engine: op-level gradient checks, the fused S4 block op (its FFT
convolution vs the direct oracle, its LayerNorm and GLU, its row blocks and
thread pool), the attention softmax's properties, the Module parameter walk,
and the allocator policy set at import."""

import ctypes
import functools
import importlib
import os
import platform
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from scipy import fft as sfft

from conftest import (block_direct, block_params, block_reference, conv_direct, conv_reference,
                      glu_reference, layer_norm_reference)
from ssmgraph import fftconv
from ssmgraph import tensor as T
from ssmgraph.fftconv import _next_pow2, conv1d_fft, worker_count
from ssmgraph.gradcheck import backward_and_gradcheck
from ssmgraph.graphlearn import attention_weights
from ssmgraph.tensor import ContractError, NumericError, ShapeError, Tape, Tensor, _unbroadcast


def block(x, k, k_rev=None, params=None, mask=None, p=0.0, rng=None, train=False):
    """``conv1d_fft`` with the LayerNorm and GLU parameters in ``params``."""
    return conv1d_fft(x, k, k_rev, params["gamma"], params["beta"], params["w"], params["b"],
                      mask, p, rng, train)


def block_without_conv(x: np.ndarray, params) -> np.ndarray:
    """x + glu(LN(x)): the block with the convolution left out."""
    impulse = np.zeros((1, x.shape[-1]))
    impulse[0] = 1.0
    return np.concatenate([block_direct(x[..., t:t + 1, :], impulse, None, params)
                           for t in range(x.shape[-2])], axis=-2)


class TestConv1dFFT:
    """The block's convolution against the direct O(L^2) sum; LayerNorm and
    GLU around it come from the float64 oracle ``block_direct``."""

    D = 3

    def test_identity_kernel(self, rng):
        x = rng.normal(size=(4, self.D))
        impulse = np.zeros((4, self.D))
        impulse[0] = 1.0
        params = block_params(rng, self.D)
        out = block(Tensor(x), Tensor(impulse), params=params)
        # an impulse passes the LayerNorm output through unchanged
        np.testing.assert_allclose(out.data, block_without_conv(x, params), atol=1e-12)

    def test_ones_ramp(self, rng):
        # direct oracle: [1,1,1] * [1,1,1] -> [1,2,3]
        expected = conv_direct(np.ones(3), np.ones(3))
        np.testing.assert_allclose(expected, [1.0, 2.0, 3.0])
        x = rng.normal(size=(3, self.D))
        params = block_params(rng, self.D)
        out = block(Tensor(x), Tensor(np.ones((3, self.D))), params=params)
        np.testing.assert_allclose(out.data, block_direct(x, np.ones((3, self.D)), None, params),
                                   atol=1e-12)

    def test_random_l64_matches_direct(self, rng):
        x = rng.normal(size=(64, self.D))
        k = rng.normal(size=(64, self.D))
        params = block_params(rng, self.D)
        out = block(Tensor(x), Tensor(k), params=params)
        np.testing.assert_allclose(out.data, block_direct(x, k, None, params), atol=1e-10)

    def test_matches_direct_many_lengths(self, rng):
        # randomized equivalence across lengths <= 128
        params = block_params(rng, self.D)
        for _ in range(100):
            length = int(rng.integers(1, 129))
            x = rng.normal(size=(length, self.D))
            k = rng.normal(size=(length, self.D))
            out = block(Tensor(x), Tensor(k), params=params)
            np.testing.assert_allclose(out.data, block_direct(x, k, None, params), atol=1e-9)

    def test_batched_broadcast(self, rng):
        # one (L, D) kernel for every row of a batch
        x = rng.normal(size=(2, 17, 3))
        k = rng.normal(size=(17, 3))
        params = block_params(rng, 3)
        out = block(Tensor(x), Tensor(k), params=params)
        assert out.shape == (2, 17, 3)
        for b in range(2):
            np.testing.assert_allclose(out.data[b], block_direct(x[b], k, None, params),
                                       atol=1e-10)

    def test_length_mismatch(self, rng):
        with pytest.raises(ShapeError):
            block(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))), params=block_params(rng, 3))

    def test_gradcheck_both_inputs(self, rng):
        x = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(9, 3)))
        params = block_params(rng, 3)

        def loss():
            return (block(x, k, params=params) * w).sum()

        worst, per = backward_and_gradcheck(loss, {"x": x, "k": k, **params})
        assert worst <= 1e-6, per


class TestTwoSidedConv:
    """conv1d_fft(x, k, k_rev): the reverse kernel as a conjugate spectrum."""

    @pytest.mark.parametrize("length", range(1, 34))
    def test_matches_direct_two_sided_sum(self, rng, length):
        x = rng.normal(size=(2, length, 3))
        k = rng.normal(size=(length, 3))
        k_rev = rng.normal(size=(length, 3))
        params = block_params(rng, 3)
        out = block(Tensor(x), Tensor(k), Tensor(k_rev), params)
        assert out.shape == (2, length, 3)
        np.testing.assert_allclose(out.data, block_direct(x, k, k_rev, params), atol=1e-10)

    def test_broadcast_batch_axis(self, rng):
        # every leading axis is a batch axis that shares the kernels
        x = rng.normal(size=(3, 2, 11, 4))
        k = rng.normal(size=(11, 4))
        k_rev = rng.normal(size=(11, 4))
        params = block_params(rng, 4)
        out = block(Tensor(x), Tensor(k), Tensor(k_rev), params)
        assert out.shape == (3, 2, 11, 4)
        np.testing.assert_allclose(out.data, block_direct(x, k, k_rev, params), atol=1e-10)

    def test_gradcheck_signal_and_both_kernels(self, rng):
        x = Tensor(rng.normal(size=(2, 9, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
        k_rev = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 9, 3)))
        params = block_params(rng, 3)

        def loss():
            return (block(x, k, k_rev, params) * w).sum()

        worst, per = backward_and_gradcheck(loss, {"x": x, "k": k, "k_rev": k_rev, **params})
        assert worst <= 1e-6, per

    @pytest.mark.parametrize("shapes", [((5,), (5, 1), None), ((5, 1), (5,), None),
                                        ((5, 1), (5, 1), (5,))])
    def test_operand_below_2d(self, rng, shapes):
        x, k, k_rev = (None if s is None else Tensor(np.ones(s)) for s in shapes)
        with pytest.raises(ShapeError):
            block(x, k, k_rev, block_params(rng, 1))

    def test_reverse_kernel_length_mismatch(self, rng):
        # the channel axis agrees; only axis -2 differs
        with pytest.raises(ShapeError):
            block(Tensor(np.ones((5, 2))), Tensor(np.ones((5, 2))), Tensor(np.ones((4, 2))),
                  block_params(rng, 2))


class TestKernelGradientSpectrum:
    """The kernel gradients are the inverse transforms of the summed full
    product, although conv1d_fft forms it one batch row at a time."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(5, 7, 3), (38, 100, 16)])
    def test_equal_to_full_product(self, rng, dtype, shape):
        length = shape[-2]
        x = Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
        k = Tensor(rng.normal(size=shape[1:]).astype(dtype), requires_grad=True)
        k_rev = Tensor(rng.normal(size=shape[1:]).astype(dtype), requires_grad=True)
        params = block_params(rng, shape[-1], dtype)
        g = rng.normal(size=shape).astype(dtype)
        block(x, k, k_rev, params).backward(g)

        # the convolution's input and output gradient, from the separate ops
        z = layer_norm_reference(x, params["gamma"], params["beta"])
        y = Tensor(conv_reference(z, k, k_rev).data, requires_grad=True)
        glu_reference(y, params["w"], params["b"], 0.0, None, False).backward(g)
        n = _next_pow2(2 * length - 1)

        def spectrum(a):
            return sfft.rfft(a, n=n, axis=-2)

        def inverse(a):
            return np.ascontiguousarray(sfft.irfft(a, n=n, axis=-2)[..., :length, :])

        # numpy evaluates g_spec * np.conj(x_spec) in this operand order once
        # the temporary passes 256 KiB, and complex products are not
        # bitwise commutative
        prod = _unbroadcast(np.conj(spectrum(z.data)) * spectrum(y.grad), spectrum(k.data).shape)
        assert np.array_equal(k.grad, inverse(prod))
        assert np.array_equal(k_rev.grad, inverse(np.conj(prod)))


def block_case(rng, bidirectional, dtype=np.float64, rows=7, length=24, d=8):
    """Leaves of a block at a shape of four row blocks when ``_BLOCK_BYTES``
    is two rows: (x, k, k_rev, params, mask), the mask padding two records."""
    def leaf(shape, scale=1.0):
        return Tensor(scale * rng.normal(size=shape), requires_grad=True, dtype=dtype)
    x = leaf((rows, length, d))
    k = leaf((length, d), 0.3)
    k_rev = leaf((length, d), 0.3) if bidirectional else None
    mask = None
    if bidirectional:
        ends = np.full(rows, length)
        ends[[1, 4]] = length // 2, 3
        mask = Tensor((np.arange(length) < ends[:, None])[:, :, None], dtype=dtype)
    return x, k, k_rev, block_params(rng, d, dtype), mask


def run_block(op, case, train, g):
    """Output and every gradient of ``op`` on ``case``, gradients seeded by ``g``."""
    x, k, k_rev, params, mask = case
    leaves = {"x": x, "k": k, "k_rev": k_rev, **params}
    for leaf in leaves.values():
        if leaf is not None:
            leaf.zero_grad()
    out = op(x, k, k_rev, params["gamma"], params["beta"], params["w"], params["b"], mask,
             0.3, np.random.default_rng(11), train)
    out.backward(g)
    return out.data, {name: leaf.grad for name, leaf in leaves.items() if leaf is not None}


MODES = [(False, False), (False, True), (True, False), (True, True)]
MODE_IDS = ["uni-eval", "uni-train", "bi-mask-eval", "bi-mask-train"]


class TestRowBlocks:
    """conv1d_fft runs fixed row blocks on a thread pool: values must not
    depend on the block count or the pool size."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        def set_rows(rows, length=24, d=8, itemsize=8):
            monkeypatch.setattr(fftconv, "_BLOCK_BYTES", rows * length * d * itemsize)
        return set_rows

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bidirectional,train", MODES, ids=MODE_IDS)
    def test_equals_whole_array_composition(self, rng, blocks, bidirectional, train, dtype):
        case = block_case(rng, bidirectional, dtype)
        g = rng.normal(size=case[0].shape).astype(dtype)
        expected, expected_grads = run_block(block_reference, case, train, g)
        blocks(2, itemsize=np.dtype(dtype).itemsize)  # 7 rows: blocks of 2, 2, 2 and 1
        out, grads = run_block(conv1d_fft, case, train, g)
        assert out.dtype == dtype and np.array_equal(out, expected)
        assert np.array_equal(grads["x"], expected_grads["x"])
        blocks(7, itemsize=np.dtype(dtype).itemsize)  # one block: the whole-array sums too
        out, grads = run_block(conv1d_fft, case, train, g)
        assert np.array_equal(out, expected)
        for name, value in expected_grads.items():
            assert np.array_equal(grads[name], value), name

    @pytest.mark.parametrize("bidirectional,train", MODES, ids=MODE_IDS)
    def test_block_sums_match_one_block(self, rng, blocks, bidirectional, train):
        case = block_case(rng, bidirectional)
        g = rng.normal(size=case[0].shape)
        blocks(7)
        _, whole = run_block(conv1d_fft, case, train, g)
        blocks(2)
        _, blocked = run_block(conv1d_fft, case, train, g)
        for name, value in whole.items():
            err = np.abs(blocked[name] - value).max() / np.abs(value).max()
            assert err <= 1e-12, (name, err)

    @pytest.mark.parametrize("bidirectional,train", MODES, ids=MODE_IDS)
    def test_pool_size_changes_no_byte(self, rng, blocks, monkeypatch, bidirectional, train):
        case = block_case(rng, bidirectional, np.float32)
        g = rng.normal(size=case[0].shape).astype(np.float32)
        blocks(2, itemsize=4)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch as often as they can
        try:
            for workers in (1, 2, 5):  # 5: more threads than blocks and than most hosts' CPUs
                monkeypatch.setattr(fftconv, "FFT_WORKERS", workers)
                out, grads = run_block(conv1d_fft, case, train, g)
                results.append([out.tobytes()] + [grads[name].tobytes() for name in sorted(grads)])
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_dropout_leaves_generator_as_one_whole_draw(self, rng, blocks, monkeypatch, dtype,
                                                        workers):
        # each block draws its own mask, in block order, so the generator ends
        # where one whole (rows, L, D) draw leaves it
        x, k, k_rev, params, mask = block_case(rng, True, dtype)
        blocks(2, itemsize=np.dtype(dtype).itemsize)
        monkeypatch.setattr(fftconv, "FFT_WORKERS", workers)
        used, whole = np.random.default_rng(11), np.random.default_rng(11)
        conv1d_fft(x, k, k_rev, params["gamma"], params["beta"], params["w"], params["b"], mask,
                   0.3, used, True)
        whole.random(x.shape, dtype=dtype)
        assert used.bit_generator.state == whole.bit_generator.state

    def test_blas_held_at_one_thread_once_pool_runs(self, rng, blocks, monkeypatch):
        blas = fftconv._openblas()
        if blas is None:
            pytest.skip("numpy bundles no OpenBLAS")
        get, put = blas
        seen = []
        sigmoid = fftconv._sigmoid

        def spy(z, out=None):
            seen.append(get())
            return sigmoid(z, out=out)

        monkeypatch.setattr(fftconv, "_sigmoid", spy)
        blocks(2)
        case = block_case(rng, True)
        before = get()
        put(2)
        try:
            for workers in (1, 2):
                put(2)
                seen.clear()
                monkeypatch.setattr(fftconv, "FFT_WORKERS", workers)
                run_block(conv1d_fft, case, True, rng.normal(size=(7, 24, 8)))
                # the forward gates each of the four blocks once, OpenBLAS at one
                # thread at either pool size; it stays there, so its idle threads
                # never spin beside the pool
                assert get() == 1 and seen == [1] * 4, workers
        finally:
            put(before)

    def test_blas_thread_count_changes_no_byte(self, rng, blocks, monkeypatch):
        # OpenBLAS put to two threads before each call: at 1000 steps a block's
        # w gradient, y.T @ gh, summed in another order on two BLAS threads
        # than on one, so one pool worker once gave other bytes than two
        blas = fftconv._openblas()
        if blas is None:
            pytest.skip("numpy bundles no OpenBLAS")
        get, put = blas
        case = block_case(rng, True, np.float32, length=1000, d=16)
        g = rng.normal(size=case[0].shape).astype(np.float32)
        blocks(2, length=1000, d=16, itemsize=4)
        before = get()
        results = []
        try:
            for workers in (1, 2):
                put(2)
                monkeypatch.setattr(fftconv, "FFT_WORKERS", workers)
                out, grads = run_block(conv1d_fft, case, True, g)
                results.append([out.tobytes()] + [grads[name].tobytes() for name in sorted(grads)])
        finally:
            put(before)
        assert results[0] == results[1]

    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    def test_backward_runs_once(self, rng, blocks, train):
        # the backward writes its results into the buffers its forward kept, so
        # a second pass would read gradients where it expects activations
        x, k, k_rev, params, mask = block_case(rng, True)
        blocks(2)
        loss = block(x, k, k_rev, params, mask, 0.3, np.random.default_rng(11), train).sum()
        loss.backward()
        with pytest.raises(ContractError, match="conv1d_fft"):
            loss.backward()

    def test_backward_writes_into_kept_buffers(self, rng, monkeypatch):
        # one-row blocks on one thread: the backward's own peak, above what the
        # forward kept, is each block's scratch and the parameter sums, not a
        # fresh whole-array input gradient or a second copy of the GLU halves
        rows, length, d = 32, 256, 32
        monkeypatch.setattr(fftconv, "FFT_WORKERS", 1)
        monkeypatch.setattr(fftconv, "_BLOCK_BYTES", length * d * 8)
        x, k, _, params, _ = block_case(rng, False, np.float64, rows, length, d)
        g = rng.normal(size=x.shape)
        tracemalloc.start()
        try:
            out = block(x, k, None, params, None, 0.3, np.random.default_rng(11), True)
            kept = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out.backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 1.29 whole arrays here, 4.60 when the backward allocated its own
        assert (peak - kept) / x.data.nbytes < 2.0

    def test_block_error_raised_once_every_block_has_stopped(self, monkeypatch):
        monkeypatch.setattr(fftconv, "FFT_WORKERS", 2)
        ran = []

        def fn(i):
            if i == 2:
                raise NumericError("block 2")
            ran.append(i)
            return i

        with pytest.raises(NumericError, match="block 2"):
            fftconv._map_blocks(fn, 40)
        # the caller and the helper drain the blocks after the failing one too,
        # and the call returns only once both have stopped
        assert sorted(ran) == [i for i in range(40) if i != 2]
        assert fftconv._map_blocks(lambda i: i * i, 5) == [0, 1, 4, 9, 16]

    def test_transforms_looked_up_on_calling_thread_with_length(self, rng, blocks, monkeypatch):
        # a benchmark may stand in for scipy.fft here; it must only ever be
        # reached from the caller's thread, and see the padded length
        lookups, lengths = [], []

        class Probe:
            def __getattr__(self, name):
                lookups.append(threading.current_thread() is threading.main_thread())
                fn = getattr(sfft, name)

                def call(*args, **kwargs):
                    lengths.append(kwargs["n"])
                    return fn(*args, **kwargs)
                return call

        monkeypatch.setattr(fftconv, "sfft", Probe())
        monkeypatch.setattr(fftconv, "FFT_WORKERS", 2)
        blocks(2)
        run_block(conv1d_fft, block_case(rng, True), True, rng.normal(size=(7, 24, 8)))
        assert lookups and all(lookups)
        assert set(lengths) == {64}  # 2L-1 = 47 padded to a power of two

    def test_affinity_sizes_the_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(fftconv, "FFT_WORKERS", -1)
        assert worker_count() == 3
        monkeypatch.setattr(fftconv, "FFT_WORKERS", 2)
        assert worker_count() == 2
        monkeypatch.setattr(fftconv, "FFT_WORKERS", 0)
        with pytest.raises(ContractError):
            worker_count()


class TestFFTRoundTrip:
    @pytest.mark.parametrize("length", [1, 2, 7, 64, 1000, 4096])
    def test_roundtrip(self, rng, length):
        # a unit impulse kernel turns the padded rfft -> irfft pass into the identity
        x = rng.normal(size=(length, 3))
        impulse = np.zeros((length, 3))
        impulse[0] = 1.0
        params = block_params(rng, 3)
        out = block(Tensor(x), Tensor(impulse), params=params)
        np.testing.assert_allclose(out.data, block_without_conv(x, params), atol=1e-10)


def softmax_lastdim_reference(a: Tensor) -> Tensor:
    """The last-axis softmax op the attention once recorded, kept as the
    reference of ``attention_weights``: a new array at every step, the
    gradient through a full-size ``g``."""
    ex = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    out_data = ex / ex.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        a._accum(out_data * (g - dot), owned=True)

    return T._record(out_data, (a,), bwd)


def strided_transpose(a: Tensor, axes) -> Tensor:
    """A transpose op whose output is a strided view of its input, as
    ``attention_weights`` splits the heads; the tape's ``transpose`` returns
    a C-ordered copy, whose matmuls differ in their last bits."""
    inverse = np.argsort(axes)
    return T._record(a.data.transpose(axes), (a,),
                     lambda g: a._accum(g.transpose(inverse), owned=True))


def head_mean_reference(q: Tensor, k: Tensor, heads: int) -> Tensor:
    """The tape ops ``attention_weights`` stands for: q and k split into heads
    by a reshape and a transpose each, the score matmul, the divide by
    sqrt(d_head), the softmax, the head sum and the divide by H."""
    d_head = q.shape[-1] // heads
    split = q.shape[:-1] + (heads, d_head)                 # (..., N, H, d_head)
    n = q.ndim - 1                                         # axis of H in ``split``
    lead = tuple(range(n - 1))
    q_h = strided_transpose(q.reshape(split), lead + (n, n - 1, n + 1))
    k_t = strided_transpose(k.reshape(split), lead + (n, n + 1, n - 1))
    scores = q_h @ k_t / float(np.sqrt(d_head))
    return softmax_lastdim_reference(scores).sum(axis=-3) / float(heads)


def weights_of_scores(x, divisor: float) -> Tensor:
    """``attention_weights`` on scores ``x`` (..., H, N, N) over ``divisor``:
    head i of Q is x_i * sqrt(N) / divisor and of K the identity, so each
    score over sqrt(d_head) = sqrt(N) is x / divisor up to rounding."""
    x = np.asarray(x, dtype=np.float64)
    heads, n = x.shape[-3:-1]
    q = np.swapaxes(x * (np.sqrt(n) / divisor), -3, -2).reshape(x.shape[:-3] + (n, heads * n))
    k = np.broadcast_to(np.tile(np.eye(n), heads), q.shape)
    return attention_weights(Tensor(q), Tensor(k), heads)


class TestSoftmax:
    """``attention_weights``: the mean over heads of the last-axis softmax of
    Q_i K_i^T / sqrt(d_head)."""

    def test_uniform_on_zeros(self):
        out = weights_of_scores(np.zeros((2, 3, 3)), 1.0)
        np.testing.assert_allclose(out.data, np.full((3, 3), 1 / 3), atol=1e-12)

    def test_closed_form(self):
        # softmax([2 log 2, 0] / 2) = [2/3, 1/3]; the head mean of two equal heads
        x = np.array([[2 * np.log(2.0), 0.0], [0.0, 2 * np.log(2.0)]])
        out = weights_of_scores(np.stack([x, x]), 2.0)
        np.testing.assert_allclose(out.data, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-12)

    def test_no_overflow_on_huge_logit(self):
        out = weights_of_scores([[[1000.0, 0.0]] * 2, [[0.0, 1000.0]] * 2], 1.0)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, np.full((2, 2), 0.5), atol=1e-12)

    def test_rows_sum_to_one_random(self, rng):
        for _ in range(100):
            x = rng.normal(scale=5.0, size=(2, 3, 6, 6))
            out = weights_of_scores(x, float(rng.uniform(0.5, 3.0)))
            np.testing.assert_allclose(out.data.sum(axis=-1), np.ones((2, 6)), atol=1e-9)
            assert np.all(out.data >= 0)

    def test_shift_invariant(self, rng):
        # a constant added to each row cancels in the max-subtracted softmax
        x = rng.normal(size=(3, 6, 6))
        shift = rng.normal(scale=50.0, size=(3, 6, 1))
        a = weights_of_scores(x + shift, 1.5).data
        b = weights_of_scores(x, 1.5).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_permutation_equivariant(self, rng):
        # permuting the last axis permutes the output; permuting heads changes nothing
        for _ in range(20):
            x = rng.normal(size=(3, 8, 8))
            perm = rng.permutation(8)
            a = weights_of_scores(x[..., perm], 1.0).data
            b = weights_of_scores(x, 1.0).data[..., perm]
            np.testing.assert_allclose(a, b, atol=1e-12)
            heads = weights_of_scores(x[rng.permutation(3)], 1.0).data
            np.testing.assert_allclose(heads, weights_of_scores(x, 1.0).data, atol=1e-12)

    def test_gradcheck(self, rng):
        # three heads of width 4
        q = Tensor(rng.normal(size=(2, 5, 12)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 5, 12)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 5, 5)))

        def loss():
            return (attention_weights(q, k, 3) * w).sum()

        worst, _ = backward_and_gradcheck(loss, {"q": q, "k": k})
        assert worst <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, divisor", [((3, 5, 5), 1.0), ((2, 3, 4, 6, 6), 2.0),
                                                ((4, 32, 4, 64, 64), float(np.sqrt(8)))])
    def test_matches_unfused_composition(self, rng, dtype, shape, divisor):
        # same values and gradients, bit for bit, as the head split, score
        # matmul, divide, softmax, head sum and divide by H, at these score
        # shapes (..., H, N, N) with sqrt(d_head) = divisor (the last is
        # graph-dense's attention)
        heads, n = shape[-3:-1]
        q, k = (rng.normal(size=shape[:-3] + (n, heads * round(divisor ** 2))).astype(dtype)
                for _ in range(2))
        g = rng.normal(size=shape[:-3] + shape[-2:]).astype(dtype)
        fused_in = [Tensor(a, requires_grad=True) for a in (q, k)]
        ref_in = [Tensor(a, requires_grad=True) for a in (q, k)]
        fused = attention_weights(*fused_in, heads)
        ref = head_mean_reference(*ref_in, heads)
        fused.backward(g)
        ref.backward(g)
        assert fused.dtype == ref.dtype == dtype
        assert fused.data.tobytes() == ref.data.tobytes()
        for a, b in zip(fused_in, ref_in):
            assert a.grad.dtype == dtype
            assert a.grad.tobytes() == b.grad.tobytes()


class TestGradcheckHarness:
    def test_hand_derivative(self):
        x = Tensor([1.0, 2.0], requires_grad=True)

        def loss():
            return (x * x).sum()

        worst, _ = backward_and_gradcheck(loss, {"x": x})
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)
        assert worst <= 1e-7

    def test_constant_loss_zero_grads(self):
        x = Tensor([1.0, -1.0], requires_grad=True)
        c = Tensor(3.0)

        def loss():
            return (x * 0.0).sum() + c

        worst, _ = backward_and_gradcheck(loss, {"x": x})
        np.testing.assert_allclose(x.grad, [0.0, 0.0], atol=1e-12)
        assert worst <= 1e-7

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward_and_gradcheck(lambda: x * x, {"x": x})


def _gradcheck_unary(fn, x_data, tol=1e-6):
    x = Tensor(x_data, requires_grad=True)
    w = Tensor(np.random.default_rng(7).normal(size=np.shape(x_data)))

    def loss():
        return (fn(x) * w).sum()

    worst, _ = backward_and_gradcheck(loss, {"x": x})
    assert worst <= tol, f"{fn.__name__}: {worst:.3e}"


class TestOpGradients:
    def test_elementwise_ops(self, rng):
        data = rng.normal(size=(3, 4)) + 0.1
        _gradcheck_unary(lambda t: T.relu(t), data + 0.03)  # keep away from the kink

    def test_binary_ops_broadcast(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)) + 2.0, requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))

        for op in (T.add, T.sub, T.mul, T.div):
            def loss(op=op):
                return (op(a, b) * w).sum()

            worst, _ = backward_and_gradcheck(loss, {"a": a, "b": b})
            assert worst <= 1e-6, op.__name__

    def test_python_scalar_keeps_float32(self, rng):
        x = Tensor(rng.normal(size=3) + 3.0, requires_grad=True, dtype=np.float32)
        for fn in (lambda t: t + 2.0, lambda t: 2.0 + t, lambda t: t - 2.0,
                   lambda t: 2.0 - t, lambda t: t * 2.0, lambda t: 2.0 * t,
                   lambda t: t / 2.0, lambda t: 2.0 / t):
            x.zero_grad()
            out = fn(x)
            out.sum().backward()
            assert out.dtype == np.float32 and x.grad.dtype == np.float32

    # the operand ranks the model records: stacked activations times a weight
    # matrix, and stacked times stacked
    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 4), (4, 5)),
        ((2, 3, 4, 5), (5, 6)),
        ((2, 3, 4, 5), (2, 3, 5, 6)),
    ], ids=["3d@2d", "4d@2d", "4d@4d"])
    def test_matmul_batched(self, rng, a_shape, b_shape):
        a = Tensor(rng.normal(size=a_shape), requires_grad=True)
        b = Tensor(rng.normal(size=b_shape), requires_grad=True)
        w = Tensor(rng.normal(size=a_shape[:-1] + b_shape[-1:]))

        def loss():
            return ((a @ b) * w).sum()

        worst, _ = backward_and_gradcheck(loss, {"a": a, "b": b})
        assert worst <= 1e-6

    def test_reductions_and_shape(self, rng):
        x = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
        w1 = Tensor(rng.normal(size=(3, 2)))
        w2 = Tensor(rng.normal(size=(4, 3, 2)))

        def loss_sum():
            return (x.sum(axis=1) * w1).sum()

        def loss_mean():
            return (x.mean(axis=(0, 1)) * Tensor([1.0, -2.0])).sum()

        def loss_reshape():
            return (x.transpose((1, 0, 2)) * w2).sum() + (x.reshape((6, 4)).sum())

        for fn in (loss_sum, loss_mean, loss_reshape):
            worst, _ = backward_and_gradcheck(fn, {"x": x})
            assert worst <= 1e-6, fn.__name__

    def test_max(self, rng):
        # distinct values so max has a unique argmax
        data = rng.permutation(24).astype(float).reshape(3, 4, 2)
        x = Tensor(data, requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)))

        def loss():
            return (x.max(axis=1) * w).sum()

        worst, _ = backward_and_gradcheck(loss, {"x": x})
        assert worst <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 5, 2), (3, 7), (38, 100, 128)])
    def test_layer_norm_bits(self, rng, dtype, shape, monkeypatch):
        # one row block: the LayerNorm sums are whole-array sums
        monkeypatch.setattr(fftconv, "_BLOCK_BYTES", 1 << 40)
        x = rng.normal(size=shape).astype(dtype)
        gamma = (rng.normal(size=shape[-1]) + 1.0).astype(dtype)
        beta = rng.normal(size=shape[-1]).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        # the unfused expressions, evaluated one temporary at a time, feed the
        # convolution and GLU ops; their gradient gz comes back through them
        d = shape[-1]
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = xc * inv
        params = block_params(rng, d, dtype, requires_grad=False)
        k = Tensor(rng.normal(size=shape[-2:]), dtype=dtype)
        z = Tensor(xhat * gamma + beta, requires_grad=True)
        out = Tensor(x) + glu_reference(conv_reference(z, k), params["w"], params["b"], 0.0, None,
                                        False)
        out.backward(g)
        gz = z.grad
        gx = gz * gamma
        term = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        expected = {"out": out.data, "x": g + term * inv,
                    "gamma": (gz * xhat).reshape(-1, d).sum(axis=0),
                    "beta": gz.reshape(-1, d).sum(axis=0)}

        leaves = {name: Tensor(v, requires_grad=True)
                  for name, v in (("x", x), ("gamma", gamma), ("beta", beta))}
        fused = conv1d_fft(leaves["x"], k, None, leaves["gamma"], leaves["beta"], params["w"],
                           params["b"])
        fused.backward(g)
        got = {"out": fused.data, **{name: t.grad for name, t in leaves.items()}}
        for name, value in expected.items():
            assert got[name].dtype == dtype and np.array_equal(got[name], value), name

    def test_layer_norm(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
        gamma = Tensor(rng.normal(size=6) + 1.0, requires_grad=True)
        beta = Tensor(rng.normal(size=6), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 5, 6)))
        k = Tensor(rng.normal(size=(5, 6)))
        glu = block_params(rng, 6, requires_grad=False)

        def loss():
            return (conv1d_fft(x, k, None, gamma, beta, glu["w"], glu["b"]) * w).sum()

        worst, _ = backward_and_gradcheck(loss, {"x": x, "gamma": gamma, "beta": beta})
        assert worst <= 1e-6

    def test_losses(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        targets = rng.integers(0, 2, size=(4, 3)).astype(float)
        labels = rng.integers(0, 3, size=4)

        def loss_bce():
            return T.bce_with_logits(logits, targets)

        def loss_ce():
            return T.softmax_cross_entropy(logits, labels)

        for fn in (loss_bce, loss_ce):
            worst, _ = backward_and_gradcheck(fn, {"logits": logits})
            assert worst <= 1e-6, fn.__name__

    def test_bce_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.bce_with_logits(Tensor([[0.0]]), np.zeros(2))


class TestGluGate:
    """The block's projection, GLU and dropout, inside its one tape op."""

    @staticmethod
    def operands(rng, lead, d=5, dtype=np.float64):
        x = Tensor(rng.normal(size=lead + (d,)), requires_grad=True, dtype=dtype)
        k = Tensor(rng.normal(size=(x.shape[-2], d)), dtype=dtype)
        params = block_params(rng, d, dtype)
        return x, k, params

    @pytest.mark.parametrize("p", [0.0, 0.3])
    @pytest.mark.parametrize("lead", [(7,), (2, 3)])
    def test_gradcheck(self, rng, lead, p):
        x, k, params = self.operands(rng, lead)
        weight = Tensor(rng.normal(size=lead + (5,)))

        def loss():
            # a fresh generator each evaluation: every evaluation drops the same units
            out = block(x, k, params=params, p=p, rng=np.random.default_rng(3), train=True)
            return (out * weight).sum()

        worst, per = backward_and_gradcheck(loss, {"x": x, "w": params["w"], "b": params["b"]})
        assert worst <= 1e-6, per

    def test_one_tape_op(self, rng):
        x, k, params = self.operands(rng, (2, 4))
        out = block(x, k, params=params, p=0.5, rng=rng, train=True)
        assert len(Tape.trace(out).ops) == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturated_sigmoid_is_exact(self, dtype):
        # exp(1e4) overflows in both dtypes; the gate is still exactly 1 or 0.
        # x = 0 makes the LayerNorm output beta = 1; with one step the transforms
        # have length 1 and the unit kernel keeps it exactly, so h = [1, 1, 1e4, -1e4]
        x = Tensor(np.zeros((1, 2)), dtype=dtype)
        unit = Tensor([[1.0, 1.0]], dtype=dtype)
        params = {"gamma": Tensor(np.ones(2), dtype=dtype), "beta": Tensor(np.ones(2), dtype=dtype),
                  "w": Tensor([[1.0, 0.0, 1e4, 0.0], [0.0, 1.0, 0.0, -1e4]],
                              requires_grad=True, dtype=dtype),
                  "b": Tensor(np.zeros(4), dtype=dtype)}
        out = block(x, unit, params=params)
        assert out.dtype == dtype and np.array_equal(out.data, [[1.0, 0.0]])
        out.sum().backward()
        assert np.all(np.isfinite(params["w"].grad))
        logits = Tensor([1e4, -1e4], requires_grad=True, dtype=dtype)
        T.bce_with_logits(logits, [1.0, 0.0]).backward()
        assert np.array_equal(logits.grad, [0.0, 0.0])

    def test_odd_projection_width(self, rng):
        x, k, params = self.operands(rng, (4,))
        params["w"], params["b"] = Tensor(params["w"].data[:, :9]), Tensor(params["b"].data[:9])
        with pytest.raises(ShapeError):
            block(x, k, params=params)

    @pytest.mark.parametrize("op", ["glu_gate", "dropout"])
    def test_float64_mask_is_uniform_draw(self, rng, op):
        x, k, params = self.operands(rng, (6, 4))
        p = 0.3
        if op == "glu_gate":
            # x = 0: the residual adds exactly nothing, so the output is the gated units
            x = Tensor(np.zeros(x.shape))
            full = block(x, k, params=params).data
            dropped = block(x, k, params=params, p=p, rng=np.random.default_rng(5),
                            train=True).data
        else:
            full = x.data
            dropped = T.dropout(x, p, np.random.default_rng(5), train=True).data
        mask = (np.random.default_rng(5).random(full.shape) >= p).astype(np.float64) / (1.0 - p)
        assert np.array_equal(dropped, full * mask)


class TestTensorInvariants:
    def test_shape_matches_data(self, rng):
        t = Tensor(rng.normal(size=(2, 3, 4)))
        assert np.prod(t.shape) == t.data.size

    def test_grad_shape_matches(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        assert x.grad.shape == x.shape

    def test_nonfinite_forward_raises(self):
        with pytest.raises(NumericError), pytest.warns(RuntimeWarning, match="divide by zero"):
            T.div(Tensor([1.0]), Tensor([0.0]))  # inf under CHECK_FINITE

    def test_each_leaf_grad_applied_once(self):
        # diamond graph: y = x*x + x*x must give dy/dx = 4x, not double-count
        x = Tensor([3.0], requires_grad=True)
        a = x * x
        (a + a).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_dropout_eval_identity_and_train_scaling(self, rng):
        x = Tensor(np.ones((1000,)), requires_grad=True)
        assert T.dropout(x, 0.5, None, train=False) is x
        out = T.dropout(x, 0.5, rng, train=True)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.3 < (out.data > 0).mean() < 0.7


class TestAllocatorPolicy:
    """Importing the engine raises glibc's mmap and trim thresholds once and
    is a no-op where the C library cannot be asked."""

    @pytest.fixture
    def reimport(self, monkeypatch):
        # reload runs the module body again with a stand-in libc loader; the
        # original namespace comes back afterwards, so every other module keeps
        # the classes it imported
        namespace = dict(vars(T))

        def run(loader):
            monkeypatch.setattr(ctypes, "CDLL", loader)
            importlib.reload(T)
            assert T._keep_freed_pages is not namespace["_keep_freed_pages"]

        yield run
        vars(T).clear()
        vars(T).update(namespace)

    def test_missing_libc_is_ignored(self, reimport):
        def loader(name):
            raise OSError(f"{name}: cannot open shared object file")
        reimport(loader)

    def test_libc_without_mallopt_is_ignored(self, reimport):
        reimport(lambda name: object())

    def test_glibc_asked_to_keep_freed_pages(self, reimport):
        loaded, calls = [], []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        def loader(name):
            loaded.append(name)
            return types.SimpleNamespace(mallopt=mallopt)
        reimport(loader)
        assert loaded == ["libc.so.6"]
        assert calls == [(-3, 2 ** 31 - 1), (-1, 2 ** 31 - 1)]  # M_MMAP_, M_TRIM_THRESHOLD

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="not glibc")
    def test_glibc_accepts_both_thresholds(self):
        mallopt = ctypes.CDLL("libc.so.6").mallopt
        assert [mallopt(param, 2 ** 31 - 1) for param in (-3, -1)] == [1, 1]


class _Leaf(T.Module):
    def __init__(self, unstable: bool = False):
        self.unstable = unstable
        self.w = Tensor(np.ones(2), requires_grad=True)
        self.buffer = Tensor(np.zeros(2))  # no gradient: not a parameter

    def assert_stable(self) -> None:
        if self.unstable:
            raise NumericError("unstable leaf")


class _Toy(T.Module):
    def __init__(self, unstable: bool = False):
        self.width = 2
        self.a = Tensor(np.ones(1), requires_grad=True)
        self.blocks = [_Leaf(), _Leaf(unstable)]
        self.missing = None
        self.b = Tensor(np.ones(1), requires_grad=True)

    def forward(self, x):
        return x


class TestModule:
    def test_names_only_gradient_tensors_in_assignment_order(self):
        toy = _Toy()
        original = toy.forward
        toy.forward = functools.wraps(original)(lambda *args: original(*args))
        names = ["a", "blocks.0.w", "blocks.1.w", "b"]
        assert [name for name, _ in toy.named_parameters()] == names
        assert [name for name, _ in toy.named_parameters("toy.")] == ["toy." + n for n in names]
        assert [p for _, p in toy.named_parameters()] == [toy.a, toy.blocks[0].w,
                                                         toy.blocks[1].w, toy.b]

    def test_zero_grad_clears_every_parameter(self):
        toy = _Toy()
        for _, p in toy.named_parameters():
            p.grad = np.ones_like(p.data)
        toy.zero_grad()
        assert all(p.grad is None for _, p in toy.named_parameters())

    def test_assert_stable_reaches_list_members(self):
        _Toy().assert_stable()
        with pytest.raises(NumericError, match="unstable leaf"):
            _Toy(unstable=True).assert_stable()
