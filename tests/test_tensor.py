"""Tensor engine: op-level gradient checks, FFT convolution vs the direct
oracle, softmax properties, the Module parameter walk, and the allocator
policy set at import."""

import ctypes
import functools
import importlib
import platform
import types

import numpy as np
import pytest
from scipy import fft as sfft

from conftest import conv_direct
from ssmgraph import tensor as T
from ssmgraph.fftconv import FFT_WORKERS, _next_pow2, conv1d_fft
from ssmgraph.gradcheck import backward_and_gradcheck
from ssmgraph.tensor import ContractError, NumericError, ShapeError, Tape, Tensor, _unbroadcast


def col(values) -> Tensor:
    """A 1-D sequence as one channel: time on axis -2."""
    return Tensor(np.asarray(values, dtype=float)[:, None])


def two_sided_direct(x: np.ndarray, k: np.ndarray, k_rev: np.ndarray) -> np.ndarray:
    """O(L^2) oracle, time on axis -2: a causal sum over k plus an
    anti-causal sum over k_rev, y[t] += k_rev[s] * x[t+s]."""
    length = x.shape[-2]
    out = np.zeros(np.broadcast_shapes(x.shape, k.shape))
    for t in range(length):
        for s in range(t + 1):
            out[..., t, :] += k[..., s, :] * x[..., t - s, :]
        for s in range(length - t):
            out[..., t, :] += k_rev[..., s, :] * x[..., t + s, :]
    return out


class TestConv1dFFT:
    def test_identity_kernel(self):
        out = conv1d_fft(col([1.0, 0.0, 0.0, 0.0]), col([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data[:, 0], [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_ones_ramp(self):
        # direct oracle: [1,1,1] * [1,1,1] -> [1,2,3]
        expected = conv_direct(np.ones(3), np.ones(3))
        np.testing.assert_allclose(expected, [1.0, 2.0, 3.0])
        out = conv1d_fft(col([1.0, 1.0, 1.0]), col([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out.data[:, 0], expected, atol=1e-12)

    def test_random_l64_matches_direct(self, rng):
        x = rng.normal(size=64)
        k = rng.normal(size=64)
        out = conv1d_fft(col(x), col(k))
        np.testing.assert_allclose(out.data[:, 0], conv_direct(x, k), atol=1e-10)

    def test_matches_direct_many_lengths(self, rng):
        # randomized equivalence across lengths <= 128
        for _ in range(100):
            length = int(rng.integers(1, 129))
            x = rng.normal(size=length)
            k = rng.normal(size=length)
            out = conv1d_fft(col(x), col(k))
            np.testing.assert_allclose(out.data[:, 0], conv_direct(x, k), atol=1e-9)

    def test_batched_broadcast(self, rng):
        x = rng.normal(size=(2, 3, 17))
        k = rng.normal(size=(3, 17))
        out = conv1d_fft(Tensor(np.swapaxes(x, -1, -2)), Tensor(k.T))
        assert out.shape == (2, 17, 3)
        for b in range(2):
            for c in range(3):
                np.testing.assert_allclose(out.data[b, :, c], conv_direct(x[b, c], k[c]),
                                           atol=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            conv1d_fft(col([1.0, 2.0]), col([1.0, 2.0, 3.0]))

    def test_gradcheck_both_inputs(self, rng):
        x = Tensor(rng.normal(size=(9, 1)), requires_grad=True)
        k = Tensor(rng.normal(size=(9, 1)), requires_grad=True)
        w = Tensor(rng.normal(size=(9, 1)))

        def loss():
            return (conv1d_fft(x, k) * w).sum()

        worst, _ = backward_and_gradcheck(loss, {"x": x, "k": k})
        assert worst <= 1e-6


class TestTwoSidedConv:
    """conv1d_fft(x, k, k_rev): the reverse kernel as a conjugate spectrum."""

    @pytest.mark.parametrize("length", range(1, 34))
    def test_matches_direct_two_sided_sum(self, rng, length):
        x = rng.normal(size=(2, length, 3))
        k = rng.normal(size=(length, 3))
        k_rev = rng.normal(size=(length, 3))
        out = conv1d_fft(Tensor(x), Tensor(k), Tensor(k_rev))
        assert out.shape == (2, length, 3)
        np.testing.assert_allclose(out.data, two_sided_direct(x, k, k_rev), atol=1e-10)

    def test_broadcast_batch_axis(self, rng):
        # a size-1 batch axis on the kernels broadcasts against the signal
        x = rng.normal(size=(3, 2, 11, 4))
        k = rng.normal(size=(1, 11, 4))
        k_rev = rng.normal(size=(1, 11, 4))
        out = conv1d_fft(Tensor(x), Tensor(k), Tensor(k_rev))
        assert out.shape == (3, 2, 11, 4)
        np.testing.assert_allclose(out.data, two_sided_direct(x, k, k_rev), atol=1e-10)

    def test_gradcheck_signal_and_both_kernels(self, rng):
        x = Tensor(rng.normal(size=(2, 9, 2)), requires_grad=True)
        k = Tensor(rng.normal(size=(9, 2)), requires_grad=True)
        k_rev = Tensor(rng.normal(size=(9, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 9, 2)))

        def loss():
            return (conv1d_fft(x, k, k_rev) * w).sum()

        worst, per = backward_and_gradcheck(loss, {"x": x, "k": k, "k_rev": k_rev})
        assert worst <= 1e-6, per

    @pytest.mark.parametrize("shapes", [((5,), (5, 1), None), ((5, 1), (5,), None),
                                        ((5, 1), (5, 1), (5,))])
    def test_operand_below_2d(self, shapes):
        x, k, k_rev = (None if s is None else Tensor(np.ones(s)) for s in shapes)
        with pytest.raises(ShapeError):
            conv1d_fft(x, k, k_rev)

    def test_reverse_kernel_length_mismatch(self):
        # the channel axis agrees; only axis -2 differs
        with pytest.raises(ShapeError):
            conv1d_fft(Tensor(np.ones((5, 2))), Tensor(np.ones((5, 2))),
                       Tensor(np.ones((4, 2))))


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
        g = rng.normal(size=shape).astype(dtype)
        conv1d_fft(x, k, k_rev).backward(g)

        n = _next_pow2(2 * length - 1)

        def spectrum(a):
            return sfft.rfft(a, n=n, axis=-2, workers=FFT_WORKERS)

        def inverse(a):
            return np.ascontiguousarray(
                sfft.irfft(a, n=n, axis=-2, workers=FFT_WORKERS)[..., :length, :])

        # numpy evaluates g_spec * np.conj(x_spec) in this operand order once
        # the temporary passes 256 KiB, and complex products are not
        # bitwise commutative
        prod = _unbroadcast(np.conj(spectrum(x.data)) * spectrum(g), spectrum(k.data).shape)
        assert np.array_equal(k.grad, inverse(prod))
        assert np.array_equal(k_rev.grad, inverse(np.conj(prod)))


class TestFFTRoundTrip:
    @pytest.mark.parametrize("length", [1, 2, 7, 64, 1000, 4096])
    def test_roundtrip(self, rng, length):
        # a unit impulse kernel turns the padded rfft -> irfft pass into the identity
        x = rng.normal(size=length)
        impulse = np.zeros(length)
        impulse[0] = 1.0
        np.testing.assert_allclose(conv1d_fft(col(x), col(impulse)).data[:, 0], x, atol=1e-10)


def softmax_lastdim_reference(a: Tensor) -> Tensor:
    """The last-axis softmax op ``softmax_head_mean`` replaced, kept as its
    reference: a new array at every step, the gradient through a full-size
    ``g``."""
    ex = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    out_data = ex / ex.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        a._accum(out_data * (g - dot), owned=True)

    return T._record(out_data, (a,), bwd)


def head_mean_reference(a: Tensor, divisor: float) -> Tensor:
    """The four elementary ops ``softmax_head_mean`` stands for."""
    return softmax_lastdim_reference(a / divisor).sum(axis=-3) / float(a.shape[-3])


class TestSoftmax:
    """``softmax_head_mean``: the mean over axis -3 of the last-axis softmax
    of ``a / divisor``."""

    def test_uniform_on_zeros(self):
        out = T.softmax_head_mean(Tensor(np.zeros((2, 3, 3))), 1.0)
        np.testing.assert_allclose(out.data, np.full((3, 3), 1 / 3), atol=1e-12)

    def test_closed_form(self):
        # softmax([2 log 2, 0] / 2) = [2/3, 1/3]; the head mean of two equal heads
        x = np.array([[[2 * np.log(2.0), 0.0]], [[2 * np.log(2.0), 0.0]]])
        out = T.softmax_head_mean(Tensor(x), 2.0)
        np.testing.assert_allclose(out.data, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_no_overflow_on_huge_logit(self):
        out = T.softmax_head_mean(Tensor([[[1000.0, 0.0]], [[0.0, 1000.0]]]), 1.0)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-12)

    def test_rows_sum_to_one_random(self, rng):
        for _ in range(100):
            x = rng.normal(scale=5.0, size=(2, 3, 4, 6))
            out = T.softmax_head_mean(Tensor(x), float(rng.uniform(0.5, 3.0)))
            np.testing.assert_allclose(out.data.sum(axis=-1), np.ones((2, 4)), atol=1e-9)
            assert np.all(out.data >= 0)

    def test_shift_invariant(self, rng):
        # a constant added to each row cancels in the max-subtracted softmax
        x = rng.normal(size=(3, 4, 6))
        shift = rng.normal(scale=50.0, size=(3, 4, 1))
        a = T.softmax_head_mean(Tensor(x + shift), 1.5).data
        b = T.softmax_head_mean(Tensor(x), 1.5).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_permutation_equivariant(self, rng):
        # permuting the last axis permutes the output; permuting heads changes nothing
        for _ in range(20):
            x = rng.normal(size=(3, 2, 8))
            perm = rng.permutation(8)
            a = T.softmax_head_mean(Tensor(x[..., perm]), 1.0).data
            b = T.softmax_head_mean(Tensor(x), 1.0).data[..., perm]
            np.testing.assert_allclose(a, b, atol=1e-12)
            heads = T.softmax_head_mean(Tensor(x[rng.permutation(3)]), 1.0).data
            np.testing.assert_allclose(heads, T.softmax_head_mean(Tensor(x), 1.0).data,
                                       atol=1e-12)

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 5)))

        def loss():
            return (T.softmax_head_mean(x, 1.7) * w).sum()

        worst, _ = backward_and_gradcheck(loss, {"x": x})
        assert worst <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, divisor", [((3, 5, 5), 1.0), ((2, 3, 4, 6, 6), 2.0),
                                                ((4, 32, 4, 64, 64), float(np.sqrt(8)))])
    def test_matches_unfused_composition(self, rng, dtype, shape, divisor):
        # same values and input gradient, bit for bit, as divide, softmax,
        # head sum and divide by H (the last shape is graph-dense's attention)
        x = rng.normal(scale=3.0, size=shape).astype(dtype)
        g = rng.normal(size=shape[:-3] + shape[-2:]).astype(dtype)
        fused_in, ref_in = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        fused = T.softmax_head_mean(fused_in, divisor)
        ref = head_mean_reference(ref_in, divisor)
        fused.backward(g)
        ref.backward(g)
        assert fused.dtype == ref.dtype == dtype
        assert fused.data.tobytes() == ref.data.tobytes()
        assert fused_in.grad.dtype == dtype
        assert fused_in.grad.tobytes() == ref_in.grad.tobytes()


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
        _gradcheck_unary(lambda t: T.log(t), np.abs(data) + 0.5)
        _gradcheck_unary(lambda t: T.power_scalar(t, -0.5), np.abs(data) + 0.5)
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

    def test_matmul_batched(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 5)))

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
    def test_layer_norm_bits(self, rng, dtype, shape):
        x = rng.normal(size=shape).astype(dtype)
        gamma = (rng.normal(size=shape[-1]) + 1.0).astype(dtype)
        beta = rng.normal(size=shape[-1]).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        # the unfused expressions, evaluated one temporary at a time
        d = shape[-1]
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = xc * inv
        gx = g * gamma
        term = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        expected = {"out": xhat * gamma + beta, "x": term * inv,
                    "gamma": (g * xhat).reshape(-1, d).sum(axis=0),
                    "beta": g.reshape(-1, d).sum(axis=0)}

        leaves = {name: Tensor(v, requires_grad=True)
                  for name, v in (("x", x), ("gamma", gamma), ("beta", beta))}
        out = T.layer_norm_lastdim(leaves["x"], leaves["gamma"], leaves["beta"])
        out.backward(g)
        got = {"out": out.data, **{name: t.grad for name, t in leaves.items()}}
        for name, value in expected.items():
            assert got[name].dtype == dtype and np.array_equal(got[name], value), name

    def test_layer_norm(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
        gamma = Tensor(rng.normal(size=6) + 1.0, requires_grad=True)
        beta = Tensor(rng.normal(size=6), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 5, 6)))

        def loss():
            return (T.layer_norm_lastdim(x, gamma, beta) * w).sum()

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
    """Projection, GLU and dropout as one tape op."""

    @staticmethod
    def operands(rng, lead, d_in=3, d=5, dtype=np.float64):
        y = Tensor(rng.normal(size=lead + (d_in,)), requires_grad=True, dtype=dtype)
        w = Tensor(rng.normal(size=(d_in, 2 * d)), requires_grad=True, dtype=dtype)
        b = Tensor(rng.normal(size=2 * d), requires_grad=True, dtype=dtype)
        return y, w, b

    @pytest.mark.parametrize("p", [0.0, 0.3])
    @pytest.mark.parametrize("lead", [(7,), (2, 3)])
    def test_gradcheck(self, rng, lead, p):
        y, w, b = self.operands(rng, lead)
        weight = Tensor(rng.normal(size=lead + (5,)))

        def loss():
            # a fresh generator each evaluation: every evaluation drops the same units
            out = T.glu_gate(y, w, b, p, np.random.default_rng(3), train=True)
            return (out * weight).sum()

        worst, per = backward_and_gradcheck(loss, {"y": y, "w": w, "b": b})
        assert worst <= 1e-6, per

    def test_one_tape_op(self, rng):
        y, w, b = self.operands(rng, (2, 4))
        assert len(Tape.trace(T.glu_gate(y, w, b, 0.5, rng, train=True)).ops) == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturated_sigmoid_is_exact(self, dtype):
        # exp(1e4) overflows in both dtypes; the gate is still exactly 1 or 0
        y = Tensor(np.eye(2), dtype=dtype)
        w = Tensor([[1.0, 1e4], [1.0, -1e4]], requires_grad=True, dtype=dtype)
        out = T.glu_gate(y, w, Tensor(np.zeros(2), dtype=dtype), 0.0, None, train=False)
        assert out.dtype == dtype and np.array_equal(out.data, [[1.0], [0.0]])
        out.sum().backward()
        logits = Tensor([1e4, -1e4], requires_grad=True, dtype=dtype)
        T.bce_with_logits(logits, [1.0, 0.0]).backward()
        assert np.array_equal(logits.grad, [0.0, 0.0])

    def test_odd_projection_width(self, rng):
        y, w, b = self.operands(rng, (4,))
        with pytest.raises(ShapeError):
            T.glu_gate(y, Tensor(w.data[:, :9]), Tensor(b.data[:9]), 0.0, None, train=False)

    @pytest.mark.parametrize("op", ["glu_gate", "dropout"])
    def test_float64_mask_is_uniform_draw(self, rng, op):
        y, w, b = self.operands(rng, (6, 4))
        p = 0.3
        if op == "glu_gate":
            full = T.glu_gate(y, w, b, p, None, train=False).data
            dropped = T.glu_gate(y, w, b, p, np.random.default_rng(5), train=True).data
        else:
            full = y.data
            dropped = T.dropout(y, p, np.random.default_rng(5), train=True).data
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
            T.log(Tensor([0.0]))  # -inf under CHECK_FINITE

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
