"""Tensor engine: op-level gradient checks, FFT convolution vs the direct
oracle, and softmax properties."""

import numpy as np
import pytest

from conftest import conv_direct
from ssmgraph import tensor as T
from ssmgraph.fftconv import conv1d_fft
from ssmgraph.gradcheck import backward_and_gradcheck
from ssmgraph.tensor import ContractError, NumericError, ShapeError, Tensor


class TestConv1dFFT:
    def test_identity_kernel(self):
        out = conv1d_fft(Tensor([1.0, 0.0, 0.0, 0.0]), Tensor([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_ones_ramp(self):
        # direct oracle: [1,1,1] * [1,1,1] -> [1,2,3]
        expected = conv_direct(np.ones(3), np.ones(3))
        np.testing.assert_allclose(expected, [1.0, 2.0, 3.0])
        out = conv1d_fft(Tensor([1.0, 1.0, 1.0]), Tensor([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_random_l64_matches_direct(self, rng):
        x = rng.normal(size=64)
        k = rng.normal(size=64)
        out = conv1d_fft(Tensor(x), Tensor(k))
        np.testing.assert_allclose(out.data, conv_direct(x, k), atol=1e-10)

    def test_matches_direct_many_lengths(self, rng):
        # randomized equivalence across lengths <= 128
        for _ in range(100):
            length = int(rng.integers(1, 129))
            x = rng.normal(size=length)
            k = rng.normal(size=length)
            out = conv1d_fft(Tensor(x), Tensor(k))
            np.testing.assert_allclose(out.data, conv_direct(x, k), atol=1e-9)

    def test_batched_broadcast(self, rng):
        x = rng.normal(size=(2, 3, 17))
        k = rng.normal(size=(3, 17))
        out = conv1d_fft(Tensor(x), Tensor(k))
        assert out.shape == (2, 3, 17)
        for b in range(2):
            for c in range(3):
                np.testing.assert_allclose(out.data[b, c], conv_direct(x[b, c], k[c]), atol=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            conv1d_fft(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_gradcheck_both_inputs(self, rng):
        x = Tensor(rng.normal(size=9), requires_grad=True)
        k = Tensor(rng.normal(size=9), requires_grad=True)
        w = Tensor(rng.normal(size=9))

        def loss():
            return (conv1d_fft(x, k) * w).sum()

        worst, _ = backward_and_gradcheck(loss, {"x": x, "k": k})
        assert worst <= 1e-6


class TestFFTRoundTrip:
    @pytest.mark.parametrize("length", [1, 2, 7, 64, 1000, 4096])
    def test_roundtrip(self, rng, length):
        # a unit impulse kernel turns the padded rfft -> irfft pass into the identity
        x = rng.normal(size=length)
        impulse = np.zeros(length)
        impulse[0] = 1.0
        np.testing.assert_allclose(conv1d_fft(Tensor(x), Tensor(impulse)).data, x, atol=1e-10)


class TestSoftmax:
    def test_uniform_on_zeros(self):
        out = T.softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-12)

    def test_closed_form(self):
        out = T.softmax_lastdim(Tensor([np.log(2.0), 0.0]))
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-12)

    def test_no_overflow_on_huge_logit(self):
        out = T.softmax_lastdim(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one_random(self, rng):
        for _ in range(100):
            x = rng.normal(scale=5.0, size=(4, 6))
            out = T.softmax_lastdim(Tensor(x))
            np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-9)
            assert np.all(out.data >= 0)

    def test_permutation_equivariant(self, rng):
        for _ in range(20):
            x = rng.normal(size=8)
            perm = rng.permutation(8)
            a = T.softmax_lastdim(Tensor(x[perm])).data
            b = T.softmax_lastdim(Tensor(x)).data[perm]
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)))

        def loss():
            return (T.softmax_lastdim(x) * w).sum()

        worst, _ = backward_and_gradcheck(loss, {"x": x})
        assert worst <= 1e-6


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

    def test_flip(self, rng):
        _gradcheck_unary(lambda t: T.flip_axis(t, -1), rng.normal(size=(2, 3)))

    def test_layer_norm(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
        gamma = Tensor(rng.normal(size=6) + 1.0, requires_grad=True)
        beta = Tensor(rng.normal(size=6), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 5, 6)))

        def loss():
            return (T.layer_norm_lastdim(x, gamma, beta) * w).sum()

        worst, _ = backward_and_gradcheck(loss, {"x": x, "gamma": gamma, "beta": beta})
        assert worst <= 1e-6

    def test_prune_below(self, rng):
        data = rng.uniform(0.0, 1.0, size=(4, 4))
        data[np.abs(data - 0.5) < 0.05] += 0.1  # keep clear of the threshold
        x = Tensor(data, requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)))
        out = T.prune_below(x, 0.5)
        assert np.all(out.data[data < 0.5] == 0.0)
        np.testing.assert_allclose(out.data[data >= 0.5], data[data >= 0.5])

        def loss():
            return (T.prune_below(x, 0.5) * w).sum()

        worst, _ = backward_and_gradcheck(loss, {"x": x})
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
