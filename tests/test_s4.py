"""State-space layer: bilinear discretization closed forms, kernel vs
recurrent-scan equivalence, and encoder contracts."""

import warnings
from functools import partial

import numpy as np
import pytest

from ssmgraph import s4
from ssmgraph.gradcheck import backward_and_gradcheck
from ssmgraph.model import SequenceEncoder
from ssmgraph.s4 import (S4Layer, SsmCore, discretize_bilinear, materialize_kernel,
                         ssm_scan_recurrent)
from ssmgraph.tensor import ContractError, Tensor


def s4_encoder(input_dim, d_model, depth, p_states, rng, bidirectional=False):
    layer = partial(S4Layer, d_model, p_states, bidirectional=bidirectional)
    return SequenceEncoder(input_dim, d_model, depth, layer, rng)


def make_core(rng, d=1, p=4, dtype=np.float64):
    core = SsmCore(d, p, rng, dtype=dtype)
    # randomize while preserving stability (Re(lam) < 0 by construction)
    core.log_neg_re.data[:] = rng.uniform(-2.0, 1.0, (d, p))
    core.lam_im.data[:] = rng.normal(0.0, 3.0, (d, p))
    core.b_re.data[:] = rng.normal(0.0, 1.0, (d, p))
    core.b_im.data[:] = rng.normal(0.0, 1.0, (d, p))
    core.log_dt.data[:] = rng.uniform(np.log(1e-3), np.log(1e-1), (d,))
    return core


def set_scalar_core(core, lam, b, c, dt, d_skip=0.0):
    """Pin a 1-feature, 1-state core to exact values (lam must have Re < 0 or 0)."""
    if lam.real == 0.0:
        core.log_neg_re.data[:] = -745.0  # exp underflows to exactly 0
    else:
        core.log_neg_re.data[:] = np.log(-lam.real)
    core.lam_im.data[:] = lam.imag
    core.b_re.data[:] = b.real
    core.b_im.data[:] = b.imag
    core.c_re.data[:] = c.real
    core.c_im.data[:] = c.imag
    core.log_dt.data[:] = np.log(dt) if dt > 0 else -745.0
    core.d_skip.data[:] = d_skip


class TestDiscretizeBilinear:
    def test_lambda_zero_closed_form(self, rng):
        core = make_core(rng, d=1, p=1)
        set_scalar_core(core, 0.0 + 0.0j, 1.0 + 0.0j, 1.0 + 0.0j, 0.1)
        a_bar, b_bar = discretize_bilinear(core)
        np.testing.assert_allclose(a_bar, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(b_bar, [[0.1]], atol=1e-12)

    def test_zero_step_limit(self, rng):
        core = make_core(rng, d=1, p=1)
        set_scalar_core(core, -1.0 + 0.0j, 1.0 + 0.0j, 1.0 + 0.0j, 1e-12)
        a_bar, b_bar = discretize_bilinear(core)
        np.testing.assert_allclose(a_bar, [[1.0]], atol=1e-9)
        np.testing.assert_allclose(np.abs(b_bar), [[0.0]], atol=1e-9)

    def test_stable_cores_contract(self, rng):
        # |1+z| < |1-z| whenever Re(z) < 0
        for _ in range(50):
            core = make_core(rng, d=2, p=5)
            a_bar, _ = discretize_bilinear(core)
            assert np.all(np.abs(a_bar) < 1.0)
            core.assert_stable()


class TestKernel:
    def test_integrator_kernel_closed_form(self, rng):
        # lam=0, b=c=1, dt=0.1: a_bar=1, b_bar=0.1 -> flat kernel of 0.1
        core = make_core(rng, d=1, p=1)
        set_scalar_core(core, 0.0 + 0.0j, 1.0 + 0.0j, 1.0 + 0.0j, 0.1)
        k = materialize_kernel(core, 8)
        np.testing.assert_allclose(k.data, np.full((1, 8), 0.1), atol=1e-12)

    def test_zero_c_zero_kernel(self, rng):
        core = make_core(rng, d=2, p=3)
        core.c_re.data[:] = 0.0
        core.c_im.data[:] = 0.0
        core.d_skip.data[:] = 0.0
        k = materialize_kernel(core, 16)
        np.testing.assert_allclose(k.data, 0.0, atol=1e-15)

    def test_kernel_matches_scan_impulse(self, rng):
        core = make_core(rng, d=3, p=4)
        length = 64
        k = materialize_kernel(core, length).data
        impulse = np.zeros(length)
        impulse[0] = 1.0
        np.testing.assert_allclose(ssm_scan_recurrent(core, impulse), k, atol=1e-8)

    def test_bad_length(self, rng):
        with pytest.raises(ContractError):
            materialize_kernel(make_core(rng), 0)


def kernel_and_grads(core, length, g):
    """Kernel values and every parameter gradient for upstream gradient g."""
    for _, param in core.named_parameters():
        param.zero_grad()
    k = materialize_kernel(core, length)
    k.backward(g)
    return [k.data] + [param.grad for _, param in core.named_parameters()]


class TestVandermonde:
    """The kernel's powers equal numpy's ``a_bar ** t`` bit for bit."""

    @staticmethod
    def edge_core(rng, dtype):
        # feature 0 has dt = 1: lam = -2 gives a_bar = 0, lam = -4 gives -1/3
        core = make_core(rng, d=3, p=4, dtype=dtype)
        core.log_dt.data[0] = 0.0
        core.log_neg_re.data[0, :2] = np.log([2.0, 4.0])
        core.lam_im.data[0, :2] = 0.0
        a_bar, _ = discretize_bilinear(core)
        assert a_bar[0, 0] == 0.0 and a_bar[0, 1] == -1.0 / 3.0
        return core

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", [1, 2, 99, 100, 101, 1000, 2000])
    def test_kernel_and_grads_equal_numpy_power(self, rng, monkeypatch, dtype, length):
        for _ in range(3):
            core = self.edge_core(rng, dtype)
            g = rng.normal(size=(3, length)).astype(dtype)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = kernel_and_grads(core, length, g)
                a_bar, _ = discretize_bilinear(core)
                ref_powers = a_bar[:, :, None] ** np.arange(length)
                powers = s4._vandermonde(a_bar, length)
            assert powers.tobytes() == ref_powers.tobytes()
            assert powers[0, 0, 0] == 1.0 and np.all(powers[0, 0, 1:] == 0.0)
            with monkeypatch.context() as m:
                m.setattr(s4, "_vandermonde", lambda a, n: a[:, :, None] ** np.arange(n))
                ref = kernel_and_grads(core, length, g)
            for name, x, y in zip(["kernel"] + [n for n, _ in core.named_parameters()],
                                  got, ref):
                assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestScan:
    def test_zero_input(self, rng):
        core = make_core(rng, d=2, p=3)
        y = ssm_scan_recurrent(core, np.zeros(32))
        np.testing.assert_allclose(y, 0.0)

    def test_conv_equals_scan_100_random_cores(self, rng):
        # both routes of the dual path, diagonal cores
        for _ in range(100):
            d = int(rng.integers(1, 4))
            p = int(rng.integers(1, 6))
            length = int(rng.integers(4, 129))
            core = make_core(rng, d=d, p=p)
            u = rng.normal(size=length)
            k = materialize_kernel(core, length).data
            conv = np.array([np.convolve(u, k[i])[:length] for i in range(d)])
            np.testing.assert_allclose(conv, ssm_scan_recurrent(core, u), atol=1e-8)


class TestKernelGradients:
    def test_kernel_gradcheck_all_params(self, rng):
        core = make_core(rng, d=2, p=3)
        w = Tensor(rng.normal(size=(2, 12)))

        def loss():
            return (materialize_kernel(core, 12) * w).sum()

        worst, per = backward_and_gradcheck(loss, dict(core.named_parameters()))
        assert worst <= 1e-6, per


class TestS4Layer:
    def test_zero_weights_residual_identity(self, rng):
        layer = S4Layer(4, 3, rng)
        for _, p in layer.named_parameters():
            p.data[:] = np.where(np.isfinite(p.data), 0.0, p.data) * 0.0
        layer.core.log_neg_re.data[:] = np.log(0.5)  # keep the core stable
        layer.core.log_dt.data[:] = np.log(0.01)
        x = Tensor(rng.normal(size=(2, 10, 4)))
        out = layer.forward(x)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_shape_contract(self, rng):
        layer = S4Layer(6, 4, rng)
        x = Tensor(rng.normal(size=(5, 12, 6)))
        assert layer.forward(x).shape == (5, 12, 6)

    def test_bidirectional_differs_on_asymmetric_input(self, rng):
        uni = S4Layer(4, 3, np.random.default_rng(0))
        bi = S4Layer(4, 3, np.random.default_rng(0), bidirectional=True)
        x = np.zeros((1, 16, 4))
        x[0, 0, :] = [1.0, -2.0, 0.5, 3.0]  # impulse at the start
        y_uni = uni.forward(Tensor(x)).data
        y_bi = bi.forward(Tensor(x)).data
        assert np.abs(y_uni - y_bi).max() > 1e-8

    def test_reverse_skip_gets_gradient(self, rng):
        layer = S4Layer(4, 3, rng, bidirectional=True)
        layer.forward(Tensor(rng.normal(size=(2, 10, 4)))).sum().backward()
        assert np.abs(layer.core_rev.d_skip.grad).min() > 0

    def test_width_mismatch(self, rng):
        layer = S4Layer(4, 3, rng)
        with pytest.raises(Exception):
            layer.forward(Tensor(rng.normal(size=(1, 8, 5))))


class TestS4Encoder:
    def test_single_channel_degenerates(self, rng):
        enc = s4_encoder(1, 4, 2, 3, rng)
        x = rng.normal(size=(2, 1, 16, 1))
        out = enc.encode(Tensor(x))
        assert out.shape == (2, 1, 16, 4)

    def test_sensor_permutation_equivariance(self, rng):
        enc = s4_encoder(1, 4, 2, 3, rng)
        x = rng.normal(size=(1, 5, 12, 1))
        perm = rng.permutation(5)
        out = enc.encode(Tensor(x)).data
        out_perm = enc.encode(Tensor(x[:, perm])).data
        np.testing.assert_allclose(out_perm, out[:, perm], atol=1e-12)

    def test_masked_equals_truncated(self, rng):
        for bidir in (False, True):
            enc = s4_encoder(1, 4, 2, 3, np.random.default_rng(5), bidirectional=bidir)
            # trained-like values: LayerNorm(0) = ln_beta must not leak from padding
            for layer in enc.layers:
                layer.ln_beta.data[:] = rng.normal(size=4)
                for core in (layer.core, layer.core_rev):
                    if core is not None:
                        core.d_skip.data[:] = rng.normal(size=4)
            true_len = 10
            x_full = rng.normal(size=(1, 3, 16, 1))
            x_full[:, :, true_len:] = 0.0
            mask = np.zeros((1, 16))
            mask[:, :true_len] = 1.0
            out_masked = enc.encode(Tensor(x_full), mask=mask).data[:, :, :true_len]
            out_trunc = enc.encode(Tensor(x_full[:, :, :true_len])).data
            np.testing.assert_allclose(out_masked, out_trunc, atol=1e-10, err_msg=f"bidir={bidir}")

    def test_channel_independence_gradient(self, rng):
        # d(out[channel j]) / d(in[channel k]) == 0 for j != k
        enc = s4_encoder(1, 3, 1, 2, rng)
        x = Tensor(rng.normal(size=(1, 3, 8, 1)), requires_grad=True)
        out = enc.encode(x)
        grad_out = np.zeros(out.shape)
        grad_out[0, 1] = 1.0  # seeds the gradient of out[0, 1].sum()
        out.backward(grad_out)
        grad = x.grad
        assert np.abs(grad[0, 1]).max() > 0
        np.testing.assert_allclose(grad[0, 0], 0.0, atol=1e-15)
        np.testing.assert_allclose(grad[0, 2], 0.0, atol=1e-15)

    def test_residual_depth_composition(self, rng):
        # depth-k output equals depth-(k-1) output plus the k-th layer delta
        enc = s4_encoder(1, 4, 2, 3, rng)
        x = rng.normal(size=(2, 2, 12, 1))
        h1 = enc.layers[0].forward((Tensor(x.reshape(4, 12, 1)) @ enc.w_in) + enc.b_in)
        h2 = enc.layers[1].forward(h1)
        full = enc.encode(Tensor(x)).data
        np.testing.assert_allclose(full, h2.data.reshape(2, 2, 12, 4), atol=1e-12)
        delta = h2.data - h1.data
        np.testing.assert_allclose(full, (h1.data + delta).reshape(2, 2, 12, 4), atol=1e-12)

    def test_encoder_gradcheck(self, rng):
        enc = s4_encoder(1, 2, 1, 2, rng)
        x = Tensor(rng.normal(size=(1, 2, 6, 1)))
        w = Tensor(rng.normal(size=(1, 2, 6, 2)))

        def loss():
            return (enc.encode(x) * w).sum()

        worst, per = backward_and_gradcheck(loss, dict(enc.named_parameters()))
        assert worst <= 1e-6, per
