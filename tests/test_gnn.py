"""GIN layer, readout pooling, classifier head, and the GRU ablation encoder."""

from functools import partial

import numpy as np
import pytest

from ssmgraph import tensor as T
from ssmgraph.gnn import ClassifierHead, GinLayer, PoolSpec, temporal_graph_readout
from ssmgraph.gradcheck import backward_and_gradcheck
from ssmgraph.model import SequenceEncoder
from ssmgraph.rnn import GruLayer, gru_sequence
from ssmgraph.tensor import ContractError, Tensor


def identity_gin(rng, d):
    layer = GinLayer(d, rng)
    layer.w1.data[:] = np.eye(d)
    layer.w2.data[:] = np.eye(d)
    layer.b1.data[:] = 0.0
    layer.b2.data[:] = 0.0
    layer.eps_gin.data[...] = 0.0
    return layer


class TestGinLayer:
    def test_isolated_nodes_identity_mlp(self, rng):
        layer = identity_gin(rng, 3)
        h = np.abs(rng.normal(size=(4, 3)))  # nonnegative keeps ReLU transparent
        out = layer.forward(Tensor(h), Tensor(np.zeros((4, 4))))
        np.testing.assert_allclose(out.data, h, atol=1e-12)

    def test_hand_sum_two_nodes(self, rng):
        layer = identity_gin(rng, 1)
        h = Tensor(np.array([[1.0], [2.0]]))
        w = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = layer.forward(h, w)
        np.testing.assert_allclose(out.data, [[3.0], [3.0]], atol=1e-12)

    def test_permutation_equivariance(self, rng):
        layer = GinLayer(5, rng)
        h = rng.normal(size=(6, 5))
        w = rng.uniform(size=(6, 6))
        w = (w + w.T) / 2
        perm = rng.permutation(6)
        p = np.eye(6)[perm]
        out = layer.forward(Tensor(h), Tensor(w)).data
        out_perm = layer.forward(Tensor(h[perm]), Tensor(p @ w @ p.T)).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    def test_diagonal_contributes(self, rng):
        layer = identity_gin(rng, 1)
        h = Tensor(np.array([[2.0]]))
        out = layer.forward(h, Tensor(np.array([[0.5]])))
        np.testing.assert_allclose(out.data, [[3.0]])  # (1+0)*2 + 0.5*2

    def test_gradcheck(self, rng):
        layer = GinLayer(3, rng)
        h = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.uniform(0.1, 1.0, size=(4, 4)), requires_grad=True)
        target = Tensor(rng.normal(size=(4, 3)))

        def loss():
            diff = layer.forward(h, w) - target
            return (diff * diff).sum()

        leaves = dict(layer.named_parameters() + [("h", h), ("w", w)])
        worst, per = backward_and_gradcheck(loss, leaves)
        assert worst <= 1e-6, per


class TestReadout:
    def test_single_interval_reduces_to_graph_pool(self, rng):
        z = Tensor(rng.normal(size=(1, 4, 3)))
        spec = PoolSpec(graph_pool="mean", temporal_pool="mean")
        out = temporal_graph_readout(z, spec)
        np.testing.assert_allclose(out.data, z.data[0].mean(axis=0), atol=1e-12)

    def test_identical_intervals_idempotent(self, rng):
        z0 = rng.normal(size=(4, 3))
        z = Tensor(np.stack([z0, z0, z0]))
        for tp in ("mean", "max"):
            out = temporal_graph_readout(z, PoolSpec(graph_pool="sum", temporal_pool=tp))
            np.testing.assert_allclose(out.data, z0.sum(axis=0), atol=1e-12)

    def test_max_graph_pool_dominant_row(self, rng):
        z0 = rng.uniform(0.0, 1.0, size=(4, 3))
        z0[2] = 10.0 + rng.uniform(size=3)  # dominates every column
        out = temporal_graph_readout(Tensor(z0[None]), PoolSpec(graph_pool="max"))
        np.testing.assert_allclose(out.data, z0[2], atol=1e-12)

    def test_batched_shapes(self, rng):
        z = Tensor(rng.normal(size=(2, 5, 4, 3)))
        out = temporal_graph_readout(z, PoolSpec())
        assert out.shape == (2, 3)

    def test_graph_pool_permutation_invariance(self, rng):
        z = rng.normal(size=(1, 6, 4))
        perm = rng.permutation(6)
        for gp in ("mean", "max", "sum"):
            spec = PoolSpec(graph_pool=gp)
            a = temporal_graph_readout(Tensor(z), spec).data
            b = temporal_graph_readout(Tensor(z[:, perm]), spec).data
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_bad_pool_spec(self):
        with pytest.raises(ContractError):
            PoolSpec(graph_pool="median")


class TestClassifierHead:
    def test_zero_weights_bias_logits(self, rng):
        head = ClassifierHead(4, 3, rng)
        head.w.data[:] = 0.0
        head.b.data[:] = [0.5, -1.0, 2.0]
        out = head.forward(Tensor(rng.normal(size=(2, 4))))
        np.testing.assert_allclose(out.data, np.tile([0.5, -1.0, 2.0], (2, 1)))

    def test_identity_like_head(self, rng):
        head = ClassifierHead(2, 2, rng)
        head.w.data[:] = np.eye(2)
        head.b.data[:] = 0.0
        out = head.forward(Tensor(np.array([[1.0, -1.0]])))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]])

    def test_gradcheck_through_bce(self, rng):
        head = ClassifierHead(3, 1, rng)
        pooled = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        targets = rng.integers(0, 2, size=(4, 1)).astype(float)

        def loss():
            return T.bce_with_logits(head.forward(pooled), targets)

        worst, per = backward_and_gradcheck(loss, dict(head.named_parameters() + [("pooled", pooled)]))
        assert worst <= 1e-6, per


def gru_encoder(input_dim, d_model, depth, rng):
    layer = partial(GruLayer, d_model, d_model)
    return SequenceEncoder(input_dim, d_model, depth, layer, rng)


class TestGru:
    def test_output_shape(self, rng):
        layer = GruLayer(3, 5, rng)
        out = layer.forward(Tensor(rng.normal(size=(2, 7, 3))))
        assert out.shape == (2, 7, 5)

    def test_zero_input_zero_bias_stays_zero(self, rng):
        layer = GruLayer(2, 4, rng)
        layer.b_ih.data[:] = 0.0
        layer.b_hh.data[:] = 0.0
        out = layer.forward(Tensor(np.zeros((1, 6, 2))))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_matches_step_by_step_reference(self, rng):
        layer = GruLayer(2, 3, rng)
        x = rng.normal(size=(2, 5, 2))
        out = layer.forward(Tensor(x)).data

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        d = 3
        h = np.zeros((2, d))
        for t in range(5):
            gi = x[:, t] @ layer.w_ih.data + layer.b_ih.data
            gh = h @ layer.w_hh.data + layer.b_hh.data
            r = sig(gi[:, :d] + gh[:, :d])
            z = sig(gi[:, d:2 * d] + gh[:, d:2 * d])
            n = np.tanh(gi[:, 2 * d:] + r * gh[:, 2 * d:])
            h = (1 - z) * n + z * h
            np.testing.assert_allclose(out[:, t], h, atol=1e-12)

    def test_gradcheck_full_bptt(self, rng):
        layer = GruLayer(2, 3, rng)
        x = Tensor(rng.normal(size=(2, 6, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 6, 3)))

        def loss():
            return (layer.forward(x) * w).sum()

        leaves = dict(layer.named_parameters() + [("x", x)])
        worst, per = backward_and_gradcheck(loss, leaves)
        assert worst <= 1e-6, per

    def test_encoder_interface(self, rng):
        enc = gru_encoder(1, 4, 2, rng)
        x = rng.normal(size=(2, 3, 10, 1))
        out = enc.encode(Tensor(x))
        assert out.shape == (2, 3, 10, 4)

    def test_encoder_masked_equals_truncated(self, rng):
        enc = gru_encoder(1, 4, 2, np.random.default_rng(3))
        for layer in enc.layers:  # non-zero biases, as after training
            layer.b_ih.data[:] = rng.normal(size=12)
            layer.b_hh.data[:] = rng.normal(size=12)
        x = rng.normal(size=(1, 2, 12, 1))
        x[:, :, 8:] = 0.0
        mask = np.zeros((1, 12))
        mask[:, :8] = 1.0
        out_masked = enc.encode(Tensor(x), mask=mask).data[:, :, :8]
        out_trunc = enc.encode(Tensor(x[:, :, :8])).data
        np.testing.assert_allclose(out_masked, out_trunc, atol=1e-12)
