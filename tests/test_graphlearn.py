"""Graph structure learning: pooling, attention adjacency, KNN mixing,
pruning/symmetrization, and the three regularizers."""

import itertools
import sys
import weakref

import numpy as np
import pytest

from conftest import graph_regularizers_reference
from ssmgraph import fftconv
from ssmgraph import tensor as T
from ssmgraph.gradcheck import backward_and_gradcheck
from ssmgraph.graphlearn import (DEG_EPS, GslConfig, GslLayer, RegWeights,
                                 attention_adjacency, attention_weights, finalize_adjacency,
                                 graph_regularizers, interval_mean_pool,
                                 knn_graph_cosine, num_intervals,
                                 reg_loss_total, write_adjacency_csv)
from ssmgraph.tensor import ContractError, NumericError, ShapeError, Tape, Tensor


def knn_graph_argsort(h, k):
    """The KNN graph by a stable sort of every row, as ``knn_graph_cosine``
    built it before its k argmax passes; kept as its reference."""
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[-2]
    norms = np.linalg.norm(h, axis=-1, keepdims=True)
    unit = np.divide(h, norms, out=np.zeros_like(h), where=norms > 0)
    sim = unit @ np.swapaxes(unit, -1, -2)
    idx = np.arange(n)
    sim[..., idx, idx] = -np.inf
    order = np.argsort(-sim, axis=-1, kind="stable")[..., :k]
    w = np.zeros(sim.shape)
    np.put_along_axis(w, order, 1.0, axis=-1)
    return np.maximum(w, np.swapaxes(w, -1, -2))


def prune_below_reference(a, threshold):
    """The pruning op ``finalize_adjacency`` folded in, kept as its reference."""
    keep = a.data >= threshold

    def bwd(g):
        a._accum(g * keep, owned=True)

    return T._record(np.where(keep, a.data, 0.0), (a,), bwd)


def finalize_reference(w_bar, w_knn, epsilon, kappa):
    """The elementary ops ``finalize_adjacency`` stands for."""
    mixed = Tensor(np.asarray(w_knn, dtype=w_bar.dtype) * epsilon) + w_bar * (1.0 - epsilon)
    pruned = prune_below_reference(mixed, kappa)
    nd = pruned.ndim
    return (pruned + pruned.transpose((*range(nd - 2), nd - 1, nd - 2))) * 0.5


class TestIntervalMeanPool:
    def test_constant_input(self):
        h = Tensor(np.full((1, 2, 8, 3), 2.5))
        pooled = interval_mean_pool(h, 4)
        assert pooled.shape == (1, 2, 2, 3)
        np.testing.assert_allclose(pooled.data, 2.5)

    def test_arithmetic_mean(self):
        # per-step values [1,3,5,7], r=2 -> interval means [2, 6]
        h = Tensor(np.array([1.0, 3.0, 5.0, 7.0]).reshape(1, 1, 4, 1))
        pooled = interval_mean_pool(h, 2)
        np.testing.assert_allclose(pooled.data.ravel(), [2.0, 6.0])

    def test_padded_tail_equals_truncated(self, rng):
        x = rng.normal(size=(1, 3, 6, 2))
        x_padded = np.concatenate([x, np.zeros((1, 3, 2, 2))], axis=2)
        mask = np.concatenate([np.ones((1, 6)), np.zeros((1, 2))], axis=1)
        full = interval_mean_pool(Tensor(x_padded), "full", mask).data
        trunc = interval_mean_pool(Tensor(x), "full").data
        np.testing.assert_allclose(full, trunc, atol=1e-14)

    @pytest.mark.parametrize("mask", [None, np.ones((2, 8))])
    def test_unpadded_pool_records_no_multiply(self, rng, mask):
        h = Tensor(rng.normal(size=(2, 3, 8, 4)), requires_grad=True)
        ops = Tape.trace(interval_mean_pool(h, 4, mask)).ops
        assert not [op for op in ops if op.bwd.__qualname__.startswith("mul.")]

    @pytest.mark.parametrize("padded", [False, True])
    def test_pooled_is_c_ordered(self, rng, padded):
        # the graph stage views pooled as (graphs, N, D) without a copy
        x = rng.normal(size=(2, 3, 8, 4))
        mask = np.ones((2, 8))
        if padded:
            mask[1, 6:] = 0.0
        pooled = interval_mean_pool(Tensor(x), 4, mask if padded else None).data
        assert pooled.flags.c_contiguous
        assert np.shares_memory(pooled, pooled.reshape(-1, 3, 4))
        sums = (x * mask[:, None, :, None]).reshape(2, 3, 2, 4, 4).sum(axis=3)
        counts = mask.reshape(2, 1, 2, 4).sum(axis=3)[..., None]
        np.testing.assert_allclose(pooled, (sums / counts).transpose(0, 2, 1, 3), atol=1e-14)

    def test_fully_padded_interval_rejected(self):
        h = Tensor(np.ones((1, 1, 4, 1)))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        with pytest.raises(ContractError):
            interval_mean_pool(h, 2, mask)

    def test_indivisible_length_rejected(self):
        with pytest.raises(ContractError):
            interval_mean_pool(Tensor(np.ones((1, 1, 5, 1))), 2)

    def test_num_intervals(self):
        assert num_intervals(12000, 2000) == 6
        assert num_intervals(7500, 2500) == 3
        assert num_intervals(64, "full") == 1


class TestAttentionAdjacency:
    def test_zero_embeddings_uniform(self, rng):
        h = Tensor(np.zeros((4, 3)))
        mq = Tensor(rng.normal(size=(3, 3)))
        mk = Tensor(rng.normal(size=(3, 3)))
        w = attention_adjacency(h, mq, mk, heads=1)
        np.testing.assert_allclose(w.data, 0.25, atol=1e-12)

    def test_hand_evaluated_two_nodes(self):
        # D=1, Mq=Mk=1: scores = h h^T / 1, rows softmaxed directly
        h = np.array([[np.log(2.0)], [0.0]])
        w = attention_adjacency(Tensor(h), Tensor([[1.0]]), Tensor([[1.0]]), heads=1)
        scores = h @ h.T
        expected = np.exp(scores - scores.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(w.data, expected, atol=1e-12)

    def test_rows_sum_to_one_100_random(self, rng):
        mq = Tensor(rng.normal(size=(8, 8)))
        mk = Tensor(rng.normal(size=(8, 8)))
        for _ in range(100):
            h = Tensor(rng.normal(size=(5, 8)))
            w = attention_adjacency(h, mq, mk, heads=4)
            np.testing.assert_allclose(w.data.sum(axis=-1), np.ones(5), atol=1e-9)

    def test_multihead_is_head_mean(self, rng):
        for shape, heads in (((4, 6), 2), ((2, 3, 5, 8), 2), ((2, 3, 5, 8), 4)):
            d = shape[-1]
            d_head = d // heads
            h = Tensor(rng.normal(size=shape))
            mq = Tensor(rng.normal(size=(d, d)))
            mk = Tensor(rng.normal(size=(d, d)))
            w = attention_adjacency(h, mq, mk, heads=heads).data
            per_head = []
            for i in range(heads):
                sl = slice(d_head * i, d_head * (i + 1))
                q = h.data @ mq.data[:, sl]
                k = h.data @ mk.data[:, sl]
                s = q @ np.swapaxes(k, -1, -2) / np.sqrt(d_head)
                e = np.exp(s - s.max(axis=-1, keepdims=True))
                per_head.append(e / e.sum(axis=-1, keepdims=True))
            np.testing.assert_allclose(w, np.mean(per_head, axis=0), atol=1e-12,
                                       err_msg=f"shape {shape}, heads {heads}")

    @pytest.mark.parametrize("heads", [2, 4])
    def test_multihead_gradcheck(self, rng, heads):
        h = Tensor(rng.normal(size=(2, 2, 3, 4)), requires_grad=True)
        mq = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        mk = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        weight = Tensor(rng.normal(size=(2, 2, 3, 3)))

        def loss():
            return (attention_adjacency(h, mq, mk, heads=heads) * weight).sum()

        worst, per = backward_and_gradcheck(loss, {"h": h, "mq": mq, "mk": mk})
        assert worst <= 1e-6, per

    def test_tape_ops_independent_of_heads(self, rng):
        # heads are a tensor axis, not a Python loop over head slices
        h = Tensor(rng.normal(size=(2, 3, 5, 8)), requires_grad=True)
        mq = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        mk = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        counts = {len(Tape.trace(attention_adjacency(h, mq, mk, heads=heads)).ops)
                  for heads in (1, 2, 4, 8)}
        assert len(counts) == 1, counts


class TestKnnGraph:
    def brute_force(self, h, k):
        n = h.shape[0]
        norms = np.linalg.norm(h, axis=1)
        sim = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j and norms[i] > 0 and norms[j] > 0:
                    sim[i, j] = h[i] @ h[j] / (norms[i] * norms[j])
        w = np.zeros((n, n))
        for i in range(n):
            ranked = sorted((j for j in range(n) if j != i), key=lambda j: (-sim[i, j], j))
            for j in ranked[:k]:
                w[i, j] = 1.0
        return np.maximum(w, w.T)

    def test_tie_break_lower_index(self):
        h = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        w = knn_graph_cosine(h, 1)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0  # identical rows pair up
        expected[2, 0] = expected[0, 2] = 1.0  # node 2 ties, picks index 0
        np.testing.assert_allclose(w, expected)
        np.testing.assert_allclose(w, self.brute_force(h, 1))

    def test_identical_rows_complete_graph(self):
        h = np.ones((4, 3))
        w = knn_graph_cosine(h, 3)
        expected = np.ones((4, 4)) - np.eye(4)
        np.testing.assert_allclose(w, expected)

    def test_symmetry_random(self, rng):
        for _ in range(50):
            h = rng.normal(size=(6, 4))
            w = knn_graph_cosine(h, int(rng.integers(1, 6)))
            np.testing.assert_allclose(w, w.T)

    def test_matches_brute_force_random(self, rng):
        for _ in range(50):
            h = rng.normal(size=(7, 3))
            k = int(rng.integers(1, 7))
            np.testing.assert_allclose(knn_graph_cosine(h, k), self.brute_force(h, k))

    def test_scale_invariance(self, rng):
        h = rng.normal(size=(6, 5))
        scales = rng.uniform(0.1, 10.0, size=(6, 1))
        np.testing.assert_allclose(knn_graph_cosine(h, 2), knn_graph_cosine(h * scales, 2))

    def test_k_bounds(self, rng):
        with pytest.raises(ContractError):
            knn_graph_cosine(rng.normal(size=(3, 2)), 3)

    @staticmethod
    def tied_and_zero_rows(rng, shape):
        """Rounded rows (many equal similarities), duplicated rows and zero rows."""
        h = np.round(rng.normal(size=shape))
        n = shape[-2]
        h[..., n // 2:n // 2 + n // 4, :] = h[..., :n // 4, :]
        h[..., -2:, :] = 0.0
        return h

    @pytest.mark.parametrize("shape", [(3, 2), (7, 3), (6, 4), (2, 3, 6, 4), (4, 32, 64, 32)])
    @pytest.mark.parametrize("inputs", ["random", "tied", "float32"])
    def test_matches_stable_sort(self, rng, shape, inputs):
        # bit for bit, at every k for small graphs and at graph-dense's k = 2 and 10
        if inputs == "tied":
            h = self.tied_and_zero_rows(rng, shape)
        else:
            h = rng.normal(size=shape).astype(np.float32 if inputs == "float32" else np.float64)
        n = shape[-2]
        for k in (2, 10) if n == 64 else range(1, n):
            got, want = knn_graph_cosine(h, k), knn_graph_argsort(h, k)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), f"k={k}"

    def test_zero_row_picks_lowest_indices(self, rng):
        # a zero-norm row has similarity 0 to every peer: all tie, and 0 and 1 win
        h = self.tied_and_zero_rows(rng, (4, 32, 64, 32))
        assert np.all(knn_graph_cosine(h, 2)[..., -2, :2] == 1.0)


class TestFinalizeAdjacency:
    def test_mixing_value(self):
        w_bar = Tensor(np.array([[0.5]]))
        w = finalize_adjacency(w_bar, np.array([[1.0]]), epsilon=0.6, kappa=0.0)
        np.testing.assert_allclose(w.data, [[0.8]], atol=1e-12)

    def test_pruning(self):
        w_bar = Tensor(np.array([[0.05, 0.95], [0.95, 0.05]]))
        w = finalize_adjacency(w_bar, np.zeros((2, 2)), epsilon=0.0, kappa=0.1)
        assert w.data[0, 0] == 0.0 and w.data[1, 1] == 0.0
        np.testing.assert_allclose(w.data[0, 1], 0.95)

    def test_epsilon_zero_identity(self, rng):
        w_bar_data = rng.uniform(0.0, 1.0, size=(4, 4))
        w = finalize_adjacency(Tensor(w_bar_data), np.ones((4, 4)), epsilon=0.0, kappa=0.2)
        pruned = np.where(w_bar_data < 0.2, 0.0, w_bar_data)
        np.testing.assert_allclose(w.data, (pruned + pruned.T) / 2, atol=1e-12)

    def test_output_contracts(self, rng):
        w_bar = Tensor(rng.uniform(0.0, 1.0, size=(2, 5, 5)))
        w_knn = (rng.uniform(size=(2, 5, 5)) > 0.5).astype(float)
        w = finalize_adjacency(w_bar, w_knn, epsilon=0.4, kappa=0.15)
        np.testing.assert_allclose(w.data, np.swapaxes(w.data, -1, -2), atol=0)
        assert np.all(w.data >= 0.0) and np.all(w.data <= 1.0)
        # strictly-below-kappa entries of the mixed matrix are exactly zero
        mixed = 0.4 * w_knn + 0.6 * w_bar.data
        sym_mask = (mixed < 0.15) & (np.swapaxes(mixed, -1, -2) < 0.15)
        assert np.all(w.data[sym_mask] == 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(5, 5), (2, 3, 6, 6), (4, 32, 64, 64)])
    def test_matches_unfused_composition(self, rng, dtype, shape):
        # values and the w_bar gradient equal scale, add, prune, add the
        # transpose and halve, bit for bit (the last shape is graph-dense's)
        logits = rng.normal(scale=2.0, size=shape)
        w_bar_data = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        w_knn = knn_graph_cosine(rng.normal(size=shape[:-1] + (4,)), 2)
        g = rng.normal(size=shape).astype(dtype)
        fused_in = Tensor(w_bar_data, requires_grad=True, dtype=dtype)
        ref_in = Tensor(w_bar_data, requires_grad=True, dtype=dtype)
        fused = finalize_adjacency(fused_in, w_knn, epsilon=0.6, kappa=0.1)
        ref = finalize_reference(ref_in, w_knn, epsilon=0.6, kappa=0.1)
        assert 0.0 < np.mean(ref.data == 0.0) < 1.0  # some entries pruned, some kept
        fused.backward(g)
        ref.backward(g)
        assert fused.dtype == ref.dtype == dtype
        assert fused.data.tobytes() == ref.data.tobytes()
        assert fused_in.grad.dtype == dtype
        assert fused_in.grad.tobytes() == ref_in.grad.tobytes()

    @pytest.mark.parametrize("epsilon", [0.0, 0.4])
    def test_gradcheck(self, rng, epsilon):
        # entries kept clear of kappa, where the pruning step has no derivative
        w_knn = (rng.uniform(size=(2, 5, 5)) > 0.5).astype(float)
        kappa = 0.3
        data = rng.uniform(0.0, 1.0, size=(2, 5, 5))
        mixed = epsilon * w_knn + (1.0 - epsilon) * data
        data[np.abs(mixed - kappa) < 0.05] += 0.1 / (1.0 - epsilon)
        mixed = epsilon * w_knn + (1.0 - epsilon) * data
        assert np.any(mixed < kappa) and np.any(mixed >= kappa)
        w_bar = Tensor(data, requires_grad=True)
        weight = Tensor(rng.normal(size=(2, 5, 5)))

        def loss():
            return (finalize_adjacency(w_bar, w_knn, epsilon, kappa) * weight).sum()

        worst, per = backward_and_gradcheck(loss, {"w_bar": w_bar})
        assert worst <= 1e-6, per
        assert np.all(w_bar.grad[mixed < kappa] == 0.0)  # pruned entries pass no gradient


def regularizer_columns(h, w) -> np.ndarray:
    return graph_regularizers(Tensor(h), Tensor(w)).data


class TestRegularizers:
    # columns of graph_regularizers: 0 smoothness, 1 degree, 2 sparsity
    def test_smoothness_constant_features_zero(self, rng):
        # equal degrees put the constant vector in the normalized-Laplacian
        # null space; a symmetric circulant graph is degree-regular
        row = rng.uniform(0.1, 1.0, size=5)
        row = (row + np.roll(row[::-1], 1)) / 2  # c[k] == c[N-k] keeps W symmetric
        w = np.array([np.roll(row, i) for i in range(5)])
        np.testing.assert_allclose(w, w.T, atol=1e-15)
        h = np.tile([1.7, -0.3, 2.2], (5, 1))
        assert abs(regularizer_columns(h, w)[0]) <= 1e-12

    def test_smoothness_empty_graph_zero(self, rng):
        h = rng.normal(size=(4, 3))
        assert regularizer_columns(h, np.zeros((4, 4)))[0] == 0.0

    def test_smoothness_hand_case(self):
        # W=[[0,1],[1,0]], h=[[1],[0]]: L_hat=[[1,-1],[-1,1]], tr = 1 -> 1/4
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = np.array([[1.0], [0.0]])
        np.testing.assert_allclose(regularizer_columns(h, w)[0], 0.25, atol=1e-12)

    def test_degree_all_ones(self):
        np.testing.assert_allclose(regularizer_columns(np.zeros((2, 1)), np.ones((2, 2)))[1],
                                   -np.log(2.0), atol=1e-10)

    def test_degree_zero_row_finite_large(self):
        w = np.array([[0.0, 0.0], [0.0, 1.0]])
        val = regularizer_columns(np.zeros((2, 1)), w)[1]
        assert np.isfinite(val) and val > 5.0
        np.testing.assert_allclose(val, -(np.log(DEG_EPS) + np.log(1.0)) / 2, atol=1e-12)

    def test_degree_scaling_shift(self, rng):
        w_data = rng.uniform(0.1, 1.0, size=(4, 4))
        h = np.zeros((4, 1))
        base = regularizer_columns(h, w_data)[1]
        scaled = regularizer_columns(h, 3.5 * w_data)[1]
        np.testing.assert_allclose(scaled, base - np.log(3.5), atol=1e-12)

    def test_sparsity_values(self):
        assert regularizer_columns(np.zeros((2, 1)), np.eye(2))[2] == 0.5
        assert regularizer_columns(np.zeros((3, 1)), np.zeros((3, 3)))[2] == 0.0
        assert regularizer_columns(np.zeros((4, 1)), np.ones((4, 4)))[2] == 1.0

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_columns_match_reference(self, rng, symmetric):
        # node 1 of every graph and node 3 of the first are isolated
        w = rng.uniform(0.0, 1.0, size=(2, 3, 6, 6))
        if symmetric:
            w = (w + np.swapaxes(w, -1, -2)) / 2
        w[..., 1, :] = 0.0
        w[..., :, 1] = 0.0
        w[0, :, 3, :] = 0.0
        h = rng.normal(size=(2, 3, 6, 4))
        np.testing.assert_allclose(regularizer_columns(h, w), graph_regularizers_reference(h, w),
                                   rtol=1e-12, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            graph_regularizers(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 4))))
        with pytest.raises(ShapeError):
            graph_regularizers(Tensor(np.ones((4, 2))), Tensor(np.ones((3, 3))))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradcheck(self, seed):
        # no isolated node: the DEG_EPS guard is not differentiable at deg == 0
        rng = np.random.default_rng(seed)
        w = Tensor(rng.uniform(0.2, 1.0, size=(2, 5, 5)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        coef = Tensor(rng.normal(size=(2, 3)))

        worst, per = backward_and_gradcheck(
            lambda: (graph_regularizers(h, w) * coef).sum(), {"w": w, "h": h})
        assert worst <= 1e-6, per

    def test_reg_total_zero_weights(self, rng):
        w = Tensor(rng.uniform(0.1, 1.0, size=(1, 2, 3, 3)))
        h = Tensor(rng.normal(size=(1, 2, 3, 4)))
        assert reg_loss_total(w, h, RegWeights()).item() == 0.0

    def test_reg_total_single_graph_reduces(self, rng):
        w_data = rng.uniform(0.1, 1.0, size=(3, 3))
        w_data = (w_data + w_data.T) / 2
        h_data = rng.normal(size=(3, 4))
        weights = RegWeights(alpha=0.3, beta=0.2, gamma=0.5)
        total = reg_loss_total(Tensor(w_data[None, None]), Tensor(h_data[None, None]), weights)
        smooth, degree, sparsity = regularizer_columns(h_data, w_data)
        direct = 0.3 * smooth + 0.2 * degree + 0.5 * sparsity
        np.testing.assert_allclose(total.item(), direct, atol=1e-12)

    def test_reg_total_two_graph_mean(self):
        # gamma-only, per-graph sparsity 0.1 and 0.3 -> mean 0.2
        a = np.sqrt(0.2)
        b = np.sqrt(0.6)
        w = Tensor(np.stack([np.diag([a, a]), np.diag([b, b])])[None])
        h = Tensor(np.zeros((1, 2, 2, 1)))
        total = reg_loss_total(w, h, RegWeights(gamma=1.0))
        np.testing.assert_allclose(total.item(), 0.2, atol=1e-12)

    def test_reg_total_misaligned(self, rng):
        with pytest.raises(ContractError):
            reg_loss_total(Tensor(np.ones((1, 2, 3, 3))), Tensor(np.ones((1, 3, 3, 4))),
                           RegWeights(gamma=1.0))

    def test_reg_total_records_four_ops(self, rng):
        # the regularizer op, the weighting, the sum over terms and the mean
        w = Tensor(rng.uniform(0.1, 1.0, size=(2, 3, 4, 4)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        loss = reg_loss_total(w, h, RegWeights(alpha=0.3, beta=0.2, gamma=0.5))
        assert len(Tape.trace(loss).ops) == 4

    def test_regularizer_gradients(self, rng):
        w = Tensor(rng.uniform(0.2, 1.0, size=(4, 4)), requires_grad=True)
        h = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

        def column(i, graph):
            return (graph_regularizers(h, graph) * Tensor(np.eye(3)[i])).sum()

        for fn, leaves in (
            (lambda: column(0, (w + w.transpose((1, 0))) * 0.5), {"w": w, "h": h}),
            (lambda: column(1, w), {"w": w}),
            (lambda: column(2, w), {"w": w}),
        ):
            worst, per = backward_and_gradcheck(fn, leaves)
            assert worst <= 1e-5, per


def graph_stage(dtype):
    """Graphs, regularizer columns and the gradients of pooled, mq and mk of
    one graph layer on 3 x 7 graphs of 64 nodes."""
    rng = np.random.default_rng(5)
    layer = GslLayer(32, GslConfig(r=4, knn_k=2, epsilon=0.6, kappa=0.1, heads=4), rng, dtype)
    pooled = Tensor(rng.normal(size=(3, 7, 64, 32)), requires_grad=True, dtype=dtype)
    w = layer.build_graphs(pooled)
    reg = graph_regularizers(pooled, w)
    loss = ((reg * Tensor([0.3, 0.2, 0.5], dtype=dtype)).sum()
            + (w * Tensor(rng.normal(size=w.shape), dtype=dtype)).sum())
    loss.backward()
    return [w.data, reg.data, pooled.grad, layer.mq.grad, layer.mk.grad]


class TestGraphBlocks:
    """The attention, KNN, finalize and regularizer ops run blocks of whole
    graphs on the row pool: no value or gradient may depend on the block
    count or the pool size."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_equals_one_block(self, monkeypatch, dtype):
        monkeypatch.setattr(fftconv, "_BLOCK_BYTES", 1 << 40)
        monkeypatch.setattr(fftconv, "FFT_WORKERS", 1)
        expected = [a.tobytes() for a in graph_stage(dtype)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch as often as they can
        try:
            # 1 MiB: attention blocks of 8 or 16 graphs and a ragged last one;
            # 80 kB: one graph per attention block and ragged pairs of graphs
            # in the other ops. 5 workers: more threads than most hosts' CPUs.
            for block_bytes in (1 << 20, 80_000):
                for workers in (1, 2, 5):
                    monkeypatch.setattr(fftconv, "_BLOCK_BYTES", block_bytes)
                    monkeypatch.setattr(fftconv, "FFT_WORKERS", workers)
                    got = [a.tobytes() for a in graph_stage(dtype)]
                    assert got == expected, (block_bytes, workers)
        finally:
            sys.setswitchinterval(interval)

    def test_block_error_reaches_caller_once_every_block_has_stopped(self, monkeypatch):
        monkeypatch.setattr(fftconv, "FFT_WORKERS", 2)
        monkeypatch.setattr(fftconv, "_BLOCK_BYTES", 1)  # one graph a block
        softmax, calls, finished = T._softmax, itertools.count(), []

        def failing(z, out=None):
            if next(calls) == 0:  # atomic under the GIL
                raise NumericError("one block failed")
            result = softmax(z, out=out)
            finished.append(len(z))
            return result

        monkeypatch.setattr(T, "_softmax", failing)
        rng = np.random.default_rng(0)
        q, k = rng.normal(size=(12, 5, 6)), rng.normal(size=(12, 5, 6))
        with pytest.raises(NumericError, match="one block failed"):
            attention_weights(Tensor(q), Tensor(k), 2)
        # the other eleven blocks ran to the end before the call raised
        assert finished == [1] * 11

    @pytest.mark.parametrize("op", ["attention_weights", "finalize_adjacency",
                                    "graph_regularizers"])
    def test_backward_runs_once(self, monkeypatch, op):
        # a second backward once ran again on the kept state and doubled
        # every gradient it reached
        monkeypatch.setattr(fftconv, "_BLOCK_BYTES", 1)  # one graph a block
        rng = np.random.default_rng(0)
        a = Tensor(rng.uniform(size=(6, 5, 5)), requires_grad=True)
        b = Tensor(rng.uniform(size=(6, 5, 5)), requires_grad=True)
        out = {"attention_weights": lambda: attention_weights(a, b, 1),
               "finalize_adjacency": lambda: finalize_adjacency(a, b.data, 0.5, 0.4),
               "graph_regularizers": lambda: graph_regularizers(a, b)}[op]()
        loss = out.sum()
        loss.backward()
        with pytest.raises(ContractError, match=op):
            loss.backward()

    def test_backward_frees_kept_state(self, monkeypatch):
        # each block's softmax, kept for backward, is dropped during backward,
        # not when the whole graph is
        monkeypatch.setattr(fftconv, "_BLOCK_BYTES", 1)  # one graph a block
        softmax, kept = T._softmax, []

        def spy(z, out=None):
            result = softmax(z, out=out)
            kept.append(weakref.ref(result))
            return result

        monkeypatch.setattr(T, "_softmax", spy)
        rng = np.random.default_rng(0)
        q = Tensor(rng.normal(size=(6, 5, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(6, 5, 4)), requires_grad=True)
        loss = attention_weights(q, k, 2).sum()
        assert len(kept) == 6 and all(ref() is not None for ref in kept)
        loss.backward()
        assert all(ref() is None for ref in kept)


class TestGslLayer:
    def test_end_to_end_contracts(self, rng):
        cfg = GslConfig(r=4, knn_k=2, epsilon=0.5, kappa=0.1, heads=2)
        layer = GslLayer(8, cfg, rng)
        pooled = Tensor(rng.normal(size=(2, 3, 5, 8)))
        w = layer.build_graphs(pooled)
        assert w.shape == (2, 3, 5, 5)
        np.testing.assert_allclose(w.data, np.swapaxes(w.data, -1, -2), atol=0)
        assert np.all((w.data == 0.0) | (w.data >= 0.0))
        assert np.all(w.data <= 1.0)

    def test_build_graphs_records_four_ops(self, rng):
        # two projection matmuls, one attention op from Q and K, which splits
        # the heads itself, and one finalize op
        layer = GslLayer(8, GslConfig(r=4, knn_k=2, epsilon=0.5, kappa=0.1, heads=2), rng)
        pooled = Tensor(rng.normal(size=(2, 3, 5, 8)), requires_grad=True)
        assert len(Tape.trace(layer.build_graphs(pooled)).ops) == 4

    def test_graph_count(self, rng):
        assert num_intervals(2048, 256) == 8
        assert num_intervals(2048, 2048) == 1

    def test_csv_export(self, rng, tmp_path):
        w = rng.uniform(size=(3, 3))
        path = tmp_path / "adj.csv"
        write_adjacency_csv(w, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
        np.testing.assert_allclose(parsed, np.round(w, 6), atol=1e-9)
