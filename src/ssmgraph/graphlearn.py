"""Dynamic graph structure learning and graph regularization.

One adjacency matrix is learned per time interval of length ``r``: pooled
embeddings feed a self-attention layer whose attention weights become edge
weights, a cosine-similarity KNN graph is mixed in, weak edges are pruned,
and the result is symmetrized. Three regularizers (Dirichlet smoothness,
log-degree connectivity, Frobenius sparsity) shape the learned graphs.

Each stage is one pass where the arithmetic allows: k first-occurrence
``argmax`` passes pick the KNN peers (ties go to the lower index, as in a
stable sort); one tape op, ``attention_weights``, takes the projections Q
and K to the head-averaged softmax of their scores, its heads strided views
of Q and K; one mixes, prunes and symmetrizes; one gives the regularizers of
each graph. The attention and finalize ops repeat the elementary ops'
arithmetic in the same order, with constants in the graph's dtype, so graphs
and gradients equal the unfused composition bit for bit.

Every graph is independent through these four ops, so each runs forward and
backward over blocks of whole graphs on the S4 block's row pool, through
``fftconv.blocked``: a block holds about ``fftconv._BLOCK_BYTES`` of the op's
largest per-graph array, and what a forward block returns its backward block
receives once. ``attention_weights`` keeps each block's softmax,
``finalize_adjacency`` the keep-mask of the pruning, and
``graph_regularizers`` each block's degrees, scaled embeddings and their Gram
matrices; ``knn_graph_cosine`` records nothing. Each block repeats the
whole-array arithmetic on its graphs and writes only its own slice of each
result, so no value or gradient depends on the block or thread count. The
Q/K projections stay whole-array ops: their parameter gradients sum over
graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fftconv
from . import tensor as T
from .tensor import ContractError, Module, ShapeError, Tensor

DEG_EPS = 1e-8  # substitute degree for isolated nodes (guards 1/sqrt and log)

FULL_INTERVAL = "full"  # one graph spanning each record's true length


@dataclass
class RegWeights:
    """Nonnegative weights for (smoothness, degree, sparsity) regularizers."""
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ContractError(f"reg weight {name} must be finite and >= 0, got {v}")


@dataclass
class GslConfig:
    r: int | str = FULL_INTERVAL   # interval length in timesteps, or "full"
    knn_k: int = 2
    epsilon: float = 0.6
    kappa: float = 0.1
    heads: int = 4

    def __post_init__(self):
        if self.r != FULL_INTERVAL:
            if not isinstance(self.r, int) or self.r < 1:
                raise ContractError(f"r must be a positive int or '{FULL_INTERVAL}', got {self.r!r}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ContractError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if not 0.0 <= self.kappa < np.inf:
            raise ContractError(f"kappa must be finite and >= 0, got {self.kappa}")
        if self.knn_k < 1:
            raise ContractError(f"knn_k must be >= 1, got {self.knn_k}")
        if self.heads < 1:
            raise ContractError(f"heads must be >= 1, got {self.heads}")


def num_intervals(t_len: int, r) -> int:
    if r == FULL_INTERVAL:
        return 1
    if t_len % r != 0:
        raise ContractError(f"sequence length {t_len} not divisible by interval r={r}")
    return t_len // r


def padding_mask(mask, batch: int, length: int, dtype) -> np.ndarray | None:
    """The (B, T) timestep mask as ``dtype``, or None if no step is padded."""
    if mask is None:
        return None
    mask_arr = np.asarray(mask, dtype=dtype)
    if mask_arr.shape != (batch, length):
        raise ShapeError(f"mask shape {mask_arr.shape} != {(batch, length)}")
    return None if np.all(mask_arr == 1.0) else mask_arr


def interval_mean_pool(h: Tensor, r, mask: np.ndarray | None = None) -> Tensor:
    """Mean of valid timesteps per interval: (B, N, T, D) -> (B, n_d, N, D).

    Padded timesteps (mask == 0), nonzero in encoder output, are left out of
    the sum and the count; an interval with no valid step is a contract error.
    """
    if h.ndim != 4:
        raise ShapeError(f"expected (B, N, T, D), got {h.shape}")
    batch, n_sensors, t_len, d = h.shape
    n_d = num_intervals(t_len, r)
    r_eff = t_len // n_d
    mask_arr = padding_mask(mask, batch, t_len, h.dtype)
    counts = np.full((batch, n_d), r_eff, dtype=h.dtype)
    if mask_arr is not None:
        counts = mask_arr.reshape(batch, n_d, r_eff).sum(axis=-1)   # (B, n_d)
        if np.any(counts < 1):
            raise ContractError("an interval contains no valid timesteps; "
                                "size r against each record's true length")
        h = h * Tensor(mask_arr[:, None, :, None])
    blocks = h.reshape((batch, n_sensors, n_d, r_eff, d)).sum(axis=3)  # (B, N, n_d, D)
    pooled = blocks.transpose((0, 2, 1, 3))                                 # (B, n_d, N, D)
    return pooled / Tensor(counts[:, :, None, None])


def attention_adjacency(h: Tensor, mq: Tensor, mk: Tensor, heads: int = 1) -> Tensor:
    """Self-attention edge weights: softmax(Q K^T / sqrt(d_head)) per head,
    averaged over heads. ``h`` is (..., N, D); output rows sum to 1.

    ``mq`` and ``mk`` are (D, D); head ``i`` uses its own column block, so the
    parameter count stays 2*D^2 regardless of the head count.
    """
    d = h.shape[-1]
    if mq.shape != (d, d) or mk.shape != (d, d):
        raise ShapeError(f"projection shapes must be ({d}, {d})")
    return attention_weights(h @ mq, h @ mk, heads)


def attention_weights(q, k, heads: int) -> Tensor:
    """Mean over heads of the last-axis softmax of Q_i K_i^T / sqrt(d_head):
    q and k (..., N, D), head i their i-th block of d_head = D / heads
    columns -> (..., N, N); each output row is nonnegative and sums to 1.

    One op over blocks of whole graphs. The heads are strided views, Q's
    (graphs, H, N, d_head) and K^T's (graphs, H, d_head, N), and the head
    gradients are written back through such views of q's and k's layout.
    The op stands for a reshape and transpose of each of q and k, a matmul,
    a divide, a max-subtracted softmax, a sum over H and a divide by H, with
    their arithmetic in their order: both constants are 0-d arrays in the
    scores' dtype, as ``_operands`` makes them, and the softmax runs in place
    on the quotient. Values and gradients therefore equal that composition
    bit for bit. A block keeps only its softmax for backward.
    """
    q, k = T.as_tensor(q), T.as_tensor(k)
    if q.ndim < 2 or k.shape != q.shape:
        raise ShapeError(f"attention_weights needs q and k (..., N, D) of one shape, "
                         f"got {q.shape} and {k.shape}")
    n, d = q.shape[-2:]
    if d % heads != 0:
        raise ContractError(f"width {d} not divisible by heads {heads}")
    count = math.prod(q.shape[:-2])
    split = (count, n, heads, d // heads)
    qh = q.data.reshape(split).transpose(0, 2, 1, 3)
    kh_t = k.data.reshape(split).transpose(0, 2, 3, 1)
    dtype = np.result_type(q.dtype, k.dtype)
    scale = np.asarray(math.sqrt(d // heads), dtype=dtype)
    n_heads = np.asarray(heads, dtype=dtype)
    out = np.empty((count, n, n), dtype)

    def forward(rs):
        p = qh[rs] @ kh_t[rs]
        p /= scale
        T._softmax(p, out=p)
        np.sum(p, axis=-3, out=out[rs])
        out[rs] /= n_heads
        return p

    consume = fftconv.blocked("attention_weights", count, heads * n * n * dtype.itemsize, forward)

    def bwd(g):
        g = g.reshape(count, n, n)
        gq = np.empty(split, dtype) if q.requires_grad else None
        gk = np.empty(split, dtype) if k.requires_grad else None

        def backward(rs, p):
            g_head = (g[rs] / n_heads)[:, None, :, :]
            scratch = g_head * p
            dot = scratch.sum(axis=-1, keepdims=True)
            np.subtract(g_head, dot, out=scratch)
            scratch *= p
            scratch /= scale
            if gq is not None:
                np.matmul(scratch, np.swapaxes(kh_t[rs], -1, -2),
                          out=gq.transpose(0, 2, 1, 3)[rs])
            if gk is not None:
                np.matmul(np.swapaxes(qh[rs], -1, -2), scratch,
                          out=gk.transpose(0, 2, 3, 1)[rs])

        consume(backward)
        if gq is not None:
            q._accum(gq.reshape(q.shape), owned=True)
        if gk is not None:
            k._accum(gk.reshape(k.shape), owned=True)

    return T._record(out.reshape(q.shape[:-1] + (n,)), (q, k), bwd)


def knn_graph_cosine(h: np.ndarray, k: int) -> np.ndarray:
    """Binary union-symmetrized KNN graph from cosine similarity: (..., N, N).

    Entry (i, j) is 1 iff j is among i's top-k most cosine-similar peers
    (self excluded) or vice versa. Ties break toward the lower index;
    zero-norm rows have all similarities defined as 0.

    The k peers are k passes of ``argmax``, each pick then set to -inf. On
    finite input this picks what a stable descending sort's first k would:
    ``argmax`` returns the first occurrence of the row maximum, and the rows
    hold no NaN, so equal similarities go to the lower index.
    """
    h = np.asarray(h)
    n = h.shape[-2]
    if not 1 <= k < n:
        raise ContractError(f"knn_k must satisfy 1 <= k < N={n}, got {k}")
    count = math.prod(h.shape[:-2])
    graphs = h.reshape((count,) + h.shape[-2:])
    out = np.empty((count, n, n))
    idx = np.arange(n)

    def block(rs):
        hb = np.asarray(graphs[rs], dtype=np.float64)
        norms = np.linalg.norm(hb, axis=-1, keepdims=True)
        unit = np.divide(hb, norms, out=np.zeros_like(hb), where=norms > 0)
        sim = unit @ np.swapaxes(unit, -1, -2)
        sim[..., idx, idx] = -np.inf  # exclude self
        w = np.zeros(sim.shape)
        for _ in range(k):
            pick = np.argmax(sim, axis=-1, keepdims=True)
            np.put_along_axis(w, pick, 1.0, axis=-1)
            np.put_along_axis(sim, pick, -np.inf, axis=-1)
        np.maximum(w, np.swapaxes(w, -1, -2), out=out[rs])

    fftconv.blocked("knn_graph_cosine", count, n * n * 8, block)
    return out.reshape(h.shape[:-1] + (n,))


def finalize_adjacency(w_bar: Tensor, w_knn: np.ndarray, epsilon: float, kappa: float) -> Tensor:
    """Mix attention and KNN graphs, prune weak edges, then symmetrize.

    W = eps*W_knn + (1-eps)*W_bar; entries < kappa are zeroed (and receive no
    gradient); finally W <- (W + W^T)/2. Output entries stay in [0, 1].

    One tape op. It repeats the arithmetic of the elementary ops it stands
    for (scale, add, prune, add the transpose, halve) in their order, with
    each constant a 0-d array in ``w_bar``'s dtype as ``_operands`` makes it,
    so values and gradients equal that composition bit for bit. Its backward
    rule: g_mixed = (g/2 + (g/2)^T) * keep, then times (1 - eps).
    """
    if w_bar.shape != np.shape(w_knn):
        raise ShapeError(f"shape mismatch: {w_bar.shape} vs {np.shape(w_knn)}")
    bar_scale = np.asarray(1.0 - epsilon, dtype=w_bar.dtype)
    half = np.asarray(0.5, dtype=w_bar.dtype)
    n = w_bar.shape[-1]
    count = math.prod(w_bar.shape[:-2])
    bar = w_bar.data.reshape(count, n, n)
    knn = np.asarray(w_knn).reshape(count, n, n)
    out = np.empty((count, n, n), w_bar.dtype)

    def forward(rs):
        mixed = np.asarray(knn[rs], dtype=w_bar.dtype) * epsilon
        mixed += bar[rs] * bar_scale
        keep = mixed >= kappa
        mixed[~keep] = 0.0
        np.add(mixed, np.swapaxes(mixed, -1, -2), out=out[rs])
        out[rs] *= half
        return keep

    consume = fftconv.blocked("finalize_adjacency", count,
                              n * n * max(knn.itemsize, w_bar.data.itemsize), forward)

    def bwd(g):
        g = g.reshape(count, n, n)
        g_mixed = np.empty_like(g)

        def backward(rs, keep):
            g_half = g[rs] * half
            np.add(g_half, np.swapaxes(g_half, -1, -2), out=g_mixed[rs])
            g_mixed[rs] *= keep
            g_mixed[rs] *= bar_scale

        consume(backward)
        w_bar._accum(g_mixed.reshape(w_bar.shape), owned=True)

    return T._record(out.reshape(w_bar.shape), (w_bar,), bwd)


def graph_regularizers(h, w) -> Tensor:
    """Smoothness, degree and sparsity per graph: h (..., N, D), W (..., N, N)
    -> (..., 3). With deg W's row sums, g the guarded degrees (DEG_EPS at an
    isolated node, a bump with no gradient) and y = g^{-1/2} h: smoothness
    (sum_i deg_i |y_i|^2 - sum_ij W_ij y_i.y_j) / N^2, the normalized-Laplacian
    Dirichlet energy; degree -mean_i log g_i; sparsity |W|_F^2 / N^2. For output
    gradients (a, b, c) and dY = 2 deg y - (W + W^T) y, h gets a dY g^{-1/2} / N^2
    and W_ij a (|y_i|^2 - y_i.y_j - dY_i.y_i / 2g_i) / N^2 - b / (N g_i) + 2c W_ij / N^2."""
    h, w = T.as_tensor(h), T.as_tensor(w)
    n = w.shape[-1]
    if w.shape[-2:] != (n, n) or h.shape[:-1] != w.shape[:-1]:
        raise ShapeError(f"embeddings {h.shape} and graphs {w.shape} misaligned")
    nn = float(n * n)
    count = math.prod(w.shape[:-2])
    hg = h.data.reshape(count, n, h.shape[-1])
    wg = w.data.reshape(count, n, n)
    dtype = np.result_type(h.dtype, w.dtype)
    out = np.empty((count, 3), dtype)

    def forward(rs):
        wb = wg[rs]
        deg = wb.sum(axis=-1)
        guard = deg + ((deg == 0.0) * DEG_EPS).astype(w.dtype)
        inv_sqrt = guard ** -0.5
        y = hg[rs] * inv_sqrt[..., None]
        sq = (y * y).sum(axis=-1)
        yy = y @ np.swapaxes(y, -1, -2)
        out[rs, 0] = ((deg * sq).sum(axis=-1) - (wb * yy).sum(axis=(-1, -2))) / nn
        out[rs, 1] = np.log(guard).sum(axis=-1) / float(-n)
        out[rs, 2] = (wb * wb).sum(axis=(-1, -2)) / nn
        return deg, guard, inv_sqrt, y, sq, yy

    consume = fftconv.blocked("graph_regularizers", count, n * n * dtype.itemsize, forward)

    def bwd(g):
        g = g.reshape(count, 3)
        gh = np.empty(hg.shape, dtype) if h.requires_grad else None
        gw = np.empty(wg.shape, dtype) if w.requires_grad else None

        def backward(rs, kept):
            deg, guard, inv_sqrt, y, sq, yy = kept
            wb, gb = wg[rs], g[rs]
            a = gb[:, :1] / nn                                   # (b, 1)
            d_y = (deg + deg)[..., None] * y
            d_y -= (wb + np.swapaxes(wb, -1, -2)) @ y
            if gh is not None:
                np.multiply(d_y, (a * inv_sqrt)[..., None], out=gh[rs])
            if gw is not None:
                row = a * (sq - (d_y * y).sum(axis=-1) / (guard + guard)) - gb[:, 1:2] / (guard * n)
                gwb = np.multiply(wb, (gb[:, 2:] * (2.0 / nn))[..., None], out=gw[rs])
                gwb -= yy * a[..., None]
                gwb += row[..., None]

        consume(backward)
        if gh is not None:
            h._accum(gh.reshape(h.shape), owned=True)
        if gw is not None:
            w._accum(gw.reshape(w.shape), owned=True)

    return T._record(out.reshape(w.shape[:-2] + (3,)), (h, w), bwd)


def reg_loss_total(w: Tensor, pooled: Tensor, weights: RegWeights) -> Tensor:
    """Weighted regularizer sum, averaged over dynamic graphs (and batch).

    ``w`` is (..., n_d, N, N) aligned with pooled embeddings (..., n_d, N, D).
    """
    if w.shape[:-2] != pooled.shape[:-2]:
        raise ContractError(f"graphs {w.shape[:-2]} and pooled {pooled.shape[:-2]} misaligned")
    coef = Tensor([weights.alpha, weights.beta, weights.gamma], dtype=w.dtype)
    return (graph_regularizers(pooled, w) * coef).sum(axis=-1).mean()


class GslLayer(Module):
    """Attention-based graph learner over pooled interval embeddings."""

    def __init__(self, d_model: int, cfg: GslConfig, rng: np.random.Generator, dtype=np.float64):
        self.cfg = cfg
        sd = d_model ** -0.5
        self.mq = Tensor(rng.normal(0.0, sd, (d_model, d_model)), requires_grad=True, dtype=dtype)
        self.mk = Tensor(rng.normal(0.0, sd, (d_model, d_model)), requires_grad=True, dtype=dtype)

    def build_graphs(self, pooled: Tensor) -> Tensor:
        """Pooled embeddings (..., n_d, N, D) -> final adjacencies (..., n_d, N, N)."""
        w_bar = attention_adjacency(pooled, self.mq, self.mk, self.cfg.heads)
        w_knn = knn_graph_cosine(pooled.data, self.cfg.knn_k)
        return finalize_adjacency(w_bar, w_knn, self.cfg.epsilon, self.cfg.kappa)


def write_adjacency_csv(matrix: np.ndarray, path) -> None:
    """Row-major N x N CSV with 6 decimal places."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ShapeError(f"expected a square matrix, got {matrix.shape}")
    with open(path, "w") as fh:
        for row in matrix:
            fh.write(",".join(f"{v:.6f}" for v in row) + "\n")
