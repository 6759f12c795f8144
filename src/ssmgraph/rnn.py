"""Gated recurrent layer, the sequence-model ablation of the S4 block.

``GruLayer`` plugs into the same per-channel encoder stack as ``S4Layer``.
The whole recurrence is one fused tape op: the forward pass runs a numpy
loop over time and caches gate activations, and the backward rule replays
them in reverse (truncated nowhere, full BPTT).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Module, ShapeError, Tensor, _record


def gru_sequence(x: Tensor, w_ih: Tensor, w_hh: Tensor, b_ih: Tensor, b_hh: Tensor) -> Tensor:
    """Run a GRU over (B, T, In) inputs, returning all hidden states (B, T, D).

    Gates follow the two-bias convention:
        r = sigmoid(gi_r + gh_r), z = sigmoid(gi_z + gh_z)
        n = tanh(gi_n + r * gh_n), h' = (1 - z) * n + z * h
    where gi = x W_ih + b_ih and gh = h W_hh + b_hh, each split in (r, z, n).
    """
    if x.ndim != 3:
        raise ShapeError(f"expected (B, T, In), got {x.shape}")
    d3 = w_ih.shape[1]
    if d3 % 3 != 0 or w_hh.shape != (d3 // 3, d3) or b_ih.shape != (d3,) or b_hh.shape != (d3,):
        raise ShapeError("inconsistent GRU parameter shapes")
    d = d3 // 3
    batch, t_len, _ = x.shape

    xw = x.data @ w_ih.data + b_ih.data                       # (B, T, 3D)
    h_prev = np.zeros((batch, d), dtype=x.data.dtype)
    hs = np.empty((t_len, batch, d), dtype=x.data.dtype)      # h_t
    rs = np.empty_like(hs)
    zs = np.empty_like(hs)
    ns = np.empty_like(hs)
    ghn = np.empty_like(hs)                                   # gh_n (needed for dr)
    for t in range(t_len):
        gh = h_prev @ w_hh.data + b_hh.data
        gi = xw[:, t]
        r = T._sigmoid(gi[:, :d] + gh[:, :d])
        z = T._sigmoid(gi[:, d:2 * d] + gh[:, d:2 * d])
        n = np.tanh(gi[:, 2 * d:] + r * gh[:, 2 * d:])
        h_prev = (1.0 - z) * n + z * h_prev
        hs[t], rs[t], zs[t], ns[t], ghn[t] = h_prev, r, z, n, gh[:, 2 * d:]
    out_data = np.ascontiguousarray(hs.transpose(1, 0, 2))    # (B, T, D)

    def bwd(g):
        dx = np.zeros_like(x.data) if x.requires_grad else None
        dw_ih = np.zeros_like(w_ih.data)
        dw_hh = np.zeros_like(w_hh.data)
        db_ih = np.zeros_like(b_ih.data)
        db_hh = np.zeros_like(b_hh.data)
        dh = np.zeros((batch, d), dtype=x.data.dtype)
        g_t = np.ascontiguousarray(g.transpose(1, 0, 2))
        dgi = np.empty((batch, d3), dtype=x.data.dtype)
        dgh = np.empty_like(dgi)
        for t in range(t_len - 1, -1, -1):
            h_before = hs[t - 1] if t > 0 else np.zeros((batch, d), dtype=x.data.dtype)
            dh = dh + g_t[t]
            r, z, n = rs[t], zs[t], ns[t]
            dz = dh * (h_before - n)
            dn_pre = dh * (1.0 - z) * (1.0 - n * n)
            dr = dn_pre * ghn[t]
            dr_pre = dr * r * (1.0 - r)
            dz_pre = dz * z * (1.0 - z)
            dgi[:, :d] = dr_pre
            dgi[:, d:2 * d] = dz_pre
            dgi[:, 2 * d:] = dn_pre
            dgh[:, :d] = dr_pre
            dgh[:, d:2 * d] = dz_pre
            dgh[:, 2 * d:] = dn_pre * r
            if dx is not None:
                dx[:, t] = dgi @ w_ih.data.T
            dw_ih += x.data[:, t].T @ dgi
            db_ih += dgi.sum(axis=0)
            dw_hh += h_before.T @ dgh
            db_hh += dgh.sum(axis=0)
            dh = dh * z + dgh @ w_hh.data.T
        if x.requires_grad:
            x._accum(dx, owned=True)
        if w_ih.requires_grad:
            w_ih._accum(dw_ih, owned=True)
        if w_hh.requires_grad:
            w_hh._accum(dw_hh, owned=True)
        if b_ih.requires_grad:
            b_ih._accum(db_ih, owned=True)
        if b_hh.requires_grad:
            b_hh._accum(db_hh, owned=True)

    return _record(out_data, (x, w_ih, w_hh, b_ih, b_hh), bwd)


class GruLayer(Module):
    """GRU over (B, T, In) followed by dropout on its hidden states. It ignores
    ``mask``: the recurrence is causal and padding follows a record's end."""

    def __init__(self, d_in: int, d_model: int, rng: np.random.Generator,
                 dropout: float = 0.0, dtype=np.float64):
        self.dropout = dropout
        sd = d_model ** -0.5
        self.w_ih = Tensor(rng.normal(0.0, sd, (d_in, 3 * d_model)), requires_grad=True, dtype=dtype)
        self.w_hh = Tensor(rng.normal(0.0, sd, (d_model, 3 * d_model)), requires_grad=True, dtype=dtype)
        self.b_ih = Tensor(np.zeros(3 * d_model), requires_grad=True, dtype=dtype)
        self.b_hh = Tensor(np.zeros(3 * d_model), requires_grad=True, dtype=dtype)

    def forward(self, x: Tensor, train: bool = False,
                rng: np.random.Generator | None = None, mask: Tensor | None = None) -> Tensor:
        h = gru_sequence(x, self.w_ih, self.w_hh, self.b_ih, self.b_hh)
        return T.dropout(h, self.dropout, rng, train)
