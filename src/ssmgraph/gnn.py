"""Weighted GIN message passing, temporal/graph readout, and the linear
classification head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ContractError, ShapeError, Tensor

GRAPH_POOLS = ("mean", "max", "sum")
TEMPORAL_POOLS = ("mean", "max")


@dataclass
class PoolSpec:
    graph_pool: str = "max"
    temporal_pool: str = "mean"

    def __post_init__(self):
        if self.graph_pool not in GRAPH_POOLS:
            raise ContractError(f"graph_pool must be one of {GRAPH_POOLS}")
        if self.temporal_pool not in TEMPORAL_POOLS:
            raise ContractError(f"temporal_pool must be one of {TEMPORAL_POOLS}")


class GinLayer:
    """h'_i = MLP((1 + eps) * h_i + sum_j W_ij h_j), with a D->D->D ReLU MLP.

    Edge weights multiply neighbor features directly (no degree
    normalization); the diagonal of W contributes through the sum term.
    """

    def __init__(self, d_model: int, rng: np.random.Generator, dropout: float = 0.0,
                 dtype=np.float64):
        self.d_model = d_model
        self.dropout = dropout
        sd = d_model ** -0.5
        self.w1 = Tensor(rng.normal(0.0, sd, (d_model, d_model)), requires_grad=True, dtype=dtype)
        self.b1 = Tensor(np.zeros(d_model), requires_grad=True, dtype=dtype)
        self.w2 = Tensor(rng.normal(0.0, sd, (d_model, d_model)), requires_grad=True, dtype=dtype)
        self.b2 = Tensor(np.zeros(d_model), requires_grad=True, dtype=dtype)
        self.eps_gin = Tensor(np.zeros(()), requires_grad=True, dtype=dtype)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        names = ["w1", "b1", "w2", "b2", "eps_gin"]
        return [(prefix + n, getattr(self, n)) for n in names]

    def forward(self, h: Tensor, w: Tensor, train: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        if h.shape[-1] != self.d_model:
            raise ShapeError(f"feature width {h.shape[-1]} != {self.d_model}")
        if w.shape[-1] != w.shape[-2] or w.shape[-1] != h.shape[-2]:
            raise ShapeError(f"adjacency {w.shape} does not match features {h.shape}")
        mixed = h * (self.eps_gin + 1.0) + w @ h
        hidden = T.relu(mixed @ self.w1 + self.b1)
        hidden = T.dropout(hidden, self.dropout, rng, train)
        return hidden @ self.w2 + self.b2


def _pool(x: Tensor, kind: str, axis: int) -> Tensor:
    if kind == "mean":
        return x.mean(axis=axis)
    if kind == "max":
        return x.max(axis=axis)
    if kind == "sum":
        return x.sum(axis=axis)
    raise ContractError(f"unknown pool kind {kind!r}")


def temporal_graph_readout(z: Tensor, spec: PoolSpec) -> Tensor:
    """Pool per-interval node embeddings (..., n_d, N, D) down to one vector
    per record: temporal pooling over n_d, then graph pooling over N,
    giving (..., D).
    """
    if z.ndim < 3:
        raise ShapeError(f"expected (..., n_d, N, D), got {z.shape}")
    pooled_t = _pool(z, spec.temporal_pool, axis=-3)
    return _pool(pooled_t, spec.graph_pool, axis=-2)


class ClassifierHead:
    """Affine map D -> C; losses own the link function, so no activation."""

    def __init__(self, d_model: int, n_classes: int, rng: np.random.Generator, dtype=np.float64):
        if n_classes < 1:
            raise ContractError(f"n_classes must be >= 1, got {n_classes}")
        sd = d_model ** -0.5
        self.w = Tensor(rng.normal(0.0, sd, (d_model, n_classes)), requires_grad=True, dtype=dtype)
        self.b = Tensor(np.zeros(n_classes), requires_grad=True, dtype=dtype)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        return [(prefix + "w", self.w), (prefix + "b", self.b)]

    def forward(self, pooled: Tensor) -> Tensor:
        return pooled @ self.w + self.b
