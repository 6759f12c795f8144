"""Finite-difference verification of tape gradients."""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .tensor import ContractError, Tensor


def relative_error(analytic: float, numeric: float, floor: float = 1e-8) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


def numerical_gradient(fn: Callable[[], Tensor], leaf: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``fn()`` w.r.t. every leaf coordinate."""
    grad = np.zeros_like(leaf.data)
    flat = leaf.data.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(fn().data)
        flat[i] = orig - h
        f_minus = float(fn().data)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def backward_and_gradcheck(fn: Callable[[], Tensor], leaves: Mapping[str, Tensor],
                           h: float = 1e-5):
    """Compare tape gradients of ``fn()`` against central differences.

    ``fn`` must rebuild a scalar loss from the leaves' current values so it
    can be re-evaluated under perturbation. Returns ``(max_rel_err, per_leaf)``
    where ``per_leaf`` maps each leaf name to its worst coordinate error.
    """
    for leaf in leaves.values():
        leaf.zero_grad()
    loss = fn()
    if loss.shape != ():
        raise ContractError(f"gradcheck loss must be scalar, got shape {loss.shape}")
    loss.backward()

    per_leaf: dict[str, float] = {}
    worst = 0.0
    for name, leaf in leaves.items():
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        numeric = numerical_gradient(fn, leaf, h)
        errs = [relative_error(a, n) for a, n in zip(analytic.ravel(), numeric.ravel())]
        err = max(errs) if errs else 0.0
        per_leaf[name] = err
        worst = max(worst, err)
    return worst, per_leaf
