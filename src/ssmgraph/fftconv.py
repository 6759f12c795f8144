"""Causal and two-sided 1-D convolution via FFT along axis -2 (time),
differentiable w.r.t. signal and kernels; complex values never leave it.

With zero-padding to n >= 2L-1 every circular correlation is the linear
one on [0, L): corr(g, w)[s] = irfft(rfft(g) * conj(rfft(w)))[s]. So the
backward rule reuses the forward spectra, and a reverse-time kernel enters
the forward product as a conjugate spectrum, in the same transforms.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft

from .tensor import Tensor, ShapeError, _record, _unbroadcast, as_tensor

# scipy.fft splits work across rows, so results do not depend on the count
FFT_WORKERS = -1


def _next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def _kernel_spectrum(g_spec: np.ndarray, x_spec: np.ndarray, shape) -> np.ndarray:
    """``_unbroadcast(conj(x_spec) * g_spec, shape)`` formed one leading row at
    a time, never holding conj(x_spec) or the full product. The operand order
    is the one numpy uses for ``g_spec * np.conj(x_spec)`` on large arrays."""
    x_spec = np.broadcast_to(x_spec, g_spec.shape)
    total = None
    for idx in np.ndindex(g_spec.shape[:g_spec.ndim - len(shape)]):
        term = np.conj(x_spec[idx]) * g_spec[idx]
        total = term if total is None else np.add(total, term, out=total)
    return _unbroadcast(total, shape)


def conv1d_fft(signal, kernel, kernel_rev=None) -> Tensor:
    """y[t] = sum_{s<=t} kernel[s] x[t-s] + sum_{s<L-t} kernel_rev[s] x[t+s].

    Time is axis -2 of every operand, with one length L; the other axes
    broadcast, and the optional ``kernel_rev`` has ``kernel``'s shape.
    """
    x, k = as_tensor(signal), as_tensor(kernel)
    r = None if kernel_rev is None else as_tensor(kernel_rev)
    kernels = (k,) if r is None else (k, r)
    if x.ndim < 2 or k.ndim < 2:
        raise ShapeError("conv1d_fft operands need time on axis -2 and channels on -1")
    length = x.shape[-2]
    if k.shape[-2] != length:
        raise ShapeError(f"length mismatch: signal L={length}, kernel L={k.shape[-2]}")
    if r is not None and r.shape != k.shape:
        raise ShapeError(f"kernel_rev shape {r.shape} != kernel shape {k.shape}")
    n = _next_pow2(2 * length - 1)
    x_spec = sfft.rfft(x.data, n=n, axis=-2, workers=FFT_WORKERS)
    spec = sfft.rfft(k.data, n=n, axis=-2, workers=FFT_WORKERS)
    if r is not None:
        spec += np.conj(sfft.rfft(r.data, n=n, axis=-2, workers=FFT_WORKERS))

    def inverse(prod, dtype=None):
        return np.ascontiguousarray(
            sfft.irfft(prod, n=n, axis=-2, workers=FFT_WORKERS)[..., :length, :], dtype=dtype)

    out_data = inverse(x_spec * spec, x.dtype)

    def bwd(g):
        g_spec = sfft.rfft(g, n=n, axis=-2, workers=FFT_WORKERS)
        if any(w.requires_grad for w in kernels):
            prod = _kernel_spectrum(g_spec, x_spec, spec.shape)
            if k.requires_grad:
                k._accum(inverse(prod), owned=True)
            if r is not None and r.requires_grad:
                r._accum(inverse(np.conj(prod, out=prod)), owned=True)
        if x.requires_grad:
            g_spec *= np.conj(spec)
            x._accum(_unbroadcast(inverse(g_spec), x.shape), owned=True)

    return _record(out_data, (x,) + kernels, bwd)
