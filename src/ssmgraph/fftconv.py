"""Causal 1-D convolution via FFT, differentiable w.r.t. signal and kernel.

Complex values stay inside this module as (re, im) pairs / numpy internals;
the tensor API only ever sees real arrays.

The backward rule reuses the forward spectra: with zero-padding to
n >= 2L-1, the needed correlations are circular, so
corr(g, w)[s] = irfft(rfft(g) * conj(rfft(w)))[s] exactly on s in [0, L).
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft

from .tensor import Tensor, ShapeError, _record, _unbroadcast, as_tensor

# scipy.fft splits work across rows, so results do not depend on the count
FFT_WORKERS = -1


def _next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def conv1d_fft(signal, kernel) -> Tensor:
    """Causal convolution y[t] = sum_{s<=t} kernel[s] * signal[t-s].

    Both operands share the last-axis length L; leading axes broadcast.
    Computed by zero-padding to at least 2L-1 and multiplying real FFTs,
    which makes the circular convolution equal the linear one on [0, L).
    """
    x, k = as_tensor(signal), as_tensor(kernel)
    if x.shape[-1] != k.shape[-1]:
        raise ShapeError(f"length mismatch: signal L={x.shape[-1]}, kernel L={k.shape[-1]}")
    length = x.shape[-1]
    n = _next_pow2(2 * length - 1)
    x_spec = sfft.rfft(x.data, n=n, axis=-1, workers=FFT_WORKERS)
    k_spec = sfft.rfft(k.data, n=n, axis=-1, workers=FFT_WORKERS)
    out_data = sfft.irfft(x_spec * k_spec, n=n, axis=-1, workers=FFT_WORKERS)[..., :length]
    out_data = np.ascontiguousarray(out_data, dtype=x.data.dtype)

    def bwd(g):
        g_spec = sfft.rfft(g, n=n, axis=-1, workers=FFT_WORKERS)
        if x.requires_grad:
            gx = sfft.irfft(g_spec * np.conj(k_spec), n=n, axis=-1,
                            workers=FFT_WORKERS)[..., :length]
            x._accum(_unbroadcast(np.ascontiguousarray(gx), x.shape), owned=True)
        if k.requires_grad:
            prod = g_spec * np.conj(x_spec)
            # collapse broadcast batch axes in the frequency domain: one
            # inverse transform instead of one per batch row
            extra = prod.ndim - k.ndim
            if extra > 0:
                prod = prod.sum(axis=tuple(range(extra)))
            axes = tuple(i for i, dim in enumerate(k.shape[:-1]) if dim == 1
                         and prod.shape[i] != 1)
            if axes:
                prod = prod.sum(axis=axes, keepdims=True)
            gk = sfft.irfft(prod, n=n, axis=-1, workers=FFT_WORKERS)[..., :length]
            k._accum(np.ascontiguousarray(gk), owned=True)

    return _record(out_data, (x, k), bwd)
