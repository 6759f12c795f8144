import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as sfft

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ssmgraph.tensor as tensor_mod  # noqa: E402
from ssmgraph.fftconv import _next_pow2  # noqa: E402
from ssmgraph.graphlearn import DEG_EPS  # noqa: E402
from ssmgraph.s4 import _bilinear  # noqa: E402
from ssmgraph.tensor import ShapeError, Tensor, _record, _sigmoid  # noqa: E402


@pytest.fixture(autouse=True)
def finite_checks():
    """Every forward op must produce finite values during tests."""
    tensor_mod.CHECK_FINITE = True
    yield
    tensor_mod.CHECK_FINITE = False


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def conv_direct(signal: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """O(L^2) causal convolution: the independent oracle for the FFT path."""
    signal = np.asarray(signal, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    length = signal.shape[-1]
    out = np.zeros_like(signal)
    for t in range(length):
        for s in range(t + 1):
            out[..., t] += kernel[..., s] * signal[..., t - s]
    return out


def ssm_scan_recurrent(core, u: np.ndarray) -> np.ndarray:
    """Step-by-step recurrence x_t = a_bar*x + b_bar*u_t, y_t = Re(c x_t) + d_skip*u_t.

    ``u`` may be (L,), applied to every feature, or (d, L). Returns (d, L).
    Ground-truth oracle for the kernel/convolution path; values only.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim == 1:
        u = np.broadcast_to(u, (core.d, u.shape[0]))
    if u.shape[0] != core.d:
        raise ShapeError(f"scan input rows {u.shape[0]} != d={core.d}")
    length = u.shape[1]
    _, _, c, _, _, a_bar, b_bar = _bilinear(core)
    d_skip = core.d_skip.data.astype(np.float64)
    y = np.zeros((core.d, length))
    x = np.zeros((core.d, core.p), dtype=np.complex128)
    for t in range(length):
        x = a_bar * x + b_bar * u[:, t:t + 1]
        y[:, t] = (c * x).sum(axis=1).real + d_skip * u[:, t]
    return y


# -- the S4 block as separate ops: the oracle of fftconv.conv1d_fft ----------
# LayerNorm, FFT convolution and GLU-with-dropout as the three tape ops the
# block was made of, each over the whole array. The fused op must equal their
# composition bit for bit in its outputs and input gradient, and in every
# gradient when the activation fits in one row block.


def layer_norm_reference(a, gamma, beta, eps: float = 1e-5) -> Tensor:
    d = a.shape[-1]
    mu = a.data.mean(axis=-1, keepdims=True)
    xhat = a.data - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out_data = xhat * gamma.data
    out_data += beta.data

    def bwd(g):
        scratch = g * xhat
        if gamma.requires_grad:
            gamma._accum(scratch.reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            beta._accum(g.reshape(-1, d).sum(axis=0))
        if a.requires_grad:
            gx = g * gamma.data
            mean_gx_xhat = np.multiply(gx, xhat, out=scratch).mean(axis=-1, keepdims=True)
            gx -= gx.mean(axis=-1, keepdims=True)
            gx -= np.multiply(xhat, mean_gx_xhat, out=scratch)
            gx *= inv
            a._accum(gx, owned=True)

    return _record(out_data, (a, gamma, beta), bwd)


def conv_reference(x, k, r=None) -> Tensor:
    """Causal plus optional anti-causal convolution along axis -2, kernels
    (L, D), the kernel gradient spectrum summed one leading row at a time."""
    kernels = (k,) if r is None else (k, r)
    length = x.shape[-2]
    n = _next_pow2(2 * length - 1)
    x_spec = sfft.rfft(x.data, n=n, axis=-2)
    spec = sfft.rfft(k.data, n=n, axis=-2)
    if r is not None:
        spec += np.conj(sfft.rfft(r.data, n=n, axis=-2))

    def inverse(prod, dtype=None):
        return np.ascontiguousarray(sfft.irfft(prod, n=n, axis=-2)[..., :length, :], dtype=dtype)

    out_data = inverse(x_spec * spec, x.dtype)

    def bwd(g):
        g_spec = sfft.rfft(g, n=n, axis=-2)
        if any(t.requires_grad for t in kernels):
            total = None
            for idx in np.ndindex(g_spec.shape[:-2]):
                term = np.conj(x_spec[idx]) * g_spec[idx]
                total = term if total is None else np.add(total, term, out=total)
            if k.requires_grad:
                k._accum(inverse(total), owned=True)
            if r is not None and r.requires_grad:
                r._accum(inverse(np.conj(total, out=total)), owned=True)
        if x.requires_grad:
            g_spec *= np.conj(spec)
            x._accum(inverse(g_spec), owned=True)

    return _record(out_data, (x,) + kernels, bwd)


def glu_reference(y, w, b, p, rng, train) -> Tensor:
    d = w.shape[1] // 2
    rows = y.data.reshape(-1, w.shape[0])
    h = rows @ w.data
    h += b.data
    left, gate = h[:, :d], h[:, d:]
    _sigmoid(gate, out=gate)
    out_data = left * gate
    keep = None
    if train and p > 0.0:
        keep = rng.random(out_data.shape, dtype=out_data.dtype) >= p
        scale = 1.0 / (1.0 - p)
        out_data *= scale
        out_data *= keep

    def bwd(g):
        gh = np.empty_like(h)
        g_left, g_gate = gh[:, :d], gh[:, d:]
        g = g.reshape(-1, d)
        if keep is not None:
            g = np.multiply(g, keep, out=g_gate)
            g *= scale
        np.multiply(g, gate, out=g_left)
        np.subtract(1.0, gate, out=g_gate)
        g_gate *= g_left
        g_gate *= left
        if y.requires_grad:
            y._accum((gh @ w.data.T).reshape(y.shape), owned=True)
        if w.requires_grad:
            w._accum(rows.T @ gh, owned=True)
        if b.requires_grad:
            b._accum(gh.sum(axis=0), owned=True)

    return _record(out_data.reshape(y.shape[:-1] + (d,)), (y, w, b), bwd)


def block_reference(x, k, r, gamma, beta, w, b, mask=None, p=0.0, rng=None,
                    train=False) -> Tensor:
    """x + dropout(glu(conv(LN(x) * mask))) as four or five whole-array ops."""
    z = layer_norm_reference(x, gamma, beta)
    if mask is not None:
        z = z * mask
    return x + glu_reference(conv_reference(z, k, r), w, b, p, rng, train)


def block_params(rng, d, dtype=np.float64, requires_grad=True) -> dict:
    """LayerNorm and GLU parameters of a width-``d`` block, away from their
    initial values so no term vanishes."""
    def leaf(values):
        return Tensor(values, requires_grad=requires_grad, dtype=dtype)
    return {"gamma": leaf(1.0 + 0.3 * rng.normal(size=d)),
            "beta": leaf(0.3 * rng.normal(size=d)),
            "w": leaf(rng.normal(size=(d, 2 * d)) * d ** -0.5),
            "b": leaf(0.3 * rng.normal(size=2 * d))}


def block_direct(x, k, k_rev, params, mask=None) -> np.ndarray:
    """Values of x + glu(conv(LN(x) * mask)) in float64 with the O(L^2)
    two-sided sum as the convolution: the independent oracle of the block."""
    gamma, beta, w, b = (params[name].data for name in ("gamma", "beta", "w", "b"))
    xc = x - x.mean(axis=-1, keepdims=True)
    z = xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5) * gamma + beta
    if mask is not None:
        z = z * mask
    length, d = x.shape[-2:]
    y = np.zeros(z.shape)
    for t in range(length):
        for s in range(t + 1):
            y[..., t, :] += k[s] * z[..., t - s, :]
        if k_rev is not None:
            for s in range(length - t):
                y[..., t, :] += k_rev[s] * z[..., t + s, :]
    h = y @ w + b
    return x + h[..., :d] / (1.0 + np.exp(-h[..., d:]))


def graph_regularizers_reference(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Smoothness, degree and sparsity per graph in float64 from their
    formulas, the oracle of ``graphlearn.graph_regularizers``:
    tr(h^T L_hat h) / N^2 with L_hat = G^{-1/2} (D - W) G^{-1/2}, D the row
    sums of W and G the same with DEG_EPS at isolated nodes; -mean(log G);
    sum(W^2) / N^2."""
    h, w = np.asarray(h, dtype=np.float64), np.asarray(w, dtype=np.float64)
    n = w.shape[-1]
    deg = w.sum(axis=-1)
    guarded = np.where(deg == 0.0, DEG_EPS, deg)
    s = guarded ** -0.5
    l_hat = s[..., :, None] * (deg[..., None] * np.eye(n) - w) * s[..., None, :]
    smooth = np.einsum("...id,...ij,...jd->...", h, l_hat, h) / n ** 2
    return np.stack([smooth, -np.log(guarded).mean(axis=-1), (w * w).sum(axis=(-1, -2)) / n ** 2],
                    axis=-1)
