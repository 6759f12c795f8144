"""State-space sequence layers: diagonal SSM cores, bilinear
discretization, convolution kernels, and the pre-norm S4 block.

A core holds the continuous-time parameters (A, B, C, D, dt) for a bank of
``d`` independent scalar-input/scalar-output systems, each with ``p`` complex
states. Re(A) is stored in log space so the continuous system stays stable
under unconstrained optimization, which keeps |a_bar| < 1 after the bilinear
map. The discrete system can run two ways:

* the impulse response as a kernel + FFT convolution (the trainable path):
  ``materialize_kernel`` is one tape op whose tap 0 carries the skip term
  D, as in S4D (Gu et al., arXiv 2206.11893), or
* a step-by-step recurrent scan (the value-level oracle path).

The kernel's Vandermonde powers a_bar^t are computed the way numpy's
``a_bar ** t`` computes them, so they are bit-identical to it. numpy raises
a complex number to an integer power below 100 by repeated squaring, and
from 100 on calls libm ``cpow``, which is exp(t * log(a_bar)). The split at
t = 100 is therefore numpy's rule, not a tuning constant; the kernel only
takes the complex log once per state instead of once per tap.

A bidirectional layer runs a second core over the reversed sequence, so its
skip term is the sum of both cores' D. Complex numbers appear only inside
numpy; every tensor here is real.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .fftconv import conv1d_fft
from .tensor import ContractError, ShapeError, Tensor, _record


DT_MIN_DEFAULT = 1e-3
DT_MAX_DEFAULT = 1e-1


class SsmCore:
    """Bank of ``d`` diagonal state-space systems with ``p`` states each."""

    def __init__(self, d: int, p: int, rng: np.random.Generator,
                 dt_min: float = DT_MIN_DEFAULT, dt_max: float = DT_MAX_DEFAULT,
                 dtype=np.float64):
        # S4D-Lin style diagonal: lam_n = -1/2 + i*pi*n, b = 1, c random.
        self.d = d
        self.p = p
        self.log_neg_re = Tensor(np.full((d, p), np.log(0.5)), requires_grad=True, dtype=dtype)
        self.lam_im = Tensor(np.tile(np.pi * np.arange(p), (d, 1)), requires_grad=True, dtype=dtype)
        self.b_re = Tensor(np.ones((d, p)), requires_grad=True, dtype=dtype)
        self.b_im = Tensor(np.zeros((d, p)), requires_grad=True, dtype=dtype)
        sd = 2.0 ** -0.5
        self.c_re = Tensor(rng.normal(0.0, sd, (d, p)), requires_grad=True, dtype=dtype)
        self.c_im = Tensor(rng.normal(0.0, sd, (d, p)), requires_grad=True, dtype=dtype)
        self.log_dt = Tensor(rng.uniform(np.log(dt_min), np.log(dt_max), (d,)),
                             requires_grad=True, dtype=dtype)
        self.d_skip = Tensor(rng.normal(0.0, 1.0, (d,)), requires_grad=True, dtype=dtype)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        names = ["log_neg_re", "lam_im", "b_re", "b_im", "c_re", "c_im", "log_dt", "d_skip"]
        return [(prefix + n, getattr(self, n)) for n in names]

    def assert_stable(self) -> None:
        """Discrete-time stability |a_bar| < 1 must hold for every state."""
        a_bar, _ = discretize_bilinear(self)
        worst = np.abs(a_bar).max()
        if worst >= 1.0:
            raise T.NumericError(f"unstable core: max |a_bar| = {worst:.6f}")


def _bilinear(core: SsmCore):
    """Complex128 bilinear (Tustin) map of a diagonal core to discrete time.

    a_bar = (1 + dt*lam/2) / den,  b_bar = dt*b / den,  den = 1 - dt*lam/2,
    with lam = -exp(log_neg_re) + i*lam_im and dt = exp(log_dt), both
    exponentials taken in the parameters' dtype. Returns
    (lam, b, c, dt, den, a_bar, b_bar), dt shaped (d, 1).
    """
    lam = (-np.exp(core.log_neg_re.data)).astype(np.complex128) + 1j * core.lam_im.data
    b = core.b_re.data.astype(np.complex128) + 1j * core.b_im.data
    c = core.c_re.data.astype(np.complex128) + 1j * core.c_im.data
    dt = np.exp(core.log_dt.data).astype(np.float64)[:, None]
    u = dt * lam / 2.0
    den = 1.0 - u
    return lam, b, c, dt, den, (1.0 + u) / den, dt * b / den


def discretize_bilinear(core: SsmCore) -> tuple[np.ndarray, np.ndarray]:
    """(a_bar, b_bar) of the core; Re(lam) < 0 gives |a_bar| < 1."""
    return _bilinear(core)[5:]


# numpy's complex ** takes repeated squaring below this integer exponent
# and libm cpow(a, n) = cexp(n * clog(a)) from it on.
_NUMPY_SQUARING_LIMIT = 100


def _vandermonde(a_bar: np.ndarray, length: int) -> np.ndarray:
    """(d, p, L) complex128 powers a_bar^t for t < L, bit-identical to
    ``a_bar[:, :, None] ** np.arange(length)``.

    Taps below 100 are numpy's own ``**``; the rest are cpow's
    exp(t * log(a_bar)) with the log hoisted out of the tap loop, written
    in place. t * log(a_bar) is taken on the (re, im) float pairs, which
    gives cpow's values; a complex multiply would make 0 * -inf = nan for
    a zero state, whose log is -inf and whose powers are exp(-inf) = 0.
    """
    d, p = a_bar.shape
    pairs = np.empty((d, p, length, 2))
    powers = pairs.view(np.complex128)[..., 0]
    head = min(length, _NUMPY_SQUARING_LIMIT)
    np.power(a_bar[:, :, None], np.arange(head), out=powers[..., :head])
    if length > head:
        with np.errstate(divide="ignore"):                    # log(0) = -inf
            log_a = np.log(a_bar)
        np.multiply(log_a.view(np.float64).reshape(d, p, 1, 2),
                    np.arange(head, length, dtype=np.float64)[:, None],
                    out=pairs[:, :, head:, :])
        np.exp(powers[..., head:], out=powers[..., head:])
    return powers


def materialize_kernel(core: SsmCore, length: int) -> Tensor:
    """The core's (d, L) impulse response as one differentiable op:
    K[:, t] = Re(sum_p c * a_bar^t * b_bar), plus d_skip at t = 0.

    The powers a_bar^t are repeated squaring for t < 100 and
    exp(t * log(a_bar)) from t = 100 on. That is numpy's own split for
    ``**``, so the kernel equals one built with ``a_bar ** np.arange(L)``
    bit for bit.

    The backward rule pushes the upstream gradient through the bilinear
    map analytically: every map is holomorphic in each complex parameter
    z, so for f = Re(g(z)) the (re, im) gradients are (Re(g'), -Im(g')).
    It then applies the chain rule through lam_re = -exp(log_neg_re) and
    dt = exp(log_dt), whose derivatives are lam_re and dt, in the
    parameters' dtype.
    """
    if length < 1:
        raise ContractError(f"kernel length must be >= 1, got {length}")
    params = core.named_parameters()
    lam, b, c, step, den, a_bar, b_bar = _bilinear(core)
    w = c * b_bar
    powers = _vandermonde(a_bar, length)                      # (d, p, L)
    dtype = core.d_skip.dtype
    out_data = np.einsum("dp,dpl->dl", w, powers).real.astype(dtype)
    out_data[:, 0] += core.d_skip.data

    def bwd(g):
        g64 = g.astype(np.float64)
        s = np.einsum("dl,dpl->dp", g64, powers)              # sum_t g a_bar^t
        tpow = np.zeros_like(powers)
        if length > 1:
            tpow[:, :, 1:] = powers[:, :, :-1] * np.arange(1, length)
        t_mom = np.einsum("dl,dpl->dp", g64, tpow)            # sum_t g t a_bar^(t-1)

        den2 = den * den
        gc = b_bar * s
        gb = (c * step / den) * s
        db_dlam = step * step * b / (2.0 * den2)
        da_dlam = step / den2
        gl = (c * db_dlam) * s + (w * da_dlam) * t_mom
        gd = (c * b / den2) * s + (w * lam / den2) * t_mom
        grads = {
            "log_neg_re": gl.real.astype(dtype) * lam.real.astype(dtype),
            "lam_im": (-gl.imag).astype(dtype),
            "b_re": gb.real.astype(dtype), "b_im": (-gb.imag).astype(dtype),
            "c_re": gc.real.astype(dtype), "c_im": (-gc.imag).astype(dtype),
            "log_dt": gd.real.sum(axis=1).astype(dtype) * step[:, 0].astype(dtype),
            "d_skip": g[:, 0],
        }
        for name, param in params:
            if param.requires_grad:
                param._accum(grads[name])

    return _record(out_data, [p for _, p in params], bwd)


def ssm_scan_recurrent(core: SsmCore, u: np.ndarray) -> np.ndarray:
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


class S4Layer:
    """Pre-norm S4 block: LN -> SSM conv (+skip) -> GLU gate -> dropout -> residual.

    Bidirectional mode adds a second core run over the time-reversed sequence,
    so the skip term is ``core.d_skip + core_rev.d_skip``; both directions
    share the GLU output projection. A timestep ``mask`` zeroes padded steps
    of the normalized signal before both convolutions, so the reverse
    direction never reads past a record's true length.
    """

    def __init__(self, d_model: int, p_states: int, rng: np.random.Generator,
                 bidirectional: bool = False, dropout: float = 0.0, dtype=np.float64,
                 dt_min: float = DT_MIN_DEFAULT, dt_max: float = DT_MAX_DEFAULT):
        self.d_model = d_model
        self.dropout = dropout
        self.bidirectional = bidirectional
        self.core = SsmCore(d_model, p_states, rng, dt_min, dt_max, dtype)
        self.core_rev = (SsmCore(d_model, p_states, rng, dt_min, dt_max, dtype)
                         if bidirectional else None)
        sd = d_model ** -0.5
        self.w_glu = Tensor(rng.normal(0.0, sd, (d_model, 2 * d_model)), requires_grad=True, dtype=dtype)
        self.b_glu = Tensor(np.zeros(2 * d_model), requires_grad=True, dtype=dtype)
        self.ln_gamma = Tensor(np.ones(d_model), requires_grad=True, dtype=dtype)
        self.ln_beta = Tensor(np.zeros(d_model), requires_grad=True, dtype=dtype)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = self.core.named_parameters(prefix + "core.")
        if self.core_rev is not None:
            out += self.core_rev.named_parameters(prefix + "core_rev.")
        out += [(prefix + "w_glu", self.w_glu), (prefix + "b_glu", self.b_glu),
                (prefix + "ln_gamma", self.ln_gamma), (prefix + "ln_beta", self.ln_beta)]
        return out

    def assert_stable(self) -> None:
        self.core.assert_stable()
        if self.core_rev is not None:
            self.core_rev.assert_stable()

    def forward(self, x: Tensor, train: bool = False,
                rng: np.random.Generator | None = None, mask: Tensor | None = None) -> Tensor:
        if x.shape[-1] != self.d_model:
            raise ShapeError(f"layer width {self.d_model} != input width {x.shape[-1]}")
        length = x.shape[-2]
        z = T.layer_norm_lastdim(x, self.ln_gamma, self.ln_beta)
        if mask is not None:
            z = z * mask  # LayerNorm(0) = ln_beta at padded steps
        zt = z.swap_last2()                                   # (B, D, T)
        y = conv1d_fft(zt, materialize_kernel(self.core, length))
        if self.core_rev is not None:
            k_rev = materialize_kernel(self.core_rev, length)
            y = y + T.flip_axis(conv1d_fft(T.flip_axis(zt, -1), k_rev), -1)
        y = y.swap_last2()                                    # (B, T, D)
        proj = y @ self.w_glu + self.b_glu
        gate = T.glu_gate(proj)
        gate = T.dropout(gate, self.dropout, rng, train)
        return x + gate
