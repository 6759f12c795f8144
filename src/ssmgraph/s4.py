"""State-space sequence layers: diagonal SSM cores, bilinear
discretization, convolution kernels, and the pre-norm S4 block.

A core holds the continuous-time parameters (A, B, C, D, dt) for a bank of
``d`` independent scalar-input/scalar-output systems, each with ``p`` complex
states. Re(A) is stored in log space so the continuous system stays stable
under unconstrained optimization, which keeps |a_bar| < 1 after the bilinear
map. The discrete system can run two ways:

* kernel + FFT convolution (the trainable path), or
* a step-by-step recurrent scan (the value-level oracle path).

Complex numbers appear here only as (re, im) tensor pairs / numpy internals.
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

    # -- value-level views (oracles, checks) ----------------------------

    def lam_values(self) -> np.ndarray:
        return -np.exp(self.log_neg_re.data) + 1j * self.lam_im.data

    def b_values(self) -> np.ndarray:
        return self.b_re.data + 1j * self.b_im.data

    def c_values(self) -> np.ndarray:
        return self.c_re.data + 1j * self.c_im.data

    def dt_values(self) -> np.ndarray:
        return np.exp(self.log_dt.data)

    def assert_stable(self) -> None:
        """Discrete-time stability |a_bar| < 1 must hold for every state."""
        a_bar, _ = discretize_bilinear(self)
        worst = np.abs(a_bar).max()
        if worst >= 1.0:
            raise T.NumericError(f"unstable core: max |a_bar| = {worst:.6f}")


def discretize_bilinear(core: SsmCore) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear (Tustin) map of a diagonal core to discrete time.

    a_bar = (1 + dt*lam/2) / (1 - dt*lam/2),  b_bar = dt*b / (1 - dt*lam/2).
    Stable continuous poles (Re lam < 0) give |a_bar| < 1.
    """
    lam = core.lam_values()
    dt = core.dt_values()[:, None]
    u = dt * lam / 2.0
    den = 1.0 - u
    if np.any(den == 0):
        raise T.NumericError("bilinear pole: dt*lam == 2")
    return (1.0 + u) / den, dt * core.b_values() / den


def _kernel_diag_primitive(lam_re: Tensor, lam_im: Tensor, b_re: Tensor, b_im: Tensor,
                           c_re: Tensor, c_im: Tensor, dt: Tensor, length: int) -> Tensor:
    """K[d, t] = Re(sum_p c * a_bar^t * b_bar) as one fused differentiable op.

    The backward rule pushes the upstream gradient through the bilinear
    discretization analytically: every map is holomorphic in each complex
    parameter z, so for f = Re(g(z)) the (re, im) gradients are
    (Re(g'), -Im(g')).
    """
    lam = lam_re.data.astype(np.complex128) + 1j * lam_im.data
    b = b_re.data.astype(np.complex128) + 1j * b_im.data
    c = c_re.data.astype(np.complex128) + 1j * c_im.data
    step = dt.data.astype(np.float64)[:, None]

    u = step * lam / 2.0
    den = 1.0 - u
    a_bar = (1.0 + u) / den
    b_bar = step * b / den
    w = c * b_bar

    powers = a_bar[:, :, None] ** np.arange(length)          # (d, p, L)
    out_data = np.einsum("dp,dpl->dl", w, powers).real
    out_data = out_data.astype(lam_re.data.dtype)

    def bwd(g):
        g64 = g.astype(np.float64)
        s = np.einsum("dl,dpl->dp", g64, powers)              # sum_t g a_bar^t
        tpow = np.zeros_like(powers)
        if length > 1:
            tpow[:, :, 1:] = powers[:, :, :-1] * np.arange(1, length)
        t_mom = np.einsum("dl,dpl->dp", g64, tpow)            # sum_t g t a_bar^(t-1)

        den2 = den * den
        if c_re.requires_grad or c_im.requires_grad:
            gc = b_bar * s
            if c_re.requires_grad:
                c_re._accum(gc.real.astype(c_re.dtype))
            if c_im.requires_grad:
                c_im._accum((-gc.imag).astype(c_im.dtype))
        if b_re.requires_grad or b_im.requires_grad:
            gb = (c * step / den) * s
            if b_re.requires_grad:
                b_re._accum(gb.real.astype(b_re.dtype))
            if b_im.requires_grad:
                b_im._accum((-gb.imag).astype(b_im.dtype))
        if lam_re.requires_grad or lam_im.requires_grad:
            db_dlam = step * step * b / (2.0 * den2)
            da_dlam = step / den2
            gl = (c * db_dlam) * s + (w * da_dlam) * t_mom
            if lam_re.requires_grad:
                lam_re._accum(gl.real.astype(lam_re.dtype))
            if lam_im.requires_grad:
                lam_im._accum((-gl.imag).astype(lam_im.dtype))
        if dt.requires_grad:
            gd = (c * b / den2) * s + (w * lam / den2) * t_mom
            dt._accum(gd.real.sum(axis=1).astype(dt.dtype))

    return _record(out_data, (lam_re, lam_im, b_re, b_im, c_re, c_im, dt), bwd)


def materialize_kernel(core: SsmCore, length: int) -> Tensor:
    """Differentiable length-``length`` convolution kernels, one row per feature: (d, L)."""
    if length < 1:
        raise ContractError(f"kernel length must be >= 1, got {length}")
    lam_re = T.neg(T.exp(core.log_neg_re))
    dt = T.exp(core.log_dt)
    return _kernel_diag_primitive(lam_re, core.lam_im, core.b_re, core.b_im,
                                  core.c_re, core.c_im, dt, length)


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
    c = core.c_values()
    d_skip = core.d_skip.data.astype(np.float64)
    y = np.zeros((core.d, length))
    a_bar, b_bar = discretize_bilinear(core)
    x = np.zeros((core.d, core.p), dtype=np.complex128)
    for t in range(length):
        x = a_bar * x + b_bar * u[:, t:t + 1]
        y[:, t] = (c * x).sum(axis=1).real + d_skip * u[:, t]
    return y


class S4Layer:
    """Pre-norm S4 block: LN -> SSM conv (+skip) -> GLU gate -> dropout -> residual.

    Bidirectional mode adds a second core run over the time-reversed sequence;
    both directions share the GLU output projection. A timestep ``mask``
    zeroes padded steps of the normalized signal before both convolutions,
    so the reverse direction never reads past a record's true length.
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
        # folding d_skip into kernel[0] realizes y += d_skip*x inside the conv
        kernel = materialize_kernel(self.core, length)
        skip = T.concat([self.core.d_skip.reshape(-1, 1),
                         Tensor(np.zeros((self.d_model, length - 1), dtype=x.dtype))], axis=1) \
            if length > 1 else self.core.d_skip.reshape(-1, 1)
        y = conv1d_fft(zt, kernel + skip)
        if self.core_rev is not None:
            k_rev = materialize_kernel(self.core_rev, length)
            y = y + T.flip_axis(conv1d_fft(T.flip_axis(zt, -1), k_rev), -1)
        y = y.swap_last2()                                    # (B, T, D)
        proj = y @ self.w_glu + self.b_glu
        gate = T.glu_gate(proj)
        gate = T.dropout(gate, self.dropout, rng, train)
        return x + gate
