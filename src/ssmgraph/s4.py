"""State-space sequence layers: diagonal SSM cores, bilinear
discretization, convolution kernels, and the pre-norm S4 block.

A core holds the continuous-time parameters (A, B, C, D, dt) for a bank of
``d`` independent scalar-input/scalar-output systems, each with ``p`` complex
states. Re(A) is stored in log space so the continuous system stays stable
under unconstrained optimization, which keeps |a_bar| < 1 after the bilinear
map. The discrete system runs as its impulse response, a kernel that enters
an FFT convolution: ``materialize_kernel`` is one tape op whose tap 0 carries
the skip term D, as in S4D (Gu et al., arXiv 2206.11893). The step-by-step
recurrent scan it equals is the tests' oracle (``tests/conftest.py``).

The kernel's Vandermonde powers a_bar^t come from two small tables of
numpy's integer ``**``: with B = ceil(sqrt(L)), a_bar^(q*B + j) =
(a_bar^B)^q * a_bar^j, so an (L/B, B) outer product replaces one power per
tap. B follows from L alone.

Activations stay (batch, time, features) with time on axis -2 and kernels
are (L, d), so no layer transposes. A bidirectional layer's second core runs
over the reversed sequence: an anti-causal kernel that enters the same FFT
convolution as a conjugate spectrum, its skip term the sum of both cores'
D. Complex numbers appear only inside numpy; every tensor here is real.

After its kernel ops, the block is one op, ``fftconv.conv1d_fft``: LayerNorm,
the FFT convolution, the GLU projection and gate, dropout on the gated
output, and the residual add. It runs in fixed row blocks on a thread pool,
with the same values as the whole-array arithmetic (see ``fftconv``).
"""

from __future__ import annotations

import math

import numpy as np

from .fftconv import conv1d_fft
from .tensor import ContractError, Module, NumericError, ShapeError, Tensor, _record


DT_MIN_DEFAULT = 1e-3
DT_MAX_DEFAULT = 1e-1


class SsmCore(Module):
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

    def assert_stable(self) -> None:
        """Discrete-time stability |a_bar| < 1 must hold for every state."""
        a_bar, _ = discretize_bilinear(self)
        worst = np.abs(a_bar).max()
        if worst >= 1.0:
            raise NumericError(f"unstable core: max |a_bar| = {worst:.6f}")


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


def _vandermonde(a_bar: np.ndarray, length: int) -> np.ndarray:
    """(d, p, L) complex128 powers a_bar^t for t < L: the outer product of
    the rows (a_bar^B)^q and the columns a_bar^j, B = ceil(sqrt(L)), cut to
    L taps. A zero state's powers are exactly [1, 0, 0, ...]."""
    width = math.isqrt(length - 1) + 1                        # ceil(sqrt(L))
    cols = a_bar[:, :, None] ** np.arange(width)
    rows = (a_bar[:, :, None] ** width) ** np.arange(-(-length // width))
    return (rows[..., None] * cols[:, :, None, :]).reshape(*a_bar.shape, -1)[..., :length]


def materialize_kernel(core: SsmCore, length: int) -> Tensor:
    """The core's (L, d) impulse response as one differentiable op, time on
    axis 0 as ``conv1d_fft`` takes it: K[t] = Re(sum_p c * a_bar^t * b_bar),
    plus d_skip at t = 0.

    The powers a_bar^t are ``_vandermonde``'s two tables: each is one row
    power times one column power, so its error against exact arithmetic is
    of order L * eps at |a_bar| near 1 (at most 1.2 * L * eps measured for
    L <= 12,000), no larger than that of numpy's ``a_bar ** t``.

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
        g64 = np.ascontiguousarray(g.T, dtype=np.float64)     # (d, L)
        s = np.einsum("dl,dpl->dp", g64, powers)              # sum_t g a_bar^t
        t_mom = np.einsum("dl,dpl->dp", g64[:, 1:] * np.arange(1, length),
                          powers[:, :, :-1])                  # sum_t g t a_bar^(t-1)

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
            "d_skip": g[0],
        }
        for name, param in params:
            if param.requires_grad:
                param._accum(grads[name])

    return _record(out_data.T, [p for _, p in params], bwd)


class S4Layer(Module):
    """Pre-norm S4 block: LN -> SSM conv (+skip) -> GLU gate -> dropout -> residual.

    ``forward`` records the kernel op(s) and one ``fftconv.conv1d_fft`` op,
    which applies ``ln_gamma``/``ln_beta``, the convolution, ``w_glu``/``b_glu``,
    the gate and, when ``train`` is set, dropout, before the residual add.

    Bidirectional mode adds the reverse kernel of a second core, run over the
    time-reversed sequence, so the skip term is ``core.d_skip + core_rev.d_skip``;
    both directions share the GLU output projection. In bidirectional mode a
    timestep ``mask`` zeroes padded steps of the normalized signal
    (``ln_beta`` there, not 0) before the convolution, whose reverse kernel
    reads later steps. A unidirectional layer's kernel is causal and padding
    follows a record's end, so it ignores the mask. Every other stage acts
    per step, so no valid step reads a padded output.
    """

    def __init__(self, d_model: int, p_states: int, rng: np.random.Generator,
                 bidirectional: bool = False, dropout: float = 0.0, dtype=np.float64,
                 dt_min: float = DT_MIN_DEFAULT, dt_max: float = DT_MAX_DEFAULT):
        self.d_model = d_model
        self.dropout = dropout
        self.core = SsmCore(d_model, p_states, rng, dt_min, dt_max, dtype)
        self.core_rev = (SsmCore(d_model, p_states, rng, dt_min, dt_max, dtype)
                         if bidirectional else None)
        sd = d_model ** -0.5
        self.w_glu = Tensor(rng.normal(0.0, sd, (d_model, 2 * d_model)), requires_grad=True, dtype=dtype)
        self.b_glu = Tensor(np.zeros(2 * d_model), requires_grad=True, dtype=dtype)
        self.ln_gamma = Tensor(np.ones(d_model), requires_grad=True, dtype=dtype)
        self.ln_beta = Tensor(np.zeros(d_model), requires_grad=True, dtype=dtype)

    def forward(self, x: Tensor, train: bool = False,
                rng: np.random.Generator | None = None, mask: Tensor | None = None) -> Tensor:
        if x.shape[-1] != self.d_model:
            raise ShapeError(f"layer width {self.d_model} != input width {x.shape[-1]}")
        length = x.shape[-2]
        kernel = materialize_kernel(self.core, length)
        k_rev = None if self.core_rev is None else materialize_kernel(self.core_rev, length)
        return conv1d_fft(x, kernel, k_rev, self.ln_gamma, self.ln_beta, self.w_glu, self.b_glu,
                          None if k_rev is None else mask, self.dropout, rng, train)
