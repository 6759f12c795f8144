"""The S4 block after its kernels as one tape op over row blocks:
``x + dropout(glu(conv(LN(x) * mask)))``, time on axis -2.

The convolution is causal, plus an anti-causal part when a reverse kernel is
given. With zero-padding to n >= 2L-1 every circular correlation is the
linear one on [0, L): corr(g, w)[s] = irfft(rfft(g) * conj(rfft(w)))[s]. So
the backward rule reuses the forward spectra, and a reverse-time kernel
enters the forward product as a conjugate spectrum, in the same transforms.
Complex values never leave this module.

Every row of the (rows, L, D) activations, one sensor channel of one record,
is independent through LayerNorm, the convolution and the GLU. The op runs
them in fixed blocks of about ``_BLOCK_BYTES``, so a block's working set stays
in cache, on ``worker_count()`` threads: the calling thread and a pool of
helpers each take the next unclaimed block. The pool is the only parallel
level: every transform, the kernels' too, runs pocketfft single-threaded,
scipy's default, and every pool op holds numpy's bundled OpenBLAS at one
thread, at every pool size. The partition depends only on shapes, and each
block repeats the whole-array arithmetic on its rows, so outputs and the
input gradient do not depend on the block count. Parameter and kernel-spectrum
gradients are summed per block and then over blocks in block order,
whichever thread ran each block, so no result depends on the thread count;
an activation of one block keeps the whole-array sums exactly.

Dropout draws one keep-mask per block from the caller's generator, in block
order: the first thread to reach a block's dropout draws, under one lock, the
masks of every block up to that one. Consecutive draws continue one stream, so
the masks equal one whole-array draw, and the generator ends where that draw
leaves it. For backward the op keeps the input, the keep-mask, the convolution
output as one (rows, L, D) array, and what each block returns when the op is
taped: its rows' LN mean and inverse std, the LN output's spectrum, and the
GLU's left half beside its sigmoid gate. It recomputes only the normalized
input: recomputing the FFTs and the gate as well made the backward about 1.4x
slower at the benchmark's tusz-long layer shape. Each backward block writes
its results into what it kept: the GLU gradient into the halves, the
kernel-spectrum product into the LN spectrum, and, once the ``w`` gradient has
read the convolution output's rows, the input gradient over them, so that
array becomes ``x.grad``. The kept state is consumed, so the backward runs
once; a second call raises ``ContractError``.

The row pool also runs the graph learner's per-graph ops (``graphlearn``)
over blocks of whole graphs, through ``_blocks`` and ``_map_blocks``; each
op's backward reads what it keeps from the list ``_map_blocks`` returns.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from concurrent import futures

import numpy as np
from scipy import fft as sfft

from . import tensor as T
from .tensor import ContractError, ShapeError, Tensor, _keep_mask, _record, _sigmoid, as_tensor

# Threads of the row pool; -1 means every CPU this process may run on.
FFT_WORKERS = -1

# A block holds as many items (rows, or graphs) as fit in this many bytes of
# the op's largest per-item array, at least one.
_BLOCK_BYTES = 1 << 20
_LN_EPS = 1e-5


def _next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask, which
    ``os.cpu_count()`` ignores, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count() -> int:
    """``FFT_WORKERS`` as a thread count, -1 resolved by ``_cpus()``."""
    if FFT_WORKERS == -1:
        return _cpus()
    if FFT_WORKERS < 1:
        raise ContractError(f"FFT_WORKERS must be -1 or >= 1, got {FFT_WORKERS}")
    return FFT_WORKERS


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    where numpy bundles none."""
    import ctypes  # here, not at import: set-up never needs them
    import glob

    root = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(root, os.pardir, "numpy.libs", "libscipy_openblas*"))
                       + glob.glob(os.path.join(root, ".dylibs", "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


def set_blas_threads() -> None:
    """Put the loaded OpenBLAS at one thread, as OPENBLAS_NUM_THREADS=1 would
    at load; a no-op without it."""
    blas = _openblas()
    if blas is not None:
        blas[1](1)


@functools.cache
def _pool(helpers: int):
    """The row pool's helper threads, made on first use, not at import; keyed
    by ``worker_count() - 1``, not by a call's block count."""
    return futures.ThreadPoolExecutor(helpers, thread_name_prefix="ssmgraph-rows")


def _blocks(count: int, item_bytes: int) -> list[slice]:
    """``count`` items in consecutive slices of as many items of
    ``item_bytes`` as fit in ``_BLOCK_BYTES``, at least one. The partition
    depends only on shapes, never on the thread count."""
    per = max(1, _BLOCK_BYTES // item_bytes)
    return [slice(i, min(i + per, count)) for i in range(0, count, per)]


def _map_blocks(fn, n_blocks: int) -> list:
    """``[fn(i) for i in range(n_blocks)]``. With more than one worker and
    block, the calling thread and ``workers - 1`` pool threads each take the
    next unclaimed block until none is left, and the caller waits once, for
    the helpers' last blocks. Pool ops keep the returned list for backward."""
    # OpenBLAS runs one thread on every call, at every pool size: a block's
    # matmul then sums in one order whatever the worker count, and no idle
    # OpenBLAS thread busy-waits beside the pool's own
    set_blas_threads()
    threads = worker_count()
    workers = min(threads, n_blocks)
    if workers == 1:
        return [fn(i) for i in range(n_blocks)]
    results = [None] * n_blocks
    claim = itertools.count()  # next() on it is atomic under the GIL

    def drain():
        for i in claim:
            if i >= n_blocks:
                return
            results[i] = fn(i)

    pool = _pool(threads - 1)
    helpers = [pool.submit(drain) for _ in range(workers - 1)]
    try:
        drain()
    finally:
        futures.wait(helpers)  # no block runs once the call has returned or raised
    for helper in helpers:
        helper.result()  # re-raises a helper's exception
    return results


def _times(a, b):
    """``a * b``, written into ``a`` where the product's dtype is a's."""
    return np.multiply(a, b, out=a if a.dtype == np.result_type(a, b) else None)


def conv1d_fft(x, kernel, kernel_rev, gamma, beta, w, b, mask=None, p: float = 0.0,
               rng: np.random.Generator | None = None, train: bool = False) -> Tensor:
    """``x + dropout(glu(conv(LN(x) * mask)))`` for x (..., L, D) as one op.

    LN normalizes the last axis with ``gamma`` and ``beta`` (D,). The
    convolution is y[t] = sum_{s<=t} kernel[s] z[t-s] + sum_{s<L-t}
    kernel_rev[s] z[t+s], kernels (L, D), ``kernel_rev`` optional. ``mask``,
    broadcastable to (..., L, 1), zeroes steps of the LN output before it.
    With (left, gate) the halves of y @ w + b, w (D, 2D), the GLU gives
    left * sigmoid(gate), its units dropped at rate p when training.
    """
    x, k = as_tensor(x), as_tensor(kernel)
    r = None if kernel_rev is None else as_tensor(kernel_rev)
    gamma, beta, w, b = (as_tensor(t) for t in (gamma, beta, w, b))
    if x.ndim < 2:
        raise ShapeError("conv1d_fft needs time on axis -2 and channels on -1")
    length, d = x.shape[-2:]
    if k.shape != (length, d) or (r is not None and r.shape != k.shape):
        raise ShapeError(f"kernels must be (L, D) = {(length, d)}, got {k.shape}"
                         + ("" if r is None else f" and {r.shape}"))
    if gamma.shape != (d,) or beta.shape != (d,) or w.shape != (d, 2 * d) or b.shape != (2 * d,):
        raise ShapeError(f"conv1d_fft needs gamma, beta ({d},), w ({d}, {2 * d}) and b "
                         f"({2 * d},), got {gamma.shape}, {beta.shape}, {w.shape}, {b.shape}")
    rows = x.size // (length * d)
    xr = x.data.reshape(rows, length, d)
    mr = None if mask is None else np.broadcast_to(
        as_tensor(mask).data, x.shape[:-1] + (1,)).reshape(rows, length, 1)
    dtype = np.result_type(x.dtype, w.dtype, b.dtype)
    keep = scale = None
    if train and p > 0.0:
        keep = np.empty((rows, length, d), bool)
        scale = 1.0 / (1.0 - p)
    n = _next_pow2(2 * length - 1)
    # looked up once, on the caller's thread: a stand-in for scipy.fft is never
    # reached from a pool thread, yet sees every transform and its length n
    rfft, irfft = sfft.rfft, sfft.irfft
    spec = rfft(k.data, n=n, axis=-2)
    if r is not None:
        spec += np.conj(rfft(r.data, n=n, axis=-2))
    blocks = _blocks(rows, length * d * x.data.itemsize)
    out = np.empty(xr.shape, dtype)
    drawn = 0  # blocks whose keep-masks are drawn
    draw_lock = threading.Lock()

    def keep_of(i):
        """Block i's keep-mask. The first thread to need it also draws each
        earlier block's not drawn yet, so masks are drawn in block order."""
        nonlocal drawn
        with draw_lock:
            while drawn <= i:
                keep[blocks[drawn]] = _keep_mask(keep[blocks[drawn]].shape, p, rng, dtype)
                drawn += 1
        return keep[blocks[i]]

    def forward(i):
        rs = blocks[i]
        xb = xr[rs]
        mu = xb.mean(axis=-1, keepdims=True)
        xhat = xb - mu
        var = (xhat * xhat).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + _LN_EPS)
        xhat *= inv
        if not taped:  # freed before the block's large arrays, which would pin heap above them
            del mu, inv
        z = xhat
        z *= gamma.data
        z += beta.data
        if mr is not None:
            z *= mr[rs]
        z_spec = rfft(z, n=n, axis=-2)
        prod = z_spec * spec if taped else _times(z_spec, spec)
        y = np.empty(xb.shape, x.dtype) if ys is None else ys[rs]
        np.copyto(y, irfft(prod, n=n, axis=-2)[:, :length])
        y = y.reshape(-1, d)
        h = y @ w.data
        h += b.data
        _sigmoid(h[:, d:], out=h[:, d:])
        glu = h[:, :d] * h[:, d:]
        if keep is not None:
            glu *= scale
            glu *= keep_of(i).reshape(-1, d)
        np.add(xb, glu.reshape(xb.shape), out=out[rs])
        return (mu, inv, z_spec, h) if taped else None

    kernels = (k,) if r is None else (k, r)
    parents = (x,) + kernels + (gamma, beta, w, b)
    taped = T.GRAD_ENABLED and any(t.requires_grad for t in parents)
    # the convolution output's rows; backward writes x's gradient over them
    ys = np.empty(xr.shape, x.dtype) if taped else None
    saved = _map_blocks(forward, len(blocks))

    def bwd(g):
        nonlocal saved
        if saved is None:
            raise ContractError("conv1d_fft's backward consumes what its forward kept; "
                                "it runs once per graph")
        kept, saved = saved, None
        g = g.reshape(rows, length, d)
        want_k = any(t.requires_grad for t in kernels)
        conj_spec = np.conj(spec)

        def backward(i):
            rs = blocks[i]
            mu, inv, z_spec, h = kept[i]
            kept[i] = None  # each kept array is freed once this block is done with it
            y = ys[rs].reshape(-1, d)
            xhat = xr[rs] - mu
            xhat *= inv
            left, gate = h[:, :d], h[:, d:]  # h becomes gh: g_left over left, g_gate over gate
            g_units = g[rs].reshape(-1, d)
            if keep is not None:
                g_units = g_units * keep[rs].reshape(-1, d)
                g_units *= scale
            g_left = g_units * gate
            np.subtract(1.0, gate, out=gate)
            gate *= g_left
            gate *= left
            np.copyto(left, g_left)
            parts = {"w": y.T @ h, "b": h.sum(axis=0)}
            g_spec = rfft((h @ w.data.T).reshape(xhat.shape), n=n, axis=-2)
            if want_k:
                parts["spec"] = _times(np.conj(z_spec, out=z_spec), g_spec).sum(axis=0)
            del h, left, gate, g_units, g_left, z_spec
            g_spec *= conj_spec
            gz = np.ascontiguousarray(irfft(g_spec, n=n, axis=-2)[:, :length], dtype=x.dtype)
            del g_spec
            if mr is not None:
                gz *= mr[rs]
            scratch = gz * xhat
            parts["gamma"] = scratch.reshape(-1, d).sum(axis=0)
            parts["beta"] = gz.reshape(-1, d).sum(axis=0)
            if x.requires_grad:
                gx = gz * gamma.data
                mean_gx_xhat = np.multiply(gx, xhat, out=scratch).mean(axis=-1, keepdims=True)
                gx -= gx.mean(axis=-1, keepdims=True)
                gx -= np.multiply(xhat, mean_gx_xhat, out=scratch)
                gx *= inv
                np.add(g[rs], gx, out=ys[rs])
            return parts

        parts = _map_blocks(backward, len(blocks))

        def summed(name):  # in block order, whichever thread ran each block
            return functools.reduce(np.add, [part[name] for part in parts])

        for name, param in (("w", w), ("b", b), ("gamma", gamma), ("beta", beta)):
            if param.requires_grad:
                param._accum(summed(name), owned=True)
        if want_k:
            prod = summed("spec")

            def inverse(spectrum):
                return np.ascontiguousarray(irfft(spectrum, n=n, axis=-2)[:length])

            if k.requires_grad:
                k._accum(inverse(prod), owned=True)
            if r is not None and r.requires_grad:
                r._accum(inverse(np.conj(prod, out=prod)), owned=True)
        if x.requires_grad:
            x._accum(ys.reshape(x.shape), owned=True)

    return _record(out.reshape(x.shape), parents, bwd)
