"""Dense-tensor engine with tape-based reverse-mode differentiation.

Tensors wrap row-major numpy arrays (float64 by default, float32 allowed for
training speed). Each operation that touches a gradient-requiring input
records its inputs and a backward rule; ``Tensor.backward`` replays the
recorded operations in reverse order to accumulate leaf gradients.

Complex arithmetic never crosses this API: state-space kernels and the FFT
convolution handle (re, im) pairs internally and return real tensors.

Lifetime: the tape is the graph itself. Every op output holds its parents
and its backward rule, and backward leaves each interior node's ``grad`` in
place, so a step's activations and interior gradients live exactly as long
as something holds its loss or outputs. ``train.train_loop`` drops both when
a step ends; only parameters, their ``grad`` and the optimizer's moments
outlive it. Every row-pool op's backward (``fftconv.blocked``) consumes what
its forward kept, block by block, so a graph through any of them is
backpropagated once; a second backward raises ``ContractError``.

Allocator policy: one step frees hundreds of megabytes of activations and the
next allocates the same sizes again. By default glibc serves arrays above its
mmap threshold with fresh ``mmap`` calls and trims freed heap tops back to
the OS, so every step faults those pages in again. Importing this module
raises glibc's mmap and trim thresholds once (``_keep_freed_pages``), so freed
pages stay in the process for reuse; on any other C library it does nothing.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Sequence

import numpy as np

# glibc mallopt parameters and the value given to both: 2**31 - 1 bytes, the
# largest an int argument carries.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_BYTES = 2 ** 31 - 1


def _keep_freed_pages() -> None:
    """Ask glibc to serve arrays up to 2 GiB from its heap and to keep up to
    2 GiB of free heap top, so memory a finished step frees is reused rather
    than refaulted. A C library that is not glibc, or has no ``mallopt``, is
    left as it is."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD):
        mallopt(param, _KEEP_BYTES)


_keep_freed_pages()

# When enabled, every forward op asserts its output is finite. Tests switch
# this on; training leaves it off and checks losses/steps instead.
CHECK_FINITE = False

# Cleared inside no_grad(): ops run value-only and record nothing.
GRAD_ENABLED = True


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class ContractError(ValueError):
    """An operation was called outside its contract (non-shape)."""


class NumericError(ArithmeticError):
    """A forward value or gradient became NaN/Inf."""


def _as_array(value, dtype=None) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """N-dimensional real array, optionally tracked for differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._bwd: Callable[[np.ndarray], None] | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})\n{self.data!r}"

    # -- gradient plumbing ---------------------------------------------

    def _accum(self, grad: np.ndarray, owned: bool = False) -> None:
        """Accumulate a gradient. ``owned`` marks a freshly allocated array the
        caller will not reuse, letting us adopt it without a defensive copy."""
        if self.grad is None:
            if owned and grad.dtype == self.data.dtype and grad.shape == self.data.shape:
                self.grad = grad
            else:
                self.grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Populate ``grad`` on every gradient-requiring ancestor."""
        Tape.trace(self).backward(self, grad)

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)

    def max(self, axis=None, keepdims=False):
        return tmax(self, axis, keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)


class Module:
    """Base of every layer with parameters: the attributes holding a
    gradient-requiring ``Tensor``, named in assignment order (the checkpoint's
    order). A ``Module`` attribute nests under ``attr.``, and list items take
    the name ``attr.i``; every other attribute is skipped."""

    def _members(self):
        for attr, value in vars(self).items():
            if isinstance(value, list):
                yield from ((f"{attr}.{i}", item) for i, item in enumerate(value))
            else:
                yield attr, value

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = []
        for name, value in self._members():
            if isinstance(value, Module):
                out += value.named_parameters(f"{prefix}{name}.")
            elif isinstance(value, Tensor) and value.requires_grad:
                out.append((prefix + name, value))
        return out

    def assert_stable(self) -> None:
        """Raise ``NumericError`` if a submodule left its stable region."""
        for _, value in self._members():
            if isinstance(value, Module):
                value.assert_stable()

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()


def as_tensor(value, dtype=None) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value, dtype=dtype)


class TapeOp:
    """One recorded operation: output, its inputs, and a backward rule."""

    __slots__ = ("out", "parents", "bwd")

    def __init__(self, out: Tensor, parents: tuple[Tensor, ...], bwd):
        self.out = out
        self.parents = parents
        self.bwd = bwd


class Tape:
    """Ordered operation record for one computation graph.

    Replaying backward rules in reverse recorded order visits every node
    after all its consumers, so each gradient-requiring leaf receives its
    full gradient exactly once.
    """

    def __init__(self, ops: list[TapeOp]):
        self.ops = ops

    @staticmethod
    def trace(root: Tensor) -> "Tape":
        """Collect the recorded ops reachable from ``root``, oldest first."""
        order: list[TapeOp] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                if node._bwd is not None:
                    order.append(TapeOp(node, node._parents, node._bwd))
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return Tape(order)

    def backward(self, root: Tensor, grad: np.ndarray | None = None) -> None:
        if grad is None:
            grad = np.ones_like(root.data)
        else:
            grad = np.asarray(grad, dtype=root.data.dtype)
            if grad.shape != root.data.shape:
                raise ShapeError(f"seed gradient shape {grad.shape} != {root.data.shape}")
        root._accum(grad)
        for op in reversed(self.ops):
            if op.out.grad is not None:
                op.bwd(op.out.grad)


class no_grad:
    """Context manager: run ops value-only, without recording backward rules."""

    def __enter__(self):
        global GRAD_ENABLED
        self._prev = GRAD_ENABLED
        GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global GRAD_ENABLED
        GRAD_ENABLED = self._prev
        return False


def _record(out_data: np.ndarray, parents: Sequence[Tensor], bwd) -> Tensor:
    """Wrap an op result, attaching the backward rule if anything needs it."""
    if CHECK_FINITE and not np.all(np.isfinite(out_data)):
        raise NumericError("non-finite value produced by forward operation")
    out = Tensor(out_data)
    if GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._bwd = bwd
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- arithmetic ---------------------------------------------------------


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors. A Python scalar becomes a constant in the
    other operand's dtype, so it never promotes a float32 graph to float64."""
    if isinstance(a, (int, float)):
        b = as_tensor(b)
        return Tensor(a, dtype=b.dtype), b
    a = as_tensor(a)
    if isinstance(b, (int, float)):
        return a, Tensor(b, dtype=a.dtype)
    return a, as_tensor(b)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data + b.data

    def bwd(g):
        # b first: if it shares the buffer it takes a copy, then a may
        # adopt g outright (nothing reads an output grad after its bwd)
        if b.requires_grad:
            red = _unbroadcast(g, b.shape)
            b._accum(red, owned=red is not g)
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape), owned=True)

    return _record(out_data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            red = _unbroadcast(g, a.shape)
            a._accum(red, owned=red is not g)
        if b.requires_grad:
            b._accum(_unbroadcast(-g, b.shape), owned=True)

    return _record(out_data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.shape), owned=True)
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.shape), owned=True)

    return _record(out_data, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data / b.data

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.shape), owned=True)
        if b.requires_grad:
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.shape), owned=True)

    return _record(out_data, (a, b), bwd)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def bwd(g):
        a._accum(g * (a.data > 0.0), owned=True)

    return _record(out_data, (a,), bwd)


# -- linear algebra and shape -------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul requires at least 2-D operands")
    out_data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape), owned=True)
        if b.requires_grad:
            b._accum(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape), owned=True)

    return _record(out_data, (a, b), bwd)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old_shape = a.shape

    def bwd(g):
        a._accum(g.reshape(old_shape), owned=True)

    return _record(a.data.reshape(shape), (a,), bwd)


def transpose(a, axes) -> Tensor:
    """A C-ordered copy of ``a`` with its axes permuted, so that later ops
    reshape it without a copy and read it with unit strides."""
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = np.argsort(axes)

    def bwd(g):
        a._accum(g.transpose(inverse), owned=True)

    return _record(np.ascontiguousarray(a.data.transpose(axes)), (a,), bwd)


# -- reductions -----------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        gg = g if (keepdims or axis is None) else np.expand_dims(g, axis)
        a._accum(np.broadcast_to(gg, a.shape).copy(), owned=True)

    return _record(out_data, (a,), bwd)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.size if axis is None else np.prod(
        [a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])

    def bwd(g):
        gg = g if (keepdims or axis is None) else np.expand_dims(g, axis)
        a._accum(np.broadcast_to(gg / count, a.shape).copy(), owned=True)

    return _record(out_data, (a,), bwd)


def tmax(a, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; ties share the gradient equally (deterministic)."""
    a = as_tensor(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)

    def bwd(g):
        full = out_data if (keepdims or axis is None) else np.expand_dims(out_data, axis)
        mask = (a.data == full).astype(a.dtype.type)
        mask /= mask.sum(axis=axis, keepdims=True)
        gg = g if (keepdims or axis is None) else np.expand_dims(g, axis)
        a._accum(mask * gg, owned=True)

    return _record(out_data, (a,), bwd)


# -- fused numerics -------------------------------------------------------


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)) into ``out``, which may be ``z``; where exp(-z)
    overflows to inf the result is exactly 0."""
    with np.errstate(over="ignore"):
        out = np.negative(z, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.reciprocal(out, out=out)


def _softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Max-subtracted softmax over the last axis of an array, into ``out``,
    which may be ``z``."""
    out = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _keep_mask(shape, p: float, rng: np.random.Generator | None, dtype) -> np.ndarray:
    """Boolean mask of the units inverted dropout keeps, drawn in ``dtype``."""
    if rng is None:
        raise ContractError("dropout in training mode requires an RNG")
    return rng.random(shape, dtype=dtype) >= p


def dropout(a, p: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    a = as_tensor(a)
    if not train or p <= 0.0:
        return a
    mask = np.divide(_keep_mask(a.shape, p, rng, a.dtype), 1.0 - p, dtype=a.dtype)
    return mul(a, Tensor(mask))


def bce_with_logits(logits, targets) -> Tensor:
    """Mean sigmoid cross-entropy; ``targets`` in {0,1}, any matching shape."""
    logits = as_tensor(logits)
    t = np.asarray(targets, dtype=logits.dtype)
    if t.shape != logits.shape:
        raise ShapeError(f"targets shape {t.shape} != logits shape {logits.shape}")
    z = logits.data
    # max(z,0) - z*t + log(1+exp(-|z|)) is exact and overflow-free
    per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = per.size
    out_data = np.asarray(per.mean())

    def bwd(g):
        logits._accum(g * (_sigmoid(z) - t) / n, owned=True)

    return _record(out_data, (logits,), bwd)


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean softmax cross-entropy; ``labels`` are class indices of shape (B,)."""
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError("softmax_cross_entropy expects (batch, classes) logits")
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (logits.shape[0],):
        raise ShapeError("labels must have shape (batch,)")
    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True)) + zmax
    per = lse[:, 0] - z[np.arange(len(y)), y]
    n = len(y)
    out_data = np.asarray(per.mean())

    def bwd(g):
        p = np.exp(z - lse)
        p[np.arange(len(y)), y] -= 1.0
        logits._accum(g * p / n, owned=True)

    return _record(out_data, (logits,), bwd)
