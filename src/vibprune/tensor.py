"""Minimal reverse-mode autodiff engine on numpy arrays.

Design rules:
  * float32 storage and arithmetic by default; float64 only for sums
    (reductions, and the softmax/norm denominators), cast back down before
    they meet float32 data. A float64 input stays float64 throughout.
  * broadcasting in `add`/`mul` is restricted to: identical shapes,
    a size-1 tensor against anything, and a 1-D vector whose length
    matches the other operand's last dimension.
  * every primitive checks its output for non-finite values.
  * the graph is a tape of nodes hanging off output tensors; `backward`
    frees it, parameters persist.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DeterminismError, NumericError, ShapeError

_GRAD_ENABLED = True

_GELU_K0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_K1 = 0.044715
_LN_EPS = 1e-5
_MASK_FILL = -1e9


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (teacher/eval forwards)."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class Node:
    """One recorded primitive application."""

    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(self, op: str, inputs: Sequence["Tensor"], backward_fn: Callable):
        self.op = op
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(dtype)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[Node] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor has {self.data.size} elements")
        return self.data.item()

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # `+` and `*` record the module-level primitives, looked up by name at
    # call time, so one expression serves floats and graph tensors alike.
    # A plain number becomes a `constant` addend or a `scale` factor. numpy
    # scalars defer to these operators instead of broadcasting over a Tensor.
    __array_ufunc__ = None

    def __add__(self, other):
        return add(self, other if isinstance(other, Tensor) else constant(other))

    def __radd__(self, other):
        return add(constant(other), self)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)


def parameter(data, dtype=np.float32) -> Tensor:
    return Tensor(np.array(data, dtype=dtype), requires_grad=True)


def constant(data, dtype=np.float32) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=False)


def _finite_or_raise(op: str, out: np.ndarray) -> np.ndarray:
    if not np.isfinite(out).all():
        raise NumericError(f"non-finite output of {op}")
    return out


def _make(op: str, out: np.ndarray, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    _finite_or_raise(op, out)
    t = Tensor(out, requires_grad=False)
    if _GRAD_ENABLED and any(i.requires_grad for i in inputs):
        t.requires_grad = True
        t.node = Node(op, inputs, backward_fn)
    return t


def _is_scalar_like(shape: tuple) -> bool:
    return math.prod(shape) == 1


def _broadcast_ok(a: tuple, b: tuple) -> bool:
    if a == b:
        return True
    if _is_scalar_like(a) or _is_scalar_like(b):
        return True
    if len(a) == 1 and len(b) >= 1 and a[0] == b[-1]:
        return True
    if len(b) == 1 and len(a) >= 1 and b[0] == a[-1]:
        return True
    return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape of the input it belongs to."""
    if grad.shape == shape:
        return grad
    if shape == ():
        return grad.sum()
    if _is_scalar_like(shape):
        return grad.sum().reshape(shape)
    # 1-D vector broadcast over leading axes
    axes = tuple(range(grad.ndim - len(shape)))
    out = grad.sum(axis=axes) if axes else grad
    # defensive: collapse any residual mismatched leading dims
    while out.ndim > len(shape):
        out = out.sum(axis=0)
    return out


# ---------------------------------------------------------------------------
# numeric kernels: plain arrays in, plain arrays out, in the input's dtype.
# The graph primitives below and the dense serving model both call these.
# They stay private: bench/tracing.py wraps public functions only, so their
# time is charged to the primitive or dense forward that called them.


def _gelu(x: np.ndarray):
    """tanh-approximate GELU; also returns the tanh, which the backward needs.

    The cube is written as products: `x**3` is a slow generic power."""
    t = np.tanh(_GELU_K0 * (x + _GELU_K1 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)


def _normalize(x: np.ndarray, width: Optional[int] = None):
    """Zero mean, unit variance over the last dim; returns (y, 1/std).

    A `width` larger than the last dim counts the missing entries as zeros,
    so a model that dropped dims of a zero-padded stream normalizes exactly
    as the full-width one did."""
    d = x.shape[-1]
    n = d if width is None else width
    m = x.sum(axis=-1, keepdims=True, dtype=np.float64) / n
    xc = x - m.astype(x.dtype)
    ss = (xc * xc).sum(axis=-1, keepdims=True, dtype=np.float64)
    inv = (1.0 / np.sqrt((ss + (n - d) * m * m) / n + _LN_EPS)).astype(x.dtype)
    return xc * inv, inv


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = a.data + b.data

    def bw(g):
        return [_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)]

    return _make("add", out, [a, b], bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bw(g):
        return [_unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)]

    return _make("mul", out, [a, b], bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = a.data * c

    def bw(g):
        return [g * c]

    return _make("scale", out, [a], bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0:
        raise ShapeError("matmul: operands must have ndim >= 1")
    if ad.shape[-1] != (bd.shape[-2] if bd.ndim >= 2 else bd.shape[0]):
        raise ShapeError(f"matmul: inner dims differ {ad.shape} @ {bd.shape}")
    out = np.matmul(ad, bd)

    def bw(g):
        # promote 1-D operands to matrices, fix g up to match, then use the
        # standard dC rules and reduce back
        A = ad[None, :] if ad.ndim == 1 else ad
        B = bd[:, None] if bd.ndim == 1 else bd
        if ad.ndim == 1 and bd.ndim == 1:
            G = g.reshape(1, 1)
        elif ad.ndim == 1:
            G = g[..., None, :]
        elif bd.ndim == 1:
            G = g[..., :, None]
        else:
            G = g
        ga = _unbroadcast_matmul(np.matmul(G, np.swapaxes(B, -1, -2)), A.shape)
        gb = _unbroadcast_matmul(np.matmul(np.swapaxes(A, -1, -2), G), B.shape)
        return [ga.reshape(ad.shape), gb.reshape(bd.shape)]

    return _make("matmul", out, [a, b], bw)


def _unbroadcast_matmul(grad: np.ndarray, shape: tuple) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    for i, (gd, sd) in enumerate(zip(grad.shape, shape)):
        if sd == 1 and gd != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad.reshape(shape)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("gather_rows: indices must be integers")
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows: table must be 2-D, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError("gather_rows: index out of range")
    out = table.data[idx]

    def bw(g):
        gt = np.zeros_like(table.data, dtype=g.dtype)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, table.shape[1]))
        return [gt]

    return _make("gather_rows", out, [table], bw)


def gelu(x: Tensor) -> Tensor:
    xd = x.data
    out, t = _gelu(xd)

    def bw(g):
        dinner = _GELU_K0 * (1.0 + 3.0 * _GELU_K1 * (xd * xd))
        dx = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
        return [g * dx]

    return _make("gelu", out, [x], bw)


def softmax_lastdim(x: Tensor) -> Tensor:
    xd = x.data
    if xd.ndim == 0:
        raise ShapeError("softmax_lastdim: scalar input")
    out = _softmax(xd)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True, dtype=np.float64).astype(g.dtype)
        return [(g - dot) * out]

    return _make("softmax_lastdim", out, [x], bw)


def layer_norm_lastdim(x: Tensor) -> Tensor:
    """Normalize the last dim to zero mean, unit variance (no affine part)."""
    xd = x.data
    if xd.ndim == 0:
        raise ShapeError("layer_norm_lastdim: scalar input")
    out, inv = _normalize(xd)

    def bw(g):
        gm = g.mean(axis=-1, keepdims=True, dtype=np.float64).astype(g.dtype)
        gy = (g * out).mean(axis=-1, keepdims=True, dtype=np.float64).astype(g.dtype)
        return [(g - gm - out * gy) * inv]

    return _make("layer_norm_lastdim", out, [x], bw)


def mean(x: Tensor) -> Tensor:
    out = np.asarray(x.data.mean(dtype=np.float64), dtype=x.data.dtype)
    n = x.data.size
    shp, dt = x.shape, x.data.dtype

    def bw(g):
        return [np.full(shp, np.asarray(g, dtype=dt) / n, dtype=dt)]

    return _make("mean", out, [x], bw)


def tsum(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(dtype=np.float64), dtype=x.data.dtype)
    shp, dt = x.shape, x.data.dtype

    def bw(g):
        return [np.full(shp, np.asarray(g, dtype=dt), dtype=dt)]

    return _make("sum", out, [x], bw)


def tlog(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x.data)
    xd = x.data

    def bw(g):
        return [g / xd]

    return _make("log", out, [x], bw)


def texp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(x.data)

    def bw(g):
        return [g * out]

    return _make("exp", out, [x], bw)


def square(x: Tensor) -> Tensor:
    xd = x.data
    out = xd * xd

    def bw(g):
        return [g * 2.0 * xd]

    return _make("square", out, [x], bw)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function (saturates cleanly at 0/1)."""
    xd = x.data
    pos = xd >= 0
    e = np.exp(np.where(pos, -xd, xd))  # argument always <= 0: no overflow
    out = (np.where(pos, 1.0, e) / (1.0 + e)).astype(xd.dtype)

    def bw(g):
        return [g * out * (1.0 - out)]

    return _make("sigmoid", out, [x], bw)


def concat_lastdim(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_lastdim: empty input list")
    lead = parts[0].shape[:-1]
    for p in parts:
        if p.shape[:-1] != lead:
            raise ShapeError(
                f"concat_lastdim: leading dims differ {p.shape} vs {parts[0].shape}"
            )
    out = np.concatenate([p.data for p in parts], axis=-1)
    widths = [p.shape[-1] for p in parts]

    def bw(g):
        grads = []
        ofs = 0
        for w in widths:
            grads.append(g[..., ofs : ofs + w])
            ofs += w
        return grads

    return _make("concat_lastdim", out, list(parts), bw)


def slice_lastdim(x: Tensor, start: int, stop: int) -> Tensor:
    last = x.shape[-1] if x.data.ndim else 0
    if not (0 <= start <= stop <= last):
        raise ShapeError(f"slice_lastdim: [{start}:{stop}] out of range for {x.shape}")
    out = x.data[..., start:stop]

    def bw(g):
        gx = np.zeros(x.shape, dtype=g.dtype)
        gx[..., start:stop] = g
        return [gx]

    return _make("slice_lastdim", out, [x], bw)


def transpose_last2(x: Tensor) -> Tensor:
    if x.data.ndim < 2:
        raise ShapeError(f"transpose_last2: need ndim >= 2, got {x.shape}")
    out = np.swapaxes(x.data, -1, -2).copy()

    def bw(g):
        return [np.swapaxes(g, -1, -2)]

    return _make("transpose_last2", out, [x], bw)


def causal_mask_fill(x: Tensor) -> Tensor:
    """Overwrite score entries where key position > query position."""
    xd = x.data
    if xd.ndim < 2 or xd.shape[-1] != xd.shape[-2]:
        raise ShapeError(f"causal_mask_fill: last two dims must be square, got {x.shape}")
    s = xd.shape[-1]
    keep = np.tril(np.ones((s, s), dtype=bool))
    out = np.where(keep, xd, np.asarray(_MASK_FILL, dtype=xd.dtype))

    def bw(g):
        return [np.where(keep, g, 0.0)]

    return _make("causal_mask_fill", out, [x], bw)


# ---------------------------------------------------------------------------
# backward


def _topo(loss: Tensor) -> list:
    order, seen = [], set()
    stack = [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if id(t) in seen:
            continue
        if expanded:
            seen.add(id(t))
            order.append(t)
            continue
        stack.append((t, True))
        if t.node is not None:
            for i in t.node.inputs:
                if id(i) not in seen:
                    stack.append((i, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate .grad of every reachable requires_grad tensor, then free the graph."""
    if loss.data.shape != ():
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    order = _topo(loss)
    grads = {id(loss): np.asarray(1.0, dtype=loss.data.dtype)}
    for t in reversed(order):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t.node is None:
            if t.requires_grad:
                if t.grad is None:
                    t.grad = np.array(g, dtype=t.data.dtype, copy=True).reshape(t.shape)
                else:
                    t.grad = t.grad + g.astype(t.data.dtype).reshape(t.shape)
            continue
        in_grads = t.node.backward_fn(g)
        for inp, ig in zip(t.node.inputs, in_grads):
            if ig is None or not inp.requires_grad:
                continue
            key = id(inp)
            if key in grads:
                grads[key] = grads[key] + ig
            else:
                grads[key] = ig
    for t in order:
        if t.node is not None:
            t.node = None


# ---------------------------------------------------------------------------
# finite-difference checker


def gradcheck(f, params: Sequence[Tensor], eps: float = 1e-3, seed: int = 0,
              sample_limit: Optional[int] = None) -> float:
    """Compare backward() against central differences, in float64.

    Returns the max over checked entries of
    |analytic - fd| / max(1e-8, |analytic| + |fd|).
    `sample_limit` caps the number of probed entries per parameter
    (chosen by `seed`); by default every entry is probed.
    """
    if eps <= 0:
        raise ContractError("gradcheck: eps must be positive")
    saved = [(p.data, p.grad) for p in params]
    rng = np.random.default_rng(seed)
    try:
        for p in params:
            p.data = p.data.astype(np.float64)
            p.grad = None
        l1 = f(params)
        v1 = float(l1.data)
        l2 = f(params)
        if float(l2.data) != v1:
            raise DeterminismError(
                "gradcheck: function is not deterministic under frozen noise"
            )
        loss = f(params)
        backward(loss)
        analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

        worst = 0.0
        for p, an in zip(params, analytic):
            flat = p.data.reshape(-1)
            idxs = np.arange(flat.size)
            if sample_limit is not None and flat.size > sample_limit:
                idxs = rng.choice(flat.size, size=sample_limit, replace=False)
            an_flat = an.reshape(-1)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + eps
                lp = float(f(params).data)
                flat[i] = orig - eps
                lm = float(f(params).data)
                flat[i] = orig
                fd = (lp - lm) / (2.0 * eps)
                a = float(an_flat[i])
                err = abs(a - fd) / max(1e-8, abs(a) + abs(fd))
                if err > worst:
                    worst = err
        return worst
    finally:
        for p, (d, g) in zip(params, saved):
            p.data = d
            p.grad = g
