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
  * a backward rule computes no gradient for an input that does not require
    one (a constant, a frozen weight): it returns None in its place.
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

    The cube is written as products: `x**3` is a slow generic power. Each
    step works in place on one of two fresh arrays; a temporary per step
    costs more than its arithmetic at these sizes."""
    t = np.multiply(x, x, out=np.empty_like(x))  # an array also for 0-d x
    t *= x
    t *= _GELU_K1
    t += x
    t *= _GELU_K0
    np.tanh(t, out=t)
    y = 1.0 + t
    y *= x
    y *= 0.5
    return y, t


def _softmax(x: np.ndarray) -> np.ndarray:
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
    return e


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
    xc *= inv
    return xc, inv


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = a.data + b.data

    def bw(g):
        return [_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None]

    return _make("add", out, [a, b], bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bw(g):
        return [_unbroadcast(g * bd, a.shape) if a.requires_grad else None,
                _unbroadcast(g * ad, b.shape) if b.requires_grad else None]

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
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast_matmul(np.matmul(G, np.swapaxes(B, -1, -2)),
                                     A.shape).reshape(ad.shape)
        if b.requires_grad:
            gb = _unbroadcast_matmul(np.matmul(np.swapaxes(A, -1, -2), G),
                                     B.shape).reshape(bd.shape)
        return [ga, gb]

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


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """`x @ w + b` for x of shape (..., k), w (k, n) and b (n,) or None.

    Every product, forward and backward, is one 2-D GEMM over the flattened
    rows of x. In the backward this is for speed: a stacked product with the
    transposed weight view leaves BLAS' fast path. The forward is no faster
    than numpy's stacked product at these sizes (slower at 640 and 5120 rows
    of 64); it stays 2-D because the benchmark's `dense_time_over_flops`
    divides the dense model's serving time by the gated teacher's, so a faster
    shared forward would read as a dense regression. Revisit it once that
    ratio times the dense model on its own."""
    xd, wd = x.data, w.data
    if xd.ndim == 0 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"linear: cannot apply weight {wd.shape} to {xd.shape}")
    if b is not None and b.shape != wd.shape[1:]:
        raise ShapeError(f"linear: bias {b.shape} does not match weight {wd.shape}")
    k, n = wd.shape
    x2 = xd.reshape(-1, k)
    out = x2 @ wd
    if b is not None:
        out = out + b.data
    out = out.reshape(xd.shape[:-1] + (n,))

    def bw(g):
        g2 = g.reshape(-1, n)
        return [(g2 @ wd.T).reshape(xd.shape) if x.requires_grad else None,
                x2.T @ g2 if w.requires_grad else None,
                g2.sum(axis=0) if b is not None and b.requires_grad else None]

    return _make("linear", out, [x, w] if b is None else [x, w, b], bw)


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
        # g * (0.5 * (1 + t) + 0.5 * x * (1 - t*t) * K0 * (1 + 3 * K1 * x*x)),
        # in place where the operand order allows
        inner = xd * xd
        inner *= 3.0 * _GELU_K1
        inner += 1.0
        inner *= _GELU_K0
        dx = 1.0 - t * t
        dx *= xd
        dx *= 0.5
        dx *= inner
        out = 1.0 + t
        out *= 0.5
        out += dx
        out *= g
        return [out]

    return _make("gelu", out, [x], bw)


def softmax_lastdim(x: Tensor) -> Tensor:
    xd = x.data
    if xd.ndim == 0:
        raise ShapeError("softmax_lastdim: scalar input")
    out = _softmax(xd)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True, dtype=np.float64).astype(g.dtype)
        gx = g - dot
        gx *= out
        return [gx]

    return _make("softmax_lastdim", out, [x], bw)


def layer_norm_lastdim(x: Tensor, weight: Optional[Tensor] = None,
                       bias: Optional[Tensor] = None) -> Tensor:
    """Normalize the last dim to zero mean, unit variance, then apply the
    affine `* weight + bias` when both are given (vectors over the last dim)."""
    xd = x.data
    if xd.ndim == 0:
        raise ShapeError("layer_norm_lastdim: scalar input")
    if (weight is None) != (bias is None):
        raise ShapeError("layer_norm_lastdim: give both weight and bias, or neither")
    affine = weight is not None
    if affine and not weight.shape == bias.shape == xd.shape[-1:]:
        raise ShapeError(f"layer_norm_lastdim: affine {weight.shape}, {bias.shape} "
                         f"does not match {xd.shape}")
    y, inv = _normalize(xd)
    out = y
    if affine:
        out = y * weight.data
        out += bias.data
    lead = tuple(range(xd.ndim - 1))

    def bw(g):
        gx = gw = gb = None
        if x.requires_grad:
            gy = g * weight.data if affine else g
            gm = gy.mean(axis=-1, keepdims=True, dtype=np.float64).astype(gy.dtype)
            gv = (gy * y).mean(axis=-1, keepdims=True, dtype=np.float64).astype(gy.dtype)
            gx = gy - gm
            gx -= y * gv
            gx *= inv
        if affine and weight.requires_grad:
            gw = (g * y).sum(axis=lead)
        if affine and bias.requires_grad:
            gb = g.sum(axis=lead)
        return [gx, gw, gb]

    return _make("layer_norm_lastdim", out, [x, weight, bias] if affine else [x], bw)


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
        for p, w in zip(parts, widths):
            grads.append(g[..., ofs : ofs + w] if p.requires_grad else None)
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


def split_heads(x: Tensor, heads: int, keys: bool = False) -> Tensor:
    """(batch, seq, heads*dh) -> (batch, heads, seq, dh), a contiguous copy;
    with `keys`, (batch, heads, dh, seq), the layout a score product reads."""
    xd = x.data
    if xd.ndim != 3 or heads < 1 or xd.shape[-1] % heads:
        raise ShapeError(f"split_heads: cannot split {x.shape} into {heads} heads")
    b, s, w = xd.shape
    perm = (0, 2, 3, 1) if keys else (0, 2, 1, 3)
    out = np.ascontiguousarray(xd.reshape(b, s, heads, w // heads).transpose(perm))
    undo = tuple(np.argsort(perm))

    def bw(g):
        return [g.transpose(undo).reshape(b, s, w)]

    return _make("split_heads", out, [x], bw)


def merge_heads(x: Tensor) -> Tensor:
    """(batch, heads, seq, dh) -> (batch, seq, heads*dh): `split_heads` undone."""
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"merge_heads: need (batch, heads, seq, dh), got {x.shape}")
    b, h, s, dh = xd.shape
    out = xd.transpose(0, 2, 1, 3).reshape(b, s, h * dh)

    def bw(g):
        return [np.ascontiguousarray(g.reshape(b, s, h, dh).transpose(0, 2, 1, 3))]

    return _make("merge_heads", out, [x], bw)


def repeat_lastdim(x: Tensor, n: int) -> Tensor:
    """Each entry of the last dim repeated `n` times in place: [a, b] -> [a, a, b, b]."""
    xd = x.data
    if xd.ndim == 0 or n < 1:
        raise ShapeError(f"repeat_lastdim: cannot repeat {x.shape} {n} times")
    out = np.repeat(xd, n, axis=-1)

    def bw(g):
        return [g.reshape(xd.shape + (n,)).sum(axis=-1)]

    return _make("repeat_lastdim", out, [x], bw)


def select_position(x: Tensor, pos: int) -> Tensor:
    """Entry `pos` of the second-to-last dim, kept as a dim of size 1:
    (batch, seq, d) -> (batch, 1, d)."""
    xd = x.data
    if xd.ndim < 2 or not 0 <= pos < xd.shape[-2]:
        raise ShapeError(f"select_position: no position {pos} in {x.shape}")
    out = xd[..., pos:pos + 1, :].copy()

    def bw(g):
        gx = np.zeros(xd.shape, dtype=g.dtype)
        gx[..., pos:pos + 1, :] = g
        return [gx]

    return _make("select_position", out, [x], bw)


def pick_lastdim(x: Tensor, index: np.ndarray) -> Tensor:
    """One entry of the last dim per leading index: out[i] = x[i, index[i]]."""
    xd = x.data
    idx = np.asarray(index)
    if not np.issubdtype(idx.dtype, np.integer) or idx.shape != xd.shape[:-1]:
        raise ShapeError(f"pick_lastdim: index {idx.shape} does not match {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= xd.shape[-1]):
        raise ShapeError("pick_lastdim: index out of range")
    idx = idx[..., None]
    out = np.take_along_axis(xd, idx, axis=-1)[..., 0]

    def bw(g):
        gx = np.zeros(xd.shape, dtype=g.dtype)
        np.put_along_axis(gx, idx, g[..., None], axis=-1)
        return [gx]

    return _make("pick_lastdim", out, [x], bw)


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
