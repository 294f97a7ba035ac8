"""Span tracing of vibprune's layers, installed from outside the package.

`Tracer.install` wraps the public module-level functions of each layer
module, plus the few methods the per-layer metrics need, and rebinds every
name in the package that refers to the original function. A caller's
imported name (`pipeline.forward`, `model.gelu`, `objective.soft_keep`,
`cli.load_tensors`) is therefore traced as well as the defining module's own.

Each wrapped call records one span: name, start, end, parent and self time
(its duration minus the time its child spans cover). Spans live in flat
arrays while the run lasts and are written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

# the modules measured as layers; `analysis` and `errors` are left out
LAYERS = ("tensor", "gates", "model", "objective", "pipeline", "extract",
          "data", "checkpoint", "cli")

# a context-manager factory: wrapping it would time nothing useful
_SKIP = {"tensor.no_grad"}

# span tag bits: forward mode and model kind; the batch size sits above them
TAG_TRAIN = 1
TAG_GATED = 2
TAG_BATCH_SHIFT = 2

# bookkeeping the tracer itself adds, kept out of every layer's time
ACCOUNTING = "trace.grad_accounting"


# one span is FIELDS consecutive doubles in Tracer.buf
FIELDS = 8
F_NAME, F_PARENT, F_START, F_END, F_SELF, F_AUX, F_TAG, F_HIDDEN = range(FIELDS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # name, parent, start, end, self time, aux (a count the span records:
        # bytes, gradient entries, cache misses), tag (flags and batch size),
        # hidden (tracing work done inside the span)
        self.buf = array("d")
        self._stack: list[int] = []     # offsets of open spans in buf
        self._child: list[float] = []   # time of closed children, per open span
        self._patched: list[tuple] = []
        self.primitives: set[str] = set()   # names of wrapped graph primitives

    # -- recording ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.buf) // FIELDS

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        off = len(self.buf)
        parent = self._stack[-1] // FIELDS if self._stack else -1
        self._stack.append(off)
        self._child.append(0.0)
        self.buf.extend((nid, parent, time.perf_counter(), 0.0, 0.0, 0.0, 0.0, 0.0))
        return off

    def close(self, off: int) -> None:
        t = time.perf_counter()
        buf = self.buf
        buf[off + F_END] = t
        dur = t - buf[off + F_START]
        self._stack.pop()
        buf[off + F_SELF] = dur - self._child.pop()
        if self._child:
            self._child[-1] += dur

    def _hide(self, dt: float) -> None:
        """Charge tracing work done inside the open span to tracing."""
        if self._stack:
            self._child[-1] += dt
            self.buf[self._stack[-1] + F_HIDDEN] += dt

    def _accounting(self, fn, *args):
        """Run a count that only tracing needs, inside its own span."""
        off = self.open(self.intern(ACCOUNTING))
        try:
            return fn(*args)
        finally:
            self.close(off)

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name: str, after=None, before=None):
        """`before(args)` runs under the accounting span and its value goes
        to `after(off, args, out, pre)`, which runs once the span is closed."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = self._accounting(before, args) if before else None
            off = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(off)
            if after:
                t0 = time.perf_counter()
                after(off, args, out, pre)
                self._hide(time.perf_counter() - t0)
            return out

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the layers of an imported vibprune package.

        `modules` maps short module names to the package's imported modules;
        each of them gets its references to wrapped functions rebound.
        """
        tensor = modules["tensor"]
        special = {
            "tensor.backward": lambda fn, name: self._wrap_backward(fn, tensor),
            "model.forward": lambda fn, name: self._wrap(
                fn, name, after=self._after_forward),
        }
        replaced = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in _SKIP
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if name in special:
                    w = special[name](fn, name)
                elif layer == "tensor" and "_make" in fn.__code__.co_names:
                    w = self._wrap(fn, name, after=self._after_primitive(tensor.Tensor))
                    self.primitives.add(name)
                else:
                    w = self._wrap(fn, name)
                replaced[id(fn)] = (fn, w)

        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

        pipeline, extract = modules["pipeline"], modules["extract"]
        self._patch_method(pipeline.AdamW, "step", "pipeline.AdamW.step",
                           before=_adamw_consumed, after=self._store_pre)
        self._patch_method(pipeline._TeacherCache, "get",
                           "pipeline._TeacherCache.get",
                           before=_cache_miss, after=self._store_pre)
        self._patch_method(extract.DenseModel, "forward",
                           "extract.DenseModel.forward", after=self._after_dense)

    def _patch_method(self, cls, attr, name, after=None, before=None):
        orig = getattr(cls, attr)
        self._patched.append((cls, attr, orig))
        setattr(cls, attr, self._wrap(orig, name, after=after, before=before))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- what a span records besides its times -------------------------------

    def _store_pre(self, off, args, out, pre):
        self.buf[off + F_AUX] = pre

    def _after_primitive(self, tensor_cls):
        """Bytes a primitive reads and writes, computed from tensor sizes."""
        def after(off, args, out, pre):
            n = out.data.nbytes
            for a in args:
                if isinstance(a, tensor_cls):
                    n += a.data.nbytes
                elif isinstance(a, (list, tuple)):
                    n += sum(p.data.nbytes for p in a if isinstance(p, tensor_cls))
            self.buf[off + F_AUX] = n
        return after

    def _after_forward(self, off, args, out, pre):
        model, tokens = args[0], args[1]
        mode = args[2] if len(args) > 2 else "eval"
        tag = TAG_TRAIN if mode == "train" else 0
        tag |= TAG_GATED if model.gates is not None else 0
        self.buf[off + F_TAG] = tag | (int(np.shape(tokens)[0]) << TAG_BATCH_SHIFT)

    def _after_dense(self, off, args, out, pre):
        self.buf[off + F_TAG] = int(np.shape(args[1])[0]) << TAG_BATCH_SHIFT

    def _wrap_backward(self, fn, tensor):
        """Count the gradient entries backward produces for leaf tensors."""
        nid = self.intern("tensor.backward")

        def leaves_of(loss):
            leaves = [t for t in tensor._topo(loss)
                      if t.node is None and t.requires_grad]
            return leaves, [t.grad for t in leaves]

        def produced(leaves, before):
            return sum(t.grad.size for t, g in zip(leaves, before)
                       if t.grad is not None and t.grad is not g)

        @functools.wraps(fn)
        def traced(loss):
            leaves, before = self._accounting(leaves_of, loss)
            off = self.open(nid)
            try:
                fn(loss)
            finally:
                self.close(off)
            self.buf[off + F_AUX] = self._accounting(produced, leaves, before)

        return traced

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict:
        """One array per span field, indexed by span number."""
        spans = np.frombuffer(self.buf, dtype=np.float64).reshape(-1, FIELDS)
        ints = {"name": F_NAME, "parent": F_PARENT, "tag": F_TAG}
        floats = {"start": F_START, "end": F_END, "self": F_SELF, "aux": F_AUX,
                  "hidden": F_HIDDEN}
        out = {k: spans[:, f].astype(np.int64) for k, f in ints.items()}
        out.update({k: spans[:, f].copy() for k, f in floats.items()})
        return out

    def write(self, path: str) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def _cache_miss(args):
    cache, key = args[0], args[1]
    return 0.0 if key in cache._store else 1.0


def _adamw_consumed(args):
    """Gradient entries the optimizer step reads."""
    return float(sum(e["p"].grad.size for e in args[0].entries
                     if e["p"].grad is not None))
