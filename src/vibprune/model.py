"""Gated transformer encoder.

One global width gate masks the residual stream wherever it is read or
written: the embedding output, each sub-layer's post-norm input, each
sub-layer's output, and the final pre-classifier norm. Per-layer gates
mask attention heads (one scalar per head, broadcast over that head's
output dims), FFN intermediate units, FFN output dims, and whole
sub-layers. This placement makes a dropped unit's weights provably
irrelevant, which is what lets extraction delete them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import ContractError, DataError, FormatError
from .gates import (
    GateInit,
    GateVector,
    Site,
    hard_mask,
    new_gate,
    normal32,
    sample_mask,
)
from .tensor import (
    Tensor,
    add,
    causal_mask_fill,
    concat_lastdim,
    constant,
    gather_rows,
    gelu,
    layer_norm_lastdim,
    linear,
    matmul,
    merge_heads,
    mul,
    no_grad,
    parameter,
    repeat_lastdim,
    scale,
    select_position,
    slice_lastdim,
    softmax_lastdim,
    split_heads,
    tsum,
    widen_lastdim,
    _widen,
)

WEIGHT_INIT_STD = 0.02


@dataclass
class ModelConfig:
    vocab_size: int
    max_seq: int
    width: int
    layers: int
    heads: int
    ffn_dim: int
    num_classes: int
    causal: bool = False

    def __post_init__(self):
        dims = (self.vocab_size, self.max_seq, self.width, self.layers,
                self.heads, self.ffn_dim, self.num_classes)
        if any(int(v) < 1 for v in dims):
            raise ContractError(f"ModelConfig: all dims must be >= 1, got {self}")
        if self.width % self.heads != 0:
            raise ContractError(
                f"ModelConfig: width {self.width} not divisible by heads {self.heads}"
            )

    @property
    def head_dim(self) -> int:
        return self.width // self.heads


@dataclass
class ForwardTrace:
    logits_t: Tensor                    # (batch, 1, classes), in the graph
    hidden_states: list                 # per layer, (batch, seq, kept width) tensors
    # per layer that computes attention, (batch, heads, seq, seq) arrays: every
    # layer of a full-size model
    attention_probs: list

    @property
    def logits(self) -> np.ndarray:
        b = self.logits_t.shape[0]
        return self.logits_t.data.reshape(b, -1)


class LayerSums(NamedTuple):
    """Per-layer keep sums, each a column over layers (a float array, or a
    graph vector): sub-layer keeps, kept heads, kept FFN units, and kept FFN
    outputs (keep_out * keep_width summed over width dims)."""

    mha: object
    ffn: object
    heads: object
    inter: object
    out: object


class GateSet:
    """All gates of one student model, in checkpoint order.

    The gate parameters stay the leaves; `vector` concatenates them on every
    call, so a write to any gate's arrays is seen at once. Only constants are
    built here: the 0/1 matrices that sum a per-unit vector in that order
    into per-layer groups."""

    def __init__(self, config: ModelConfig, init: GateInit, betas: dict):
        c = config
        seq = 0

        def mk(units, site):
            nonlocal seq
            g = new_gate(units, site, betas[site], replace(init, seed=init.seed + seq))
            seq += 1
            return g

        self.width = mk(c.width, Site.EMBEDDING_WIDTH)
        self.heads = [mk(c.heads, Site.HEADS) for _ in range(c.layers)]
        self.inter = [mk(c.ffn_dim, Site.FFN_INTERMEDIATE) for _ in range(c.layers)]
        self.out = [mk(c.width, Site.FFN_OUTPUT) for _ in range(c.layers)]
        self.layer_mha = [mk(1, Site.LAYER_MHA) for _ in range(c.layers)]
        self.layer_ffn = [mk(1, Site.LAYER_FFN) for _ in range(c.layers)]

        gates = self.all()
        self._sizes = [g.unit_count for g in gates]
        units = sum(self._sizes)
        start = dict(zip(map(id, gates), np.cumsum([0] + self._sizes[:-1])))
        # each site's units in `vector` order: width, heads, inter, out, mha, ffn
        self._sites = [slice(start[id(s[0])], start[id(s[-1])] + s[-1].unit_count)
                       for s in ([self.width], self.heads, self.inter, self.out,
                                 self.layer_mha, self.layer_ffn)]

        def member(group):
            m = np.zeros((units, c.layers), dtype=np.float32)
            for i, g in enumerate(group):
                m[start[id(g)]:start[id(g)] + g.unit_count, i] = 1.0
            return constant(m)

        self._member = LayerSums(member(self.layer_mha), member(self.layer_ffn),
                                 member(self.heads), member(self.inter),
                                 member(self.out))
        # copies the width keeps onto every FFN-output unit of the same dim
        tile = np.zeros((c.width, units), dtype=np.float32)
        for g in self.out:
            tile[np.arange(c.width), start[id(g)] + np.arange(c.width)] = 1.0
        self._tile = constant(tile)

    def named(self):
        yield "gate.embedding_width.0", self.width
        for i, g in enumerate(self.heads):
            yield f"gate.heads.{i}", g
        for i, g in enumerate(self.inter):
            yield f"gate.ffn_intermediate.{i}", g
        for i, g in enumerate(self.out):
            yield f"gate.ffn_output.{i}", g
        for i, g in enumerate(self.layer_mha):
            yield f"gate.layer_mha.{i}", g
        for i, g in enumerate(self.layer_ffn):
            yield f"gate.layer_ffn.{i}", g

    def all(self):
        return [g for _, g in self.named()]

    def vector(self) -> GateVector:
        """Every gate unit, in checkpoint order, as one pair of graph vectors."""
        gates = self.all()
        return GateVector(concat_lastdim([g.mu for g in gates]),
                          concat_lastdim([g.log_sigma for g in gates]))

    def structure_of(self, keep: np.ndarray) -> "Structure":
        """The units a boolean keep vector in `vector` order selects; a dead
        sub-layer keeps none, and an FFN output dim needs its width dim."""
        width, heads, inter, out, mha, ffn = (keep[s] for s in self._sites)

        def rows(block, alive):
            block = block.reshape(alive.size, -1) & alive[:, None]
            return tuple(map(np.flatnonzero, block))

        return Structure(np.flatnonzero(width), rows(heads, mha), rows(inter, ffn),
                         rows(out.reshape(ffn.size, -1) & width, ffn),
                         tuple(mha.tolist()), tuple(ffn.tolist()))

    def unit_betas(self) -> np.ndarray:
        """Each unit's information-cost weight, in `vector` order."""
        return np.repeat(np.array([g.beta for g in self.all()], dtype=np.float32),
                         self._sizes)

    def keep_sums(self, keep: Tensor):
        """(s_m, LayerSums) of a per-unit keep vector in `vector` order, as
        graph tensors; the soft counterpart of `Structure.keep_sums`."""
        k_m = slice_lastdim(keep, 0, self.width.unit_count)
        m = self._member
        pair = mul(keep, linear(k_m, self._tile))
        return tsum(k_m), LayerSums(linear(keep, m.mha), linear(keep, m.ffn),
                                    linear(keep, m.heads), linear(keep, m.inter),
                                    linear(pair, m.out))


def default_betas(config: ModelConfig, beta_global: float = 1e-3) -> dict:
    """Spread the information-cost weight evenly per unit within each group."""
    return {
        Site.EMBEDDING_WIDTH: beta_global / config.width,
        Site.HEADS: beta_global / config.heads,
        Site.FFN_INTERMEDIATE: beta_global / config.ffn_dim,
        Site.FFN_OUTPUT: beta_global / config.width,
        Site.LAYER_MHA: beta_global,
        Site.LAYER_FFN: beta_global,
    }


_NONE = np.zeros(0, dtype=np.int64)
_ONE = np.zeros(1, dtype=np.int64)      # the unit of a sub-layer gate


@dataclass(frozen=True, eq=False)
class Structure:
    """The units that survive the hard masks, as sorted indices into the
    original grid. A dead sub-layer keeps no units: its indices are empty.
    `binarize` stores the one that every later stage reads.
    """

    width: np.ndarray       # kept width dims
    heads: tuple            # per layer: kept attention heads
    inter: tuple            # per layer: kept FFN intermediate units
    out: tuple              # per layer: kept FFN output dims, a subset of `width`
    mha: tuple              # per layer: is the attention sub-layer alive
    ffn: tuple              # per layer: is the FFN sub-layer alive

    @staticmethod
    def full(config: ModelConfig) -> "Structure":
        c, alive = config, (True,) * config.layers
        return Structure(np.arange(c.width), (np.arange(c.heads),) * c.layers,
                         (np.arange(c.ffn_dim),) * c.layers,
                         (np.arange(c.width),) * c.layers, alive, alive)

    def keep_sums(self):
        """(s_m, LayerSums): the kept counts as floats, the per-layer ones
        float64 columns over layers, in the form the cost polynomial takes."""
        cols = (self.mha, self.ffn, [h.size for h in self.heads],
                [i.size for i in self.inter], [o.size for o in self.out])
        return float(self.width.size), LayerSums(*(np.array(c, dtype=np.float64)
                                                   for c in cols))

    def layout(self, config: ModelConfig) -> dict:
        """Every parameter array the structure keeps, by checkpoint name, as
        the kept indices into the full array along each of its axes. A dead
        sub-layer's arrays are absent; the full structure gives the teacher's."""
        c, d, dh = config, self.width, config.head_dim
        classes = np.arange(c.num_classes)
        lay = {"emb.tok": (np.arange(c.vocab_size), d),
               "emb.pos": (np.arange(c.max_seq), d),
               "cls.weight": (d, classes), "cls.bias": (classes,)}
        for i in range(c.layers):
            p = f"layer.{i}."
            if self.mha[i]:
                # a head's columns: dh consecutive entries of the head axis
                a = (self.heads[i][:, None] * dh + np.arange(dh)).reshape(-1)
                lay[p + "ln1.weight"] = lay[p + "ln1.bias"] = (d,)
                for w in ("wq", "wk", "wv"):
                    lay[p + w + ".weight"] = (d, a)
                    lay[p + w + ".bias"] = (a,)
                lay[p + "wo.weight"] = (a, d)
                lay[p + "wo.bias"] = (d,)
            if self.ffn[i]:
                n, o = self.inter[i], self.out[i]
                lay[p + "ln2.weight"] = lay[p + "ln2.bias"] = (d,)
                lay[p + "wu.weight"] = (d, n)
                lay[p + "wu.bias"] = (n,)
                lay[p + "wd.weight"] = (n, o)
                lay[p + "wd.bias"] = (o,)
        return lay

    def gather(self, config: ModelConfig, arrays: dict) -> dict:
        """The kept sub-grid of every array the structure keeps, from full
        arrays by name: a new array each."""
        return {name: arrays[name][np.ix_(*axes)]
                for name, axes in self.layout(config).items()}

    def scatter(self, config: ModelConfig, arrays: dict, sub: dict) -> None:
        """Write `sub`, kept sub-grids by name as `gather` returns them, into
        the full `arrays` in place; entries outside the sub-grids keep their bits."""
        for name, axes in self.layout(config).items():
            arrays[name][np.ix_(*axes)] = sub[name]

    def array_shapes(self, config: ModelConfig) -> dict:
        """Shape of every parameter array the structure keeps, by name."""
        return {name: tuple(ix.size for ix in axes)
                for name, axes in self.layout(config).items()}

    def to_json(self) -> dict:
        return {"width": self.width.tolist(),
                "heads": [h.tolist() for h in self.heads],
                "inter": [i.tolist() for i in self.inter],
                "out": [o.tolist() for o in self.out],
                "mha": list(self.mha), "ffn": list(self.ffn)}

    @staticmethod
    def from_json(obj, config: ModelConfig, shapes: dict) -> "Structure":
        """The structure `to_json` wrote, checked against `config` and against
        `shapes`, the array shapes of the checkpoint it describes. Any
        mismatch is a FormatError."""
        keys = ("width", "heads", "inter", "out", "mha", "ffn")
        if not isinstance(obj, dict) or any(k not in obj for k in keys):
            raise FormatError(f"structure: expected an object with keys {keys}")

        def per_layer(key):
            v = obj[key]
            if not isinstance(v, list) or len(v) != config.layers:
                raise FormatError(f"structure: '{key}' needs one entry per layer")
            return v

        def indices(v, n, what):
            if not isinstance(v, list) or any(type(i) is not int for i in v):
                raise FormatError(f"structure: '{what}' is not a list of integers")
            if any(not 0 <= i < n for i in v):
                raise FormatError(f"structure: '{what}' has an index outside [0, {n})")
            if any(a >= b for a, b in zip(v, v[1:])):
                raise FormatError(f"structure: '{what}' is not sorted and unique")
            return np.asarray(v, dtype=np.int64)

        c = config
        mha, ffn = per_layer("mha"), per_layer("ffn")
        if any(type(f) is not bool for f in mha + ffn):
            raise FormatError("structure: 'mha' and 'ffn' must hold true or false")
        st = Structure(
            indices(obj["width"], c.width, "width"),
            tuple(indices(v, c.heads, f"heads.{i}")
                  for i, v in enumerate(per_layer("heads"))),
            tuple(indices(v, c.ffn_dim, f"inter.{i}")
                  for i, v in enumerate(per_layer("inter"))),
            tuple(indices(v, c.width, f"out.{i}")
                  for i, v in enumerate(per_layer("out"))),
            tuple(mha), tuple(ffn))
        for i in range(c.layers):
            if not np.isin(st.out[i], st.width).all():
                raise FormatError(f"structure: 'out.{i}' keeps a dim outside 'width'")
            if ((not mha[i] and st.heads[i].size)
                    or (not ffn[i] and (st.inter[i].size or st.out[i].size))):
                raise FormatError(f"structure: layer {i} keeps units of a dead sub-layer")
        want = st.array_shapes(c)
        for name in sorted(set(want) | set(shapes)):
            if want.get(name) != shapes.get(name):
                raise FormatError(f"structure: array '{name}' has shape "
                                  f"{shapes.get(name)}, the structure needs {want.get(name)}")
        return st


def structure(model: GatedTransformer, tau: float) -> Structure:
    """The kept units under the hard masks at `tau`, thresholded once over the
    model's whole gate vector. A binarized model returns the decision
    `binarize` stored, whatever `tau`; an ungated one keeps all."""
    g = model.gates
    if model.decision is not None:
        return model.decision
    if g is None:
        return Structure.full(model.config)
    with no_grad():
        return g.structure_of(hard_mask(g.vector(), tau) > 0)


class GatedTransformer:
    def __init__(self, config: ModelConfig):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.gates: Optional[GateSet] = None
        # set by binarize: the kept structure every later reader takes
        self.decision: Optional[Structure] = None
        # a compact model's arrays are this structure's kept sub-grids
        self.kept: Optional[Structure] = None

    @property
    def binarized(self) -> bool:
        return self.decision is not None

    def named_params(self):
        for name in sorted(self.params):
            yield name, self.params[name]
        if self.gates is not None:
            for gname, g in self.gates.named():
                yield gname + ".mu", g.mu
                yield gname + ".log_sigma", g.log_sigma


def build_teacher(config: ModelConfig, seed: int) -> GatedTransformer:
    """Ungated model with scaled-normal (std 0.02) weight init."""
    m = GatedTransformer(config)
    rng = np.random.default_rng(seed)
    for name, shape in Structure.full(config).array_shapes(config).items():
        if name.endswith(".bias"):
            init = np.zeros(shape)
        elif ".ln1." in name or ".ln2." in name:
            init = np.ones(shape)
        else:
            init = rng.normal(0.0, WEIGHT_INIT_STD, size=shape)
        m.params[name] = parameter(init.astype(np.float32))
    return m


def build_student(teacher: GatedTransformer, gate_init: GateInit,
                  betas: dict) -> GatedTransformer:
    """Deep copy of the teacher with fresh gates at every placement site."""
    m = GatedTransformer(teacher.config)
    for name, p in teacher.params.items():
        m.params[name] = parameter(p.data.copy())
    m.gates = GateSet(teacher.config, gate_init, betas)
    return m


def compact(student: GatedTransformer) -> GatedTransformer:
    """The binarized student cut down to the structure `binarize` stored: a
    new parameter for the kept sub-grid of every array it keeps, and the
    student's gates, whose mu the forward reads at the kept units only. It
    computes what the student computes, at the kept width dims;
    `Structure.scatter` of its arrays writes them back."""
    if not student.binarized:
        raise ContractError("compact: student must be binarized")
    st = student.decision
    m = GatedTransformer(student.config)
    full = {name: p.data for name, p in student.params.items()}
    m.params = {name: parameter(a, a.dtype)
                for name, a in st.gather(m.config, full).items()}
    m.gates, m.decision, m.kept = student.gates, st, st
    return m


# ---------------------------------------------------------------------------
# forward


class _MaskPack:
    """Per-step gate masks in the form the forward pass consumes; an ungated
    model has no masks (every one is None)."""

    def __init__(self, model: GatedTransformer, mode: str, rng, tau: float,
                 batch: int, seqlen: int):
        c, g = model.config, model.gates
        if g is None:
            self.width = None
            self.heads = self.inter = self.out = [None] * c.layers
            self.lmha = self.lffn = [None] * c.layers
            return
        dh = c.head_dim
        if mode == "train" and not model.binarized:
            if rng is None:
                raise ContractError("forward: train mode needs an rng for gate noise")
            # one float32 draw a step, a contiguous block per gate: per token
            # for the unit gates, then per sample for the sub-layer gates
            units = [g.width, *g.heads, *g.inter, *g.out]
            whole = [*g.layer_mha, *g.layer_ffn]
            sizes = [batch * seqlen * u.unit_count for u in units] + [batch] * len(whole)
            blocks = np.split(normal32(rng, sum(sizes)), np.cumsum(sizes)[:-1])
            eps = {id(u): e.reshape(batch, seqlen, u.unit_count)
                   for u, e in zip(units, blocks)}
            eps.update((id(u), e.reshape(batch, 1, 1).repeat(seqlen, axis=1))
                       for u, e in zip(whole, blocks[len(units):]))

            def draw(gate):
                return sample_mask(gate, eps[id(gate)])

            self.width = draw(g.width)
            self.heads = [repeat_lastdim(draw(gh), dh) for gh in g.heads]
            self.inter = [draw(gi) for gi in g.inter]
            self.out = [draw(go) for go in g.out]
            self.lmha = [repeat_lastdim(draw(gl), c.width) for gl in g.layer_mha]
            self.lffn = [repeat_lastdim(draw(gl), c.width) for gl in g.layer_ffn]
        else:
            # mu at the units the structure keeps, widened with +0.0 for a
            # full-size model; a compact one reads them as they are
            st, full = structure(model, tau), model.kept is None

            def vec(gate, kept):
                v = gate.mu.data[kept]
                return _widen(v, kept, gate.unit_count) if full else v

            def each(gates, kept):
                return [constant(vec(gt, k)) for gt, k in zip(gates, kept)]

            self.width = constant(vec(g.width, st.width))
            self.heads = [constant(np.repeat(vec(gh, h), dh))
                          for gh, h in zip(g.heads, st.heads)]
            self.inter, self.out = each(g.inter, st.inter), each(g.out, st.out)
            self.lmha = each(g.layer_mha, [_ONE if a else _NONE for a in st.mha])
            self.lffn = each(g.layer_ffn, [_ONE if a else _NONE for a in st.ffn])


def _gate(x: Tensor, mask: Optional[Tensor]) -> Tensor:
    """`x` times a gate mask; without a mask, `x` itself."""
    return x if mask is None else mul(x, mask)


def forward(model: GatedTransformer, tokens: np.ndarray, mode: str = "eval",
            rng=None, tau: float = 0.0) -> ForwardTrace:
    """Run the model; gates are stochastic in train mode, mu at kept units in eval.
    A compact model (`compact`) runs the same code at the sizes of its
    arrays; its layer norms divide by the full width, as the full-size
    model's do over a stream whose pruned dims are zero."""
    c = model.config
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise DataError(f"forward: tokens must be (batch, seq), got {tokens.shape}")
    batch, seqlen = tokens.shape
    if seqlen > c.max_seq:
        raise DataError(f"forward: seq {seqlen} exceeds max {c.max_seq}")
    if tokens.min() < 0 or tokens.max() >= c.vocab_size:
        raise DataError("forward: token id out of vocabulary range")
    if mode not in ("train", "eval"):
        raise ContractError(f"forward: unknown mode '{mode}'")

    masks = _MaskPack(model, mode, rng, tau, batch, seqlen)
    p = model.params
    dh = c.head_dim

    pos = np.broadcast_to(np.arange(seqlen), (batch, seqlen))
    x = add(gather_rows(p["emb.tok"], tokens), gather_rows(p["emb.pos"], pos))
    x = _gate(x, masks.width)

    hidden_states = []
    attention_probs = []
    for i in range(c.layers):
        pre = f"layer.{i}."
        # a sub-layer runs if its arrays exist, at the sizes they have
        if pre + "wq.weight" in p:
            # attention sub-layer, every head at once: (batch, heads, seq, dh)
            heads = p[pre + "wq.weight"].shape[1] // dh
            if not heads:
                # no head kept: the sub-layer writes its output bias alone
                a = constant(np.zeros(x.shape[:-1] + (0,)))
            else:
                xn = layer_norm_lastdim(x, p[pre + "ln1.weight"], p[pre + "ln1.bias"],
                                        c.width)
                xr = _gate(xn, masks.width)
                q, k, v = (split_heads(linear(xr, p[pre + w + ".weight"],
                                              p[pre + w + ".bias"]),
                                       heads, keys=(w == "wk"))
                           for w in ("wq", "wk", "wv"))
                scores = scale(matmul(q, k), 1.0 / np.sqrt(dh))
                if c.causal:
                    scores = causal_mask_fill(scores)
                probs = softmax_lastdim(scores)
                attention_probs.append(probs.data)
                a = _gate(merge_heads(matmul(probs, v)), masks.heads[i])
            mha = linear(a, p[pre + "wo.weight"], p[pre + "wo.bias"])
            mha = _gate(_gate(mha, masks.lmha[i]), masks.width)
            x = add(x, mha)

        if pre + "wu.weight" in p:
            # feed-forward sub-layer
            xn2 = layer_norm_lastdim(x, p[pre + "ln2.weight"], p[pre + "ln2.bias"],
                                     c.width)
            xr2 = _gate(xn2, masks.width)
            mid = gelu(linear(xr2, p[pre + "wu.weight"], p[pre + "wu.bias"]))
            mid = _gate(mid, masks.inter[i])
            ffn = linear(mid, p[pre + "wd.weight"], p[pre + "wd.bias"])
            ffn = _gate(_gate(ffn, masks.out[i]), masks.lffn[i])
            if ffn.shape[-1] < x.shape[-1]:
                # a compact FFN writes only its kept outputs into the stream
                st = model.kept
                ffn = widen_lastdim(ffn, np.searchsorted(st.width, st.out[i]),
                                    x.shape[-1])
            x = add(x, _gate(ffn, masks.width))
        hidden_states.append(x)

    # parameter-free final norm, masked read, single-position pooling
    xf = _gate(layer_norm_lastdim(x, width=c.width), masks.width)
    pooled = select_position(xf, seqlen - 1 if c.causal else 0)           # (B,1,d)
    logits = linear(pooled, p["cls.weight"], p["cls.bias"])               # (B,1,C)

    return ForwardTrace(logits, hidden_states, attention_probs)

