"""Dense extraction: physically remove masked units and fold the kept gate
scales into adjacent weights so the small model computes exactly what the
masked model computes.

Fold placement mirrors the gating sites: the width gate's kept scales go
into embedding columns, the rows of every matrix that reads the stream
(wq/wk/wv/wu and the classifier), and the columns+biases of every matrix
that writes it (wo/wd). Head scales go into wo rows, intermediate scales
into wd rows, FFN-output scales into wd columns, sub-layer scales into
wo/wd wholesale.

Because the masked model normalizes over the full width with dropped dims
pinned at zero, the dense model's norms keep the original width as divisor
and add back the dropped dims' exact contribution (each is 0, so it only
shifts the mean/variance by a closed-form amount).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DegenerateModelError
from .model import GatedTransformer, ModelConfig, Structure, structure
from .objective import count
from .tensor import _gelu, _normalize, _softmax, _widen


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`x @ w + b`, the bias added in place: a second array of the product's
    size costs more than the add."""
    y = x @ w
    y += b
    return y


@dataclass
class DenseModel:
    """Gate-free pruned model; forward is plain numpy."""

    orig: ModelConfig
    structure: Structure        # the kept units, in the original grid
    arrays: dict                # the kept arrays, by the teacher's parameter names
    # per alive FFN layer: wd and its bias widened with zero columns for the
    # dropped outputs, so the residual is a plain add: an indexed add on the
    # stream's last axis costs far more than the zero columns' products
    _wd: dict = field(init=False, repr=False, compare=False)
    # per alive attention layer: wq|wk|wv and their biases side by side, the
    # query columns scaled by 1/sqrt(head_dim): one GEMM, no score scaling
    _qkv: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        st, a, n = self.structure, self.arrays, self.d_kept
        self._wd, self._qkv = {}, {}
        qscale = np.float32(1.0 / math.sqrt(self.orig.head_dim))
        for i in range(self.orig.layers):
            if st.mha[i]:
                p = f"layer.{i}."
                self._qkv[i] = tuple(
                    np.concatenate([a[p + "wq" + t] * qscale, a[p + "wk" + t],
                                    a[p + "wv" + t]], axis=-1)
                    for t in (".weight", ".bias"))
            if st.ffn[i]:
                p = f"layer.{i}."
                pos = np.searchsorted(st.width, st.out[i])
                self._wd[i] = (_widen(a[p + "wd.weight"], pos, n),
                               _widen(a[p + "wd.bias"], pos, n))

    @property
    def d_kept(self) -> int:
        return int(self.structure.width.size)

    def _norm(self, x, gamma=None, beta=None):
        """Layer norm over kept dims with the original width as divisor."""
        y, _ = _normalize(x, self.orig.width)
        if gamma is not None:
            y *= gamma
            y += beta
        return y

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        c, st, a = self.orig, self.structure, self.arrays
        tokens = np.asarray(tokens)
        b, s = tokens.shape
        dh = c.head_dim
        # a new array, so the in-place adds below never reach the tables
        x = a["emb.tok"][tokens] + a["emb.pos"][np.arange(s)]
        for i in range(c.layers):
            p = f"layer.{i}."
            if st.mha[i]:
                xn = self._norm(x, a[p + "ln1.weight"], a[p + "ln1.bias"])
                nh = st.heads[i].size
                # every kept head at once: (b, s, 3*nh*dh) -> 3 x (b, nh, s, dh)
                qkv = _affine(xn, *self._qkv[i]).reshape(b, s, 3, nh, dh)
                q, k, v = qkv.transpose(2, 0, 3, 1, 4)
                scores = q @ k.transpose(0, 1, 3, 2)
                if c.causal:
                    scores[..., np.triu(np.ones((s, s), dtype=bool), 1)] = -1e9
                ctx = (_softmax(scores) @ v).transpose(0, 2, 1, 3)
                x += _affine(ctx.reshape(b, s, nh * dh), a[p + "wo.weight"],
                             a[p + "wo.bias"])
            if st.ffn[i]:
                xn2 = self._norm(x, a[p + "ln2.weight"], a[p + "ln2.bias"])
                mid, _ = _gelu(_affine(xn2, a[p + "wu.weight"], a[p + "wu.bias"]))
                x += _affine(mid, *self._wd[i])
        pooled = self._norm(x[:, -1 if c.causal else 0, :])
        return pooled @ a["cls.weight"] + a["cls.bias"]


def extract_dense(student: GatedTransformer) -> DenseModel:
    """Delete masked units from a binarized student; fold kept scales in."""
    if not isinstance(student, GatedTransformer) or student.gates is None:
        raise ContractError("extract_dense: expected a gated student model")
    if not student.binarized:
        raise ContractError("extract_dense: student must be binarized first")

    c, st = student.config, student.decision
    if st.width.size == 0:
        raise DegenerateModelError("extract_dense: no kept width dims")
    if not any(st.mha + st.ffn):
        raise DegenerateModelError("extract_dense: every sub-layer is gone")

    # the gate scales each array folds in: by name, (axis, scale over the full
    # axis) factors, multiplied in order; an array not named is copied unscaled.
    # The scales are mu: every entry the cut keeps has a hard mask of 1
    g, m = student.gates, student.gates.width.mu.data
    folds = {"emb.tok": [(1, m)], "emb.pos": [(1, m)], "cls.weight": [(0, m)]}
    for i in range(c.layers):
        p = f"layer.{i}."
        lm = g.layer_mha[i].mu.data
        for w in ("wq", "wk", "wv", "wu"):
            folds[p + w + ".weight"] = [(0, m)]
        folds[p + "wo.weight"] = [(0, np.repeat(g.heads[i].mu.data, c.head_dim)
                                   * float(lm[0])), (1, m)]
        folds[p + "wo.bias"] = [(0, np.repeat(lm, c.width)), (0, m)]
        out = g.out[i].mu.data * m * float(g.layer_ffn[i].mu.data[0])
        folds[p + "wd.weight"] = [(0, g.inter[i].mu.data), (1, out)]
        folds[p + "wd.bias"] = [(0, out)]

    # folded at full size, then cut to the kept sub-grid: the same products
    folded = {}
    for name, p in student.params.items():
        a = p.data
        for axis, scale in folds.get(name, ()):
            shape = [1] * a.ndim
            shape[axis] = -1
            a = a * scale.reshape(shape)
        folded[name] = a
    arrays = {name: a.astype(np.float32) for name, a in st.gather(c, folded).items()}
    return DenseModel(c, st, arrays)


# ---------------------------------------------------------------------------
# exact accounting


def param_count(model) -> int:
    """Parameters in the sparsity base that the model's kept structure keeps:
    the cost polynomial on its keep sums (every kept entry but the
    classifier bias's)."""
    return int(count(*kept_structure(model), "parameters"))


def kept_structure(model) -> tuple:
    """(config, Structure) of a dense model, or of a gated one: the decision
    `binarize` stored, or the hard masks at tau 0 (every unit of a teacher)."""
    if isinstance(model, DenseModel):
        return model.orig, model.structure
    if isinstance(model, GatedTransformer):
        return model.config, structure(model, 0.0)
    raise ContractError(f"unsupported model type {type(model).__name__}")


def flop_count(model, seq_len: int) -> int:
    """Forward FLOPs for one example at the given sequence length: the cost
    polynomial on the keep sums of the model's kept structure, rounded."""
    return round(count(*kept_structure(model), "flops", seq_len))


def sparsity_report(dense: DenseModel, seq_len: int) -> dict:
    """Sidecar payload describing the extracted structure and its ratios;
    the base of each ratio is the `count` of the full structure of the
    dense model's original config."""
    cfg, st = dense.orig, dense.structure
    full = Structure.full(cfg)
    params = param_count(dense)
    flops = flop_count(dense, seq_len)
    return {
        "d_kept": dense.d_kept,
        "heads_kept_per_layer": [int(h.size) for h in st.heads],
        "inter_kept_per_layer": [int(i.size) for i in st.inter],
        "out_kept_per_layer": [int(o.size) for o in st.out],
        "layers_kept": {"mha": list(st.mha), "ffn": list(st.ffn)},
        "params": params,
        "flops": flops,
        "seq_len": seq_len,
        "sparsity_params": 1.0 - params / count(cfg, full, "parameters"),
        "sparsity_flops": 1.0 - flops / round(count(cfg, full, "flops", seq_len)),
        "structure": st.to_json(),
    }


def survival_masks(student: GatedTransformer, tau: float = 0.0) -> dict:
    """Boolean mask per parameter tensor: True where the entry survives the
    current hard masks, the only entries finetuning may change."""
    if student.gates is None:
        raise ContractError("survival_masks: model has no gates")
    st = structure(student, tau)
    masks = {name: np.zeros(p.data.shape, dtype=bool)
             for name, p in student.params.items()}
    st.scatter(student.config, masks, dict.fromkeys(st.layout(student.config), True))
    return masks
