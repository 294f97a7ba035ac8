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
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateModelError
from .model import GatedTransformer, ModelConfig, Structure, structure
from .objective import flops_from_sums
from .tensor import _gelu, _normalize, _softmax


def _widen(a: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """`a` with its last-axis entries at positions `idx` of a zero last axis
    of length n."""
    out = np.zeros(a.shape[:-1] + (n,), dtype=a.dtype)
    out[..., idx] = a
    return out


@dataclass
class DenseModel:
    """Gate-free pruned model; forward is plain numpy."""

    orig: ModelConfig
    structure: Structure        # the kept units, in the original grid
    layers: list                # per layer, its kept arrays (none if it is dead)
    arrays: dict                # emb.tok, emb.pos, cls.weight, cls.bias

    @property
    def d_kept(self) -> int:
        return int(self.structure.width.size)

    def _norm(self, x, gamma=None, beta=None):
        """Layer norm over kept dims with the original width as divisor."""
        y, _ = _normalize(x, width=self.orig.width)
        if gamma is not None:
            y *= gamma
            y += beta
        return y

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        c, st = self.orig, self.structure
        tokens = np.asarray(tokens)
        b, s = tokens.shape
        dh = c.head_dim
        a = self.arrays
        # a new array, so the in-place adds below never reach the tables
        x = a["emb.tok"][tokens] + a["emb.pos"][np.arange(s)]
        for i, w in enumerate(self.layers):
            if st.mha[i]:
                xn = self._norm(x, w["ln1.weight"], w["ln1.bias"])
                nh = st.heads[i].size
                # every kept head at once: (b, s, nh*dh) -> (b, nh, s, dh)
                q, k, v = ((xn @ w[n + ".weight"] + w[n + ".bias"])
                           .reshape(b, s, nh, dh).transpose(0, 2, 1, 3)
                           for n in ("wq", "wk", "wv"))
                scores = q @ k.transpose(0, 1, 3, 2)
                scores *= 1.0 / math.sqrt(dh)
                if c.causal:
                    scores[..., np.triu(np.ones((s, s), dtype=bool), 1)] = -1e9
                ctx = (_softmax(scores) @ v).transpose(0, 2, 1, 3)
                x += ctx.reshape(b, s, nh * dh) @ w["wo.weight"] + w["wo.bias"]
            if st.ffn[i]:
                xn2 = self._norm(x, w["ln2.weight"], w["ln2.bias"])
                mid, _ = _gelu(xn2 @ w["wu.weight"] + w["wu.bias"])
                # wd widened with zero columns for the dropped outputs, so the
                # residual is a plain add: an indexed add on the stream's last
                # axis costs far more than the zero columns' products
                pos = np.searchsorted(st.width, st.out[i])
                x += (mid @ _widen(w["wd.weight"], pos, self.d_kept)
                      + _widen(w["wd.bias"], pos, self.d_kept))
        pooled = self._norm(x[:, -1 if c.causal else 0, :])
        return pooled @ a["cls.weight"] + a["cls.bias"]


def extract_dense(student: GatedTransformer) -> DenseModel:
    """Delete masked units from a binarized student; fold kept scales in."""
    if not isinstance(student, GatedTransformer) or student.gates is None:
        raise ContractError("extract_dense: expected a gated student model")
    if not student.binarized:
        raise ContractError("extract_dense: student must be binarized first")

    c = student.config
    g = student.gates
    dh = c.head_dim
    st = structure(student, 0.0)  # masks are frozen; tau plays no part
    width_idx = st.width
    if width_idx.size == 0:
        raise DegenerateModelError("extract_dense: no kept width dims")
    if not any(st.mha + st.ffn):
        raise DegenerateModelError("extract_dense: every sub-layer is gone")
    mu_m = g.width.frozen[width_idx]  # mu * hard on kept dims

    p = {k: v.data for k, v in student.params.items()}
    arrays = {
        "emb.tok": p["emb.tok"][:, width_idx] * mu_m,
        "emb.pos": p["emb.pos"][:, width_idx] * mu_m,
        "cls.weight": p["cls.weight"][width_idx] * mu_m[:, None],
        "cls.bias": p["cls.bias"].copy(),
    }

    layers = []
    for i in range(c.layers):
        pre = f"layer.{i}."
        lay = {}
        if st.mha[i]:
            head_idx = st.heads[i]
            mu_lm = float(g.layer_mha[i].frozen[0])
            mu_a = g.heads[i].frozen[head_idx]
            col_sel = (head_idx[:, None] * dh + np.arange(dh)).reshape(-1)
            lay["ln1.weight"] = p[pre + "ln1.weight"][width_idx].copy()
            lay["ln1.bias"] = p[pre + "ln1.bias"][width_idx].copy()
            for w in ("wq", "wk", "wv"):
                # rows: kept width, scaled by the width gate (read side)
                wm = p[pre + w + ".weight"][np.ix_(width_idx, col_sel)] * mu_m[:, None]
                lay[w + ".weight"] = wm
                lay[w + ".bias"] = p[pre + w + ".bias"][col_sel].copy()
            row_scale = np.repeat(mu_a, dh) * mu_lm
            wo = p[pre + "wo.weight"][np.ix_(col_sel, width_idx)]
            lay["wo.weight"] = wo * row_scale[:, None] * mu_m[None, :]
            lay["wo.bias"] = p[pre + "wo.bias"][width_idx] * mu_lm * mu_m

        if st.ffn[i]:
            inter_idx, out_orig = st.inter[i], st.out[i]
            mu_lf = float(g.layer_ffn[i].frozen[0])
            mu_i = g.inter[i].frozen[inter_idx]
            mu_o = g.out[i].frozen[out_orig]
            mu_m_out = g.width.frozen[out_orig]
            lay["ln2.weight"] = p[pre + "ln2.weight"][width_idx].copy()
            lay["ln2.bias"] = p[pre + "ln2.bias"][width_idx].copy()
            wu = p[pre + "wu.weight"][np.ix_(width_idx, inter_idx)] * mu_m[:, None]
            lay["wu.weight"] = wu
            lay["wu.bias"] = p[pre + "wu.bias"][inter_idx].copy()
            wd = p[pre + "wd.weight"][np.ix_(inter_idx, out_orig)]
            col_scale = mu_o * mu_m_out * mu_lf
            lay["wd.weight"] = wd * mu_i[:, None] * col_scale[None, :]
            lay["wd.bias"] = p[pre + "wd.bias"][out_orig] * col_scale
        layers.append({k: v.astype(np.float32) for k, v in lay.items()})

    arrays = {k: v.astype(np.float32) for k, v in arrays.items()}
    return DenseModel(c, st, layers, arrays)


# ---------------------------------------------------------------------------
# exact accounting


def param_count(model) -> int:
    """Parameters in the sparsity base, by direct enumeration of arrays."""
    if isinstance(model, DenseModel):
        total = sum(a.size for a in model.arrays.values())
        total += sum(a.size for lay in model.layers for a in lay.values())
        return int(total - model.arrays["cls.bias"].size)
    if isinstance(model, GatedTransformer):
        return int(sum(p.data.size for n, p in model.params.items() if n != "cls.bias"))
    raise ContractError("param_count: unsupported model type")


def kept_structure(model) -> tuple:
    """(config, Structure) of a dense model, or of a gated one under its
    hard masks (every unit of a teacher)."""
    if isinstance(model, DenseModel):
        return model.orig, model.structure
    if isinstance(model, GatedTransformer):
        return model.config, structure(model, 0.0)
    raise ContractError(f"unsupported model type {type(model).__name__}")


def flop_count(model, seq_len: int) -> int:
    """Forward FLOPs for one example at the given sequence length."""
    cfg, st = kept_structure(model)
    return int(round(flops_from_sums(cfg, seq_len, *st.keep_sums())))


def sparsity_report(dense: DenseModel, teacher_params: int, teacher_flops: int,
                    seq_len: int) -> dict:
    """Sidecar payload describing the extracted structure and its ratios."""
    st = dense.structure
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
        "sparsity_params": 1.0 - params / teacher_params,
        "sparsity_flops": 1.0 - flops / teacher_flops,
        "structure": st.to_json(),
    }


def survival_masks(student: GatedTransformer, tau: float = 0.0) -> dict:
    """Boolean mask per parameter tensor: True where the entry survives the
    current hard masks (used to freeze pruned entries during finetuning)."""
    if student.gates is None:
        raise ContractError("survival_masks: model has no gates")
    c = student.config
    st = structure(student, tau)

    def keep(idx, n):
        m = np.zeros(n, dtype=bool)
        m[idx] = True
        return m

    hm = keep(st.width, c.width)
    masks = {
        "emb.tok": np.broadcast_to(hm, (c.vocab_size, c.width)),
        "emb.pos": np.broadcast_to(hm, (c.max_seq, c.width)),
        "cls.weight": np.broadcast_to(hm[:, None], (c.width, c.num_classes)),
        "cls.bias": np.ones(c.num_classes, dtype=bool),
    }
    for i in range(c.layers):
        pre = f"layer.{i}."
        # a dead sub-layer keeps no heads/units, so only its norm and the
        # bias it adds to the stream need its flag
        ha = np.repeat(keep(st.heads[i], c.heads), c.head_dim)
        hi = keep(st.inter[i], c.ffn_dim)
        ho = keep(st.out[i], c.width)
        masks[pre + "ln1.weight"] = hm & st.mha[i]
        masks[pre + "ln1.bias"] = hm & st.mha[i]
        for w in ("wq", "wk", "wv"):
            masks[pre + w + ".weight"] = np.outer(hm, ha)
            masks[pre + w + ".bias"] = ha
        masks[pre + "wo.weight"] = np.outer(ha, hm)
        masks[pre + "wo.bias"] = hm & st.mha[i]
        masks[pre + "ln2.weight"] = hm & st.ffn[i]
        masks[pre + "ln2.bias"] = hm & st.ffn[i]
        masks[pre + "wu.weight"] = np.outer(hm, hi)
        masks[pre + "wu.bias"] = hi
        masks[pre + "wd.weight"] = np.outer(hi, ho)
        masks[pre + "wd.bias"] = ho
    return masks
