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
from .gates import effective_hard
from .model import GatedTransformer, ModelConfig
from .objective import flops_from_sums
from .tensor import _gelu, _normalize, _softmax


def _widen(a: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """`a` with its last-axis entries at positions `idx` of a zero last axis
    of length n."""
    out = np.zeros(a.shape[:-1] + (n,), dtype=a.dtype)
    out[..., idx] = a
    return out


@dataclass
class DenseLayer:
    mha_alive: bool
    ffn_alive: bool
    head_idx: np.ndarray        # kept head indices in the original grid
    inter_idx: np.ndarray
    out_idx: np.ndarray         # kept FFN output dims, positions in the kept width
    arrays: dict = field(default_factory=dict)


@dataclass
class DenseModel:
    """Gate-free pruned model; forward is plain numpy."""

    orig: ModelConfig
    width_idx: np.ndarray       # kept width dims in the original grid
    layers: list
    arrays: dict                # emb.tok, emb.pos, cls.weight, cls.bias

    @property
    def d_kept(self) -> int:
        return int(self.width_idx.size)

    def _norm(self, x, gamma=None, beta=None):
        """Layer norm over kept dims with the original width as divisor."""
        y, _ = _normalize(x, width=self.orig.width)
        if gamma is not None:
            y *= gamma
            y += beta
        return y

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        c = self.orig
        tokens = np.asarray(tokens)
        b, s = tokens.shape
        dh = c.head_dim
        a = self.arrays
        # a new array, so the in-place adds below never reach the tables
        x = a["emb.tok"][tokens] + a["emb.pos"][np.arange(s)]
        for lay in self.layers:
            w = lay.arrays
            if lay.mha_alive:
                xn = self._norm(x, w["ln1.weight"], w["ln1.bias"])
                nh = lay.head_idx.size
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
            if lay.ffn_alive:
                xn2 = self._norm(x, w["ln2.weight"], w["ln2.bias"])
                mid, _ = _gelu(xn2 @ w["wu.weight"] + w["wu.bias"])
                # wd widened with zero columns for the dropped outputs, so the
                # residual is a plain add: an indexed add on the stream's last
                # axis costs far more than the zero columns' products
                x += (mid @ _widen(w["wd.weight"], lay.out_idx, self.d_kept)
                      + _widen(w["wd.bias"], lay.out_idx, self.d_kept))
        pooled = self._norm(x[:, -1 if c.causal else 0, :])
        return pooled @ a["cls.weight"] + a["cls.bias"]

    def keep_sums(self):
        per_layer = []
        for lay in self.layers:
            per_layer.append((
                1.0 if lay.mha_alive else 0.0,
                1.0 if lay.ffn_alive else 0.0,
                float(lay.head_idx.size),
                float(lay.inter_idx.size),
                float(lay.out_idx.size),
            ))
        return float(self.d_kept), per_layer


def extract_dense(student) -> DenseModel:
    """Delete masked units from a binarized student; fold kept scales in."""
    if isinstance(student, DenseModel):
        return _copy_dense(student)
    if not isinstance(student, GatedTransformer) or student.gates is None:
        raise ContractError("extract_dense: expected a gated student model")
    if not student.binarized:
        raise ContractError("extract_dense: student must be binarized first")

    c = student.config
    g = student.gates
    dh = c.head_dim
    tau = 0.0  # masks are frozen; tau only guards non-binarized gates

    hm = effective_hard(g.width, tau).astype(bool)
    width_idx = np.flatnonzero(hm)
    if width_idx.size == 0:
        raise DegenerateModelError("extract_dense: no kept width dims")
    mu_m = g.width.frozen[width_idx]  # mu * hard on kept dims

    p = {k: v.data for k, v in student.params.items()}
    arrays = {
        "emb.tok": p["emb.tok"][:, width_idx] * mu_m,
        "emb.pos": p["emb.pos"][:, width_idx] * mu_m,
        "cls.weight": p["cls.weight"][width_idx] * mu_m[:, None],
        "cls.bias": p["cls.bias"].copy(),
    }

    layers = []
    any_alive = False
    for i in range(c.layers):
        pre = f"layer.{i}."
        mha_alive = bool(effective_hard(g.layer_mha[i], tau)[0])
        ffn_alive = bool(effective_hard(g.layer_ffn[i], tau)[0])
        head_idx = np.flatnonzero(effective_hard(g.heads[i], tau))
        inter_idx = np.flatnonzero(effective_hard(g.inter[i], tau))
        out_mask = effective_hard(g.out[i], tau).astype(bool) & hm
        out_orig = np.flatnonzero(out_mask)
        out_idx = np.searchsorted(width_idx, out_orig)
        lay = DenseLayer(mha_alive, ffn_alive, head_idx, inter_idx, out_idx)

        if mha_alive:
            any_alive = True
            mu_lm = float(g.layer_mha[i].frozen[0])
            mu_a = g.heads[i].frozen[head_idx]
            col_sel = np.concatenate(
                [np.arange(h * dh, (h + 1) * dh) for h in head_idx]
            ) if head_idx.size else np.zeros(0, dtype=int)
            lay.arrays["ln1.weight"] = p[pre + "ln1.weight"][width_idx].copy()
            lay.arrays["ln1.bias"] = p[pre + "ln1.bias"][width_idx].copy()
            for w in ("wq", "wk", "wv"):
                # rows: kept width, scaled by the width gate (read side)
                wm = p[pre + w + ".weight"][np.ix_(width_idx, col_sel)] * mu_m[:, None]
                lay.arrays[w + ".weight"] = wm
                lay.arrays[w + ".bias"] = p[pre + w + ".bias"][col_sel].copy()
            row_scale = np.repeat(mu_a, dh) * mu_lm
            wo = p[pre + "wo.weight"][np.ix_(col_sel, width_idx)]
            lay.arrays["wo.weight"] = wo * row_scale[:, None] * mu_m[None, :]
            lay.arrays["wo.bias"] = p[pre + "wo.bias"][width_idx] * mu_lm * mu_m

        if ffn_alive:
            any_alive = True
            mu_lf = float(g.layer_ffn[i].frozen[0])
            mu_i = g.inter[i].frozen[inter_idx]
            mu_o = g.out[i].frozen[out_orig]
            mu_m_out = g.width.frozen[out_orig]
            lay.arrays["ln2.weight"] = p[pre + "ln2.weight"][width_idx].copy()
            lay.arrays["ln2.bias"] = p[pre + "ln2.bias"][width_idx].copy()
            wu = p[pre + "wu.weight"][np.ix_(width_idx, inter_idx)] * mu_m[:, None]
            lay.arrays["wu.weight"] = wu
            lay.arrays["wu.bias"] = p[pre + "wu.bias"][inter_idx].copy()
            wd = p[pre + "wd.weight"][np.ix_(inter_idx, out_orig)]
            col_scale = mu_o * mu_m_out * mu_lf
            lay.arrays["wd.weight"] = wd * mu_i[:, None] * col_scale[None, :]
            lay.arrays["wd.bias"] = p[pre + "wd.bias"][out_orig] * col_scale
        layers.append(lay)

    if not any_alive:
        raise DegenerateModelError("extract_dense: every sub-layer is gone")
    for lay in layers:
        for k in lay.arrays:
            lay.arrays[k] = lay.arrays[k].astype(np.float32)
    for k in arrays:
        arrays[k] = arrays[k].astype(np.float32)
    return DenseModel(c, width_idx, layers, arrays)


def _copy_dense(m: DenseModel) -> DenseModel:
    layers = [DenseLayer(l.mha_alive, l.ffn_alive, l.head_idx.copy(),
                         l.inter_idx.copy(), l.out_idx.copy(),
                         {k: v.copy() for k, v in l.arrays.items()})
              for l in m.layers]
    return DenseModel(m.orig, m.width_idx.copy(), layers,
                      {k: v.copy() for k, v in m.arrays.items()})


# ---------------------------------------------------------------------------
# exact accounting


def param_count(model) -> int:
    """Parameters in the sparsity base, by direct enumeration of arrays."""
    if isinstance(model, DenseModel):
        total = sum(a.size for a in model.arrays.values())
        total += sum(a.size for lay in model.layers for a in lay.arrays.values())
        return int(total - model.arrays["cls.bias"].size)
    if isinstance(model, GatedTransformer):
        return int(sum(p.data.size for n, p in model.params.items() if n != "cls.bias"))
    raise ContractError("param_count: unsupported model type")


def flop_count(model, seq_len: int) -> int:
    """Forward FLOPs for one example at the given sequence length."""
    if isinstance(model, DenseModel):
        s_m, per_layer = model.keep_sums()
        return int(round(flops_from_sums(model.orig, seq_len, s_m, per_layer)))
    if isinstance(model, GatedTransformer):
        from .objective import full_keep_sums, hard_keep_sums

        if model.gates is None:
            s_m, per_layer = full_keep_sums(model.config)
        else:
            s_m, per_layer = hard_keep_sums(model, 0.0)
        return int(round(flops_from_sums(model.config, seq_len, s_m, per_layer)))
    raise ContractError("flop_count: unsupported model type")


def sparsity_report(dense: DenseModel, teacher_params: int, teacher_flops: int,
                    seq_len: int) -> dict:
    """Sidecar payload describing the extracted structure and its ratios."""
    c = dense.orig
    s_m, per_layer = dense.keep_sums()
    params = param_count(dense)
    flops = flop_count(dense, seq_len)
    return {
        "d_kept": dense.d_kept,
        "heads_kept_per_layer": [int(l.head_idx.size) for l in dense.layers],
        "inter_kept_per_layer": [int(l.inter_idx.size) for l in dense.layers],
        "out_kept_per_layer": [int(l.out_idx.size) for l in dense.layers],
        "layers_kept": {
            "mha": [bool(l.mha_alive) for l in dense.layers],
            "ffn": [bool(l.ffn_alive) for l in dense.layers],
        },
        "params": params,
        "flops": flops,
        "sparsity_params": 1.0 - params / teacher_params,
        "sparsity_flops": 1.0 - flops / teacher_flops,
        "structure": {
            "width_idx": dense.width_idx.tolist(),
            "head_idx": [l.head_idx.tolist() for l in dense.layers],
            "inter_idx": [l.inter_idx.tolist() for l in dense.layers],
            "out_idx": [l.out_idx.tolist() for l in dense.layers],
            "seq_len": seq_len,
        },
    }


def survival_masks(student: GatedTransformer, tau: float = 0.0) -> dict:
    """Boolean mask per parameter tensor: True where the entry survives the
    current hard masks (used to freeze pruned entries during finetuning)."""
    if student.gates is None:
        raise ContractError("survival_masks: model has no gates")
    c = student.config
    g = student.gates
    dh = c.head_dim
    hm = effective_hard(g.width, tau).astype(bool)
    masks = {
        "emb.tok": np.broadcast_to(hm, (c.vocab_size, c.width)),
        "emb.pos": np.broadcast_to(hm, (c.max_seq, c.width)),
        "cls.weight": np.broadcast_to(hm[:, None], (c.width, c.num_classes)),
        "cls.bias": np.ones(c.num_classes, dtype=bool),
    }
    for i in range(c.layers):
        pre = f"layer.{i}."
        lm = bool(effective_hard(g.layer_mha[i], tau)[0])
        lf = bool(effective_hard(g.layer_ffn[i], tau)[0])
        ha = np.repeat(effective_hard(g.heads[i], tau).astype(bool), dh)
        hi = effective_hard(g.inter[i], tau).astype(bool)
        ho = effective_hard(g.out[i], tau).astype(bool) & hm
        masks[pre + "ln1.weight"] = hm & lm
        masks[pre + "ln1.bias"] = hm & lm
        for w in ("wq", "wk", "wv"):
            masks[pre + w + ".weight"] = np.outer(hm, ha) & lm
            masks[pre + w + ".bias"] = ha & lm
        masks[pre + "wo.weight"] = np.outer(ha, hm) & lm
        masks[pre + "wo.bias"] = hm & lm
        masks[pre + "ln2.weight"] = hm & lf
        masks[pre + "ln2.bias"] = hm & lf
        masks[pre + "wu.weight"] = np.outer(hm, hi) & lf
        masks[pre + "wu.bias"] = hi & lf
        masks[pre + "wd.weight"] = np.outer(hi, ho) & lf
        masks[pre + "wd.bias"] = ho & lf
    return masks
