"""Qualitative probes over a frozen model: where heads attend, how much
they duplicate each other, and what the final pruning pattern looks like.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError
from .extract import kept_structure
from .model import GatedTransformer, forward
from .tensor import no_grad


@dataclass
class AttentionStats:
    token_share: dict    # (layer, head) -> mean attention mass onto the token set
    offset_share: dict   # (layer, head) -> {-1: m, 0: m, +1: m}


def _alive_heads(model: GatedTransformer):
    """(layer, head) pairs that the model's kept structure keeps."""
    return [(i, int(h)) for i, heads in enumerate(kept_structure(model)[1].heads)
            for h in heads]


def _collect_probs(model: GatedTransformer, tokens: np.ndarray,
                   batch_size: int = 64):
    for i in range(0, len(tokens), batch_size):
        tb = tokens[i:i + batch_size].astype(np.int64)
        with no_grad():
            trace = forward(model, tb, "eval")
        yield tb, trace.attention_probs


def token_attention(model: GatedTransformer, tokens: np.ndarray,
                    token_ids) -> AttentionStats:
    """Mean attention mass onto positions holding the given tokens, and onto
    previous/current/next positions, per surviving head."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[0] == 0:
        raise DataError("token_attention: empty dataset")
    ids = np.asarray(sorted(set(int(t) for t in token_ids)), dtype=tokens.dtype)
    pairs = _alive_heads(model)
    sums = {p: 0.0 for p in pairs}
    off_sums = {p: {-1: 0.0, 0: 0.0, 1: 0.0} for p in pairs}
    n_rows = 0
    s = tokens.shape[1]
    off_counts = {-1: 0, 0: 0, 1: 0}
    for tb, probs in _collect_probs(model, tokens):
        b = tb.shape[0]
        marked = np.isin(tb, ids)                 # (b, s) key positions
        n_rows += b * s
        off_counts[-1] += b * (s - 1)
        off_counts[0] += b * s
        off_counts[1] += b * (s - 1)
        for (i, h) in pairs:
            p = probs[i][:, h]                    # (b, s, s)
            sums[(i, h)] += float((p * marked[:, None, :]).sum())
            diag = np.einsum("bss->bs", p)
            off_sums[(i, h)][0] += float(diag.sum())
            off_sums[(i, h)][-1] += float(
                np.einsum("bss->bs", p[:, 1:, :-1]).sum())
            off_sums[(i, h)][1] += float(
                np.einsum("bss->bs", p[:, :-1, 1:]).sum())
    token_share = {p: sums[p] / n_rows for p in pairs}
    offset_share = {
        p: {o: off_sums[p][o] / off_counts[o] for o in (-1, 0, 1)} for p in pairs
    }
    return AttentionStats(token_share, offset_share)


def js_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergence (natural log) along the last axis.

    Zeros are handled exactly: a zero-probability term contributes zero.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(p > 0, p * (np.log(p) - np.log(m)), 0.0)
        t2 = np.where(q > 0, q * (np.log(q) - np.log(m)), 0.0)
    return 0.5 * t1.sum(axis=-1) + 0.5 * t2.sum(axis=-1)


def head_js(model: GatedTransformer, tokens: np.ndarray) -> tuple:
    """Pairwise mean JS divergence between surviving heads' attention rows.

    Returns (matrix, pairs) where pairs[i] is the (layer, head) behind row i.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[0] == 0:
        raise DataError("head_js: empty dataset")
    pairs = _alive_heads(model)
    n = len(pairs)
    acc = np.zeros((n, n))
    rows = 0
    for tb, probs in _collect_probs(model, tokens):
        b, s = tb.shape
        flat = np.stack([probs[i][:, h].reshape(b * s, s) for (i, h) in pairs])
        rows += b * s
        for a in range(n):
            for c in range(a + 1, n):
                acc[a, c] += float(js_divergence(flat[a], flat[c]).sum())
    mat = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    mat[iu] = acc[iu] / rows
    mat = mat + mat.T          # exact symmetry, zero diagonal
    return mat, pairs


def pruning_pattern(model) -> dict:
    """Kept-unit ratios per layer plus the global kept width share; a dead
    sub-layer keeps no units."""
    if isinstance(model, GatedTransformer) and model.gates is None:
        raise ContractError("pruning_pattern: teacher has no masks")
    c, st = kept_structure(model)
    layers = [{
        "heads_ratio": h.size / c.heads,
        "inter_ratio": i.size / c.ffn_dim,
        "out_ratio": o.size / c.width,
        "mha_alive": m,
        "ffn_alive": f,
    } for h, i, o, m, f in zip(st.heads, st.inter, st.out, st.mha, st.ffn)]
    return {"width_ratio": st.width.size / c.width, "layers": layers}
