"""Training objective: task loss, gate information cost, dynamically matched
distillation, and the Lagrangian-constrained expected-sparsity penalty.

The sparsity accounting is one polynomial, `kept_count`, over keep sums:
soft keep probabilities as graph tensors for the optimizer, hard keep
counts as floats for the dense-extraction oracle. It counts, per structural
unit, the parameters or forward FLOPs that survive only if every gate unit
covering them survives. Its per-layer sums are columns over layers, so the
soft count is a fixed handful of graph nodes whatever the depth; the gate
side likewise works on one vector holding every gate unit. `count` applies
it to a `Structure`: every parameter and FLOP count the program reports,
and the base of every sparsity, is that one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DegenerateModelError, ShapeError
from .gates import kl_term, soft_keep
from .model import GatedTransformer, LayerSums, ModelConfig, Structure, structure
from .tensor import (
    Tensor,
    add,
    constant,
    linear,
    mean,
    mul,
    pick_lastdim,
    scale,
    softmax_lastdim,
    square,
    tlog,
    tsum,
)

_LOG_FLOOR = 1e-30  # keeps log(prob) finite when a class underflows


# ---------------------------------------------------------------------------
# task + distillation losses


def cross_entropy(logits_t: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of the true class."""
    b = logits_t.shape[0]
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise ShapeError(f"cross_entropy: labels shape {labels.shape} != ({b},)")
    picked = pick_lastdim(softmax_lastdim(logits_t), labels.reshape(logits_t.shape[:-1]))
    return scale(tsum(tlog(add(picked, constant(_LOG_FLOOR)))), -1.0 / b)


def pred_distill(student_logits: Tensor, teacher_logits: np.ndarray) -> Tensor:
    """KL(student || teacher) between class distributions; gradients reach the
    student only."""
    t = np.asarray(teacher_logits, dtype=np.float32)
    if t.shape != student_logits.shape:
        raise ShapeError(
            f"pred_distill: teacher shape {t.shape} != student {student_logits.shape}"
        )
    b = student_logits.shape[0]
    p_s = softmax_lastdim(student_logits)
    log_s = tlog(add(p_s, constant(_LOG_FLOOR)))
    # identical primitive path as the student side, so equal logits give 0.0
    p_t = softmax_lastdim(constant(t)).data
    log_t = constant(np.log(p_t + np.float32(_LOG_FLOOR)))
    diff = add(log_s, scale(log_t, -1.0))
    return scale(tsum(mul(p_s, diff)), 1.0 / b)


@dataclass
class DistillConfig:
    width: int = 0
    w_layer: Tensor = None

    def __post_init__(self):
        if self.w_layer is None:
            if self.width < 1:
                raise ContractError("DistillConfig: width needed to build w_layer")
            from .tensor import parameter

            self.w_layer = parameter(np.eye(self.width, dtype=np.float32))


def layer_map(student_hiddens: list, teacher_hiddens: list, w_layer: Tensor,
              alive: list) -> list:
    """For each teacher layer, the alive student layer with the closest
    transformed hidden state (batch-mean squared error; ties -> smaller index).
    A pair scores its float64 sum of squares (the divisor is common to all),
    as one dot product of a reused difference buffer with itself."""
    alive_idx = [j for j, a in enumerate(alive) if a]
    if not alive_idx:
        raise DegenerateModelError("layer_map: no alive student layer")
    w = w_layer.data.astype(np.float64)
    proj = {j: student_hiddens[j].data.reshape(-1, w.shape[0]).astype(np.float64) @ w
            for j in alive_idx}
    buf = np.empty(proj[alive_idx[0]].size)
    mapping = []
    for ht in teacher_hiddens:
        htd = ht if isinstance(ht, np.ndarray) else ht.data
        htd = htd.reshape(-1).astype(np.float64)
        errs = []
        for j in alive_idx:
            np.subtract(proj[j].reshape(-1), htd, out=buf)
            errs.append(buf @ buf)
        mapping.append(alive_idx[int(np.argmin(errs))])
    return mapping


def layer_distill(student_hiddens: list, teacher_hiddens: list, w_layer: Tensor,
                  mapping: list) -> Tensor:
    """Sum over teacher layers of MSE(w_layer applied to matched student hidden,
    teacher hidden). Differentiable in student hiddens and w_layer."""
    total = None
    projected = {}
    for i, j in enumerate(mapping):
        if j not in projected:
            projected[j] = linear(student_hiddens[j], w_layer)
        ht = teacher_hiddens[i]
        htd = ht if isinstance(ht, np.ndarray) else ht.data
        diff = add(projected[j], constant(-np.asarray(htd, dtype=np.float32)))
        term = mean(square(diff))
        total = term if total is None else add(total, term)
    return total


def vib_loss(model: GatedTransformer) -> Tensor:
    """Sum over gate units of beta * information cost."""
    if model.gates is None:
        raise ContractError("vib_loss: model has no gates")
    return kl_term(model.gates.vector(), model.gates.unit_betas())


# ---------------------------------------------------------------------------
# sparsity accounting


@dataclass
class SparsityController:
    target: float = 0.5
    lambda1: float = 0.0
    lambda2: float = 0.0
    lambda_lr: float = 0.01
    warmup_steps: int = 0
    t_cur: float = field(default=None)

    def __post_init__(self):
        if not (0.0 < self.target < 1.0):
            raise ContractError("SparsityController: target must be in (0, 1)")
        if self.t_cur is None:
            self.t_cur = 0.0 if self.warmup_steps > 0 else self.target

    def advance(self, step: int):
        """Linear ramp of the effective target over the warmup."""
        if self.warmup_steps <= 0:
            self.t_cur = self.target
        else:
            self.t_cur = self.target * min(1.0, (step + 1) / self.warmup_steps)


def _add_layer_total(kept, terms):
    """`kept` plus the sum of a column of per-layer terms. On floats each
    layer is added to `kept` in turn, one fixed summation order, so a
    non-integer hard count (a FLOPs `count` at an odd `seq`) never depends
    on how numpy groups a sum."""
    if isinstance(terms, Tensor):
        return kept + tsum(terms)
    return sum(terms.tolist(), kept)


def kept_count(cfg: ModelConfig, metric: str, seq: int, s_m, layers: LayerSums):
    """Parameters or forward FLOPs (one example at sequence length `seq`) that
    survive, from keep sums.

    The sums are floats (columns of float64 arrays) for the hard-mask count
    and graph Tensors for the soft expected count; the same expression serves
    both, so the two agree by construction. Each per-layer term is computed
    for all layers at once, then summed over layers. A unit's cost counts
    only if every gate covering it keeps it.

    FLOPs convention: 2*m*n*k per matmul, one op per element for everything
    else; embedding lookup free; attention score and context products carry
    the kept-width fraction; the classifier bias add is excluded so full
    masking reaches sparsity exactly 1.
    """
    # on Tensors each `+` and `*` is one graph node, so the grouping below is
    # the training graph's; regrouping would change its float32 rounding
    dh = cfg.head_dim
    lm, lf, s_a, s_i, s_om = layers
    if metric == "parameters":
        kept = s_m * float(cfg.vocab_size + cfg.max_seq + cfg.num_classes)
        mha = s_a * (s_m * (4.0 * dh) + 3.0 * dh) + s_m * 3.0
        ffn = (s_m * s_i + s_i) + ((s_i * s_om + s_om) + s_m * 2.0)
        return _add_layer_total(kept, lm * mha + lf * ffn)
    if metric != "flops":
        raise ContractError(f"kept_count: unknown metric '{metric}'")
    t = float(seq)
    # embedding add + final norm + classifier matmul
    kept = s_m * (2.0 * t + 2.0 * cfg.num_classes)
    mha = (
        s_m * (3.0 * t)                                     # pre-norm + affine
        + (s_a * ((s_m * (6.0 * t * dh) + 3.0 * t * dh)     # QKV matmuls + biases
                  + (s_m * (4.0 * t * t * dh / cfg.width)   # scores + context
                     + 2.0 * t * t))                        # scale + softmax
           + (s_a * (s_m * (2.0 * t * dh))                  # output projection
              + s_m * (2.0 * t)))                           # its bias + residual
    )
    ffn = (
        s_m * (3.0 * t)                                     # pre-norm + affine
        + ((s_m * s_i * (2.0 * t) + s_i * (2.0 * t))        # up proj + bias, GELU
           + (s_i * s_om * (2.0 * t) + s_om * (2.0 * t)))   # down proj + bias, residual
    )
    return _add_layer_total(kept, lm * mha + lf * ffn)


def count(config: ModelConfig, st: Structure, metric: str, seq: int = 0) -> float:
    """Parameters or forward FLOPs of the units `st` keeps: the cost
    polynomial on its keep sums. Every count of a structure is this one."""
    return kept_count(config, metric, seq, *st.keep_sums())


def flops_from_sums(cfg: ModelConfig, seq: int, s_m: float, layers: LayerSums) -> float:
    """Forward FLOPs kept, from `Structure.keep_sums`' (s_m, LayerSums)."""
    return kept_count(cfg, "flops", seq, s_m, layers)


def hard_keep_sums(model: GatedTransformer, tau: float):
    return structure(model, tau).keep_sums()


def soft_keep_sums(model: GatedTransformer, tau: float, temperature: float):
    """(s_m, LayerSums) of the soft keep probabilities, as graph tensors: one
    `soft_keep` over the model's whole gate vector."""
    if model.gates is None:
        raise ContractError("soft_keep_sums: model has no gates")
    g = model.gates
    return g.keep_sums(soft_keep(g.vector(), tau, temperature))


def expected_sparsity(model: GatedTransformer, metric: str, seq: int, tau: float,
                      temperature: float, sums=None) -> Tensor:
    """Differentiable sparsity estimate 1 - expected kept / the full model's
    `count`, under `metric` at sequence length `seq`. `sums` reuses
    `soft_keep_sums` the caller already built for this step."""
    if model.gates is None:
        raise ContractError("expected_sparsity: model has no gates")
    cfg = model.config
    s_m, layers = soft_keep_sums(model, tau, temperature) if sums is None else sums
    base = count(cfg, Structure.full(cfg), metric, seq)
    total = kept_count(cfg, metric, seq, s_m, layers)
    return add(constant(1.0), scale(total, -1.0 / base))


def sparsity_loss(controller: SparsityController, s_e: Tensor) -> Tensor:
    """Constraint violation penalty with the multipliers held fixed."""
    gap = add(s_e, constant(-controller.t_cur))
    return add(scale(gap, controller.lambda1), scale(square(gap), controller.lambda2))


def update_lagrangian(controller: SparsityController, s_e: float) -> SparsityController:
    """Ascent step on the multipliers (adversarial to constraint violation)."""
    gap = float(s_e) - controller.t_cur
    controller.lambda1 += controller.lambda_lr * gap
    controller.lambda2 = max(0.0, controller.lambda2 + controller.lambda_lr * gap * gap)
    return controller


def total_loss(task_ce: Tensor, vib: Tensor, pred_d: Tensor, layer_d: Tensor,
               sparsity: Tensor, eta: float) -> Tensor:
    """task + eta*prediction-distill + (1-eta)*layer-distill + gate cost + penalty."""
    if not (0.0 <= eta <= 1.0):
        raise ContractError("total_loss: eta must be in [0, 1]")
    out = task_ce
    if pred_d is not None and eta > 0.0:
        out = add(out, scale(pred_d, eta))
    if layer_d is not None and eta < 1.0:
        out = add(out, scale(layer_d, 1.0 - eta))
    if vib is not None:
        out = add(out, vib)
    if sparsity is not None:
        out = add(out, sparsity)
    return out
