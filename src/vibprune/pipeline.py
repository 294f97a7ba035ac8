"""Pruning and finetuning phases.

Variants:
  vtrans  full data, all weights + gates trained while pruning
  fast    same, on a small stratified subset of the data
  faster  subset data, but only gates, norm and bias parameters move

After the pruning phase the gates are frozen to mu * hard 0/1 masks
(binarize); finetuning then updates only entries that survive the masks,
and extraction turns the result into a physically smaller dense model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import (
    ContractError,
    DegenerateModelError,
    DivergenceError,
    NumericError,
)
from .extract import survival_masks
from .gates import GateInit, hard_mask
from .model import (
    GatedTransformer,
    ModelConfig,
    build_student,
    build_teacher,
    default_betas,
    forward,
)
from .objective import (
    CountModel,
    DistillConfig,
    SparsityController,
    cross_entropy,
    expected_sparsity,
    layer_distill,
    layer_map,
    pred_distill,
    sparsity_loss,
    total_loss,
    update_lagrangian,
    vib_loss,
)
from .gates import soft_keep
from .tensor import backward, no_grad

VARIANTS = ("vtrans", "fast", "faster")


@dataclass
class RunConfig:
    variant: str = "vtrans"
    epochs_teacher: int = 6
    epochs_prune: int = 10
    epochs_finetune: int = 4
    batch_size: int = 32
    lr_weights: float = 3e-4
    lr_gates: float = 3e-3
    lambda_lr: float = 0.02
    subset_fraction: float = None
    seed: int = 0
    tau: float = 0.0
    temperature: float = 1.0
    target: float = 0.5
    metric: str = "parameters"
    eta: float = 0.5
    beta_global: float = 1e-3
    seq_ref: int = 32
    warmup_frac: float = 0.3
    gate_init: GateInit = None
    eval_every_epoch: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractError(f"RunConfig: unknown variant '{self.variant}'")
        if self.subset_fraction is None:
            self.subset_fraction = 1.0 if self.variant == "vtrans" else 0.03
        if not (0.0 < self.subset_fraction <= 1.0):
            raise ContractError("RunConfig: subset_fraction must be in (0, 1]")
        if self.variant == "vtrans" and self.subset_fraction != 1.0:
            raise ContractError("RunConfig: the vtrans variant requires the full data")
        if self.gate_init is None:
            self.gate_init = GateInit(seed=self.seed)


@dataclass
class FreezePolicy:
    trainable: callable

    @staticmethod
    def for_variant(variant: str, phase: str) -> "FreezePolicy":
        if variant not in VARIANTS:
            raise ContractError(f"FreezePolicy: unknown variant '{variant}'")

        def norm_bias_only(name: str) -> bool:
            return (".ln1." in name or ".ln2." in name or name.endswith(".bias")
                    or name.startswith("gate.") or name == "distill.w_layer")

        def all_params(name: str) -> bool:
            return True

        def weights_only(name: str) -> bool:
            return not name.startswith("gate.")

        if variant == "faster":
            if phase == "finetune":
                return FreezePolicy(lambda n: norm_bias_only(n) and not n.startswith("gate."))
            return FreezePolicy(norm_bias_only)
        if phase == "finetune":
            return FreezePolicy(weights_only)
        return FreezePolicy(all_params)


def _trainable(student: GatedTransformer, distill: DistillConfig, variant: str,
               phase: str) -> list:
    """The (name, param) pairs a phase trains. Every other parameter stops
    requiring gradients, so backward fills no `.grad` the optimizer never reads."""
    policy = FreezePolicy.for_variant(variant, phase)
    named = list(student.named_params()) + [("distill.w_layer", distill.w_layer)]
    for n, p in named:
        p.requires_grad = policy.trainable(n)
    return [(n, p) for n, p in named if p.requires_grad]


class AdamW:
    """Decoupled-weight-decay adaptive moments; no decay on gates, norms, biases."""

    def __init__(self, named_params: list, lr_weights: float, lr_gates: float,
                 weight_decay: float = 0.01, betas=(0.9, 0.999), eps: float = 1e-8):
        self.entries = []
        for name, p in named_params:
            is_gate = name.startswith("gate.") or name == "distill.w_layer"
            lr = lr_gates if is_gate else lr_weights
            no_decay = (is_gate or name.endswith(".bias") or ".ln1." in name
                        or ".ln2." in name)
            self.entries.append({
                "name": name, "p": p, "lr": lr,
                "wd": 0.0 if no_decay else weight_decay,
                "m": np.zeros_like(p.data), "v": np.zeros_like(p.data),
            })
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0

    def step(self):
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        for e in self.entries:
            p = e["p"]
            if p.grad is None:
                continue
            g = p.grad.astype(np.float32)
            e["m"] = self.b1 * e["m"] + (1 - self.b1) * g
            e["v"] = self.b2 * e["v"] + (1 - self.b2) * g * g
            upd = (e["m"] / b1t) / (np.sqrt(e["v"] / b2t) + self.eps)
            if e["wd"]:
                upd = upd + e["wd"] * p.data
            p.data = (p.data - e["lr"] * upd).astype(np.float32)

    def zero_grad(self):
        for e in self.entries:
            e["p"].grad = None


# ---------------------------------------------------------------------------
# data plumbing


def subset(tokens: np.ndarray, labels: np.ndarray, fraction: float, seed: int):
    """Stratified uniform sample without replacement; identity at fraction 1."""
    if not (0.0 < fraction <= 1.0):
        raise ContractError("subset: fraction must be in (0, 1]")
    if fraction == 1.0:
        return tokens, labels
    n = labels.shape[0]
    want = max(1, round(fraction * n))
    rng = np.random.default_rng(seed)
    classes, counts = np.unique(labels, return_counts=True)
    exact = counts * (want / n)
    base = np.floor(exact).astype(int)
    rem = want - base.sum()
    order = np.argsort(-(exact - base))  # largest remainders first
    base[order[:rem]] += 1
    picked = []
    for cls, k in zip(classes, base):
        idx = np.flatnonzero(labels == cls)
        if k > 0:
            picked.append(rng.choice(idx, size=min(k, idx.size), replace=False))
    sel = np.sort(np.concatenate(picked))
    return tokens[sel], labels[sel]


def _batches(n: int, batch_size: int, rng) -> list:
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def evaluate(model, tokens: np.ndarray, labels: np.ndarray,
             batch_size: int = 64) -> float:
    """Classification accuracy under eval-mode (mean * hard) gates."""
    hits = 0
    for i in range(0, len(labels), batch_size):
        tb = tokens[i:i + batch_size].astype(np.int64)
        if isinstance(model, GatedTransformer):
            with no_grad():
                logits = forward(model, tb, "eval").logits
        else:
            logits = model.forward(tb)
        hits += int((logits.argmax(axis=-1) == labels[i:i + batch_size]).sum())
    return hits / len(labels)


# ---------------------------------------------------------------------------
# teacher training


def train_teacher(config: ModelConfig, dataset: Dataset, cfg: RunConfig,
                  metrics_cb=None) -> GatedTransformer:
    teacher = build_teacher(config, cfg.seed)
    opt = AdamW(list(teacher.named_params()), cfg.lr_weights, cfg.lr_gates)
    rng_data = np.random.default_rng(cfg.seed + 11)
    rng_noise = np.random.default_rng(cfg.seed + 12)
    tok, lab = dataset.split("train")
    vt, vl = dataset.split("val")
    step = 0
    for epoch in range(cfg.epochs_teacher):
        for idx in _batches(len(lab), cfg.batch_size, rng_data):
            trace = forward(teacher, tok[idx].astype(np.int64), "train", rng_noise)
            loss = cross_entropy(trace.logits_t, lab[idx])
            val = loss.item()
            if not np.isfinite(val):
                raise DivergenceError(f"teacher training diverged at step {step}")
            backward(loss)
            opt.step()
            opt.zero_grad()
            if metrics_cb:
                metrics_cb(_record(step, "teacher", val, loss_task=val))
            step += 1
        if metrics_cb and cfg.eval_every_epoch:
            acc = evaluate(teacher, vt, vl)
            metrics_cb(_record(step - 1, "teacher", val, loss_task=val,
                               val_accuracy=acc))
    return teacher


def _record(step, phase, loss_total, loss_task=0.0, loss_vib=0.0, loss_pred=0.0,
            loss_layer=0.0, loss_sparsity=0.0, s_e=0.0, t_cur=0.0, lambda1=0.0,
            lambda2=0.0, val_accuracy=None):
    rec = {
        "step": int(step), "phase": phase,
        "loss_total": float(loss_total), "loss_task": float(loss_task),
        "loss_vib": float(loss_vib), "loss_pred": float(loss_pred),
        "loss_layer": float(loss_layer), "loss_sparsity": float(loss_sparsity),
        "s_e": float(s_e), "t_cur": float(t_cur),
        "lambda1": float(lambda1), "lambda2": float(lambda2),
    }
    if val_accuracy is not None:
        rec["val_accuracy"] = float(val_accuracy)
    return rec


# ---------------------------------------------------------------------------
# pruning phase


class _TeacherCache:
    """Eval-mode teacher traces, computed once per fixed batch."""

    def __init__(self, teacher: GatedTransformer):
        self.teacher = teacher
        self._store = {}

    def get(self, key, tokens):
        if key not in self._store:
            with no_grad():
                tr = forward(self.teacher, tokens, "eval")
            self._store[key] = (tr.logits_t.data.copy(),
                                [h.data.copy() for h in tr.hidden_states])
        return self._store[key]


def prune_phase(student: GatedTransformer, teacher: GatedTransformer,
                dataset: Dataset, cfg: RunConfig, distill: DistillConfig = None,
                controller: SparsityController = None, counts: CountModel = None,
                metrics_cb=None):
    """Run the gate-training loop; returns (controller, metrics list)."""
    if student.gates is None:
        raise ContractError("prune_phase: student has no gates")
    c = student.config
    if distill is None:
        distill = DistillConfig(eta=cfg.eta, width=c.width)
    if counts is None:
        counts = CountModel.build(c, cfg.metric, cfg.seq_ref)

    tok, lab = dataset.split("train")
    tok, lab = subset(tok, lab, cfg.subset_fraction, cfg.seed + 21)
    vt, vl = dataset.split("val")
    rng_batches = np.random.default_rng(cfg.seed + 22)
    batches = _batches(len(lab), cfg.batch_size, rng_batches)  # fixed partition
    total_steps = cfg.epochs_prune * len(batches)
    if controller is None:
        controller = SparsityController(
            metric=cfg.metric, target=cfg.target, lambda_lr=cfg.lambda_lr,
            warmup_steps=max(1, int(cfg.warmup_frac * total_steps)))

    named = _trainable(student, distill, cfg.variant, "prune")
    opt = AdamW(named, cfg.lr_weights, cfg.lr_gates)

    cache = _TeacherCache(teacher)
    rng_noise = np.random.default_rng(cfg.seed + 23)
    metrics = []
    step = 0
    for epoch in range(cfg.epochs_prune):
        for bi, idx in enumerate(batches):
            controller.advance(step)
            tb = tok[idx].astype(np.int64)
            t_logits, t_hiddens = cache.get(bi, tb)
            try:
                trace = forward(student, tb, "train", rng_noise)
                task = cross_entropy(trace.logits_t, lab[idx])
                vib = vib_loss(student)
                pred = pred_distill(trace.logits_t, t_logits)
                keeps = [soft_keep(g, cfg.tau, cfg.temperature).item()
                         for g in student.gates.layer_ffn]
                alive = [k > 0.5 for k in keeps]
                if not any(alive):
                    # distillation must map somewhere while gates are in flux;
                    # use the least-dead layer until the controller recovers
                    alive[int(np.argmax(keeps))] = True
                mapping = layer_map(trace.hidden_states, t_hiddens,
                                    distill.w_layer, alive)
                layer_d = layer_distill(trace.hidden_states, t_hiddens,
                                        distill.w_layer, mapping)
                s_e = expected_sparsity(student, counts, cfg.tau, cfg.temperature)
                sp = sparsity_loss(controller, s_e)
                loss = total_loss(task, vib, pred, layer_d, sp, cfg.eta)
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    raise NumericError("loss is not finite")
                backward(loss)
            except NumericError as e:
                raise DivergenceError(f"pruning diverged at step {step}: {e.detail}")
            opt.step()
            opt.zero_grad()
            s_e_val = s_e.item()
            update_lagrangian(controller, s_e_val)
            rec = _record(step, "prune", loss_val, task.item(), vib.item(),
                          pred.item(), layer_d.item(), sp.item(), s_e_val,
                          controller.t_cur, controller.lambda1, controller.lambda2)
            metrics.append(rec)
            if metrics_cb:
                metrics_cb(rec)
            step += 1
        if metrics_cb and cfg.eval_every_epoch:
            acc = evaluate(student, vt, vl)
            metrics_cb(_record(step - 1, "prune", loss_val, s_e=s_e_val,
                               t_cur=controller.t_cur, lambda1=controller.lambda1,
                               lambda2=controller.lambda2, val_accuracy=acc))
    return controller, metrics


# ---------------------------------------------------------------------------
# binarize + finetune


def binarize(student: GatedTransformer, tau: float) -> GatedTransformer:
    """Freeze every gate to its mu * hard mask; gate params stop training."""
    if student.gates is None:
        raise ContractError("binarize: model has no gates")
    g = student.gates
    for gate in g.all():
        hard = hard_mask(gate, tau)
        gate.frozen = (gate.mu.data * hard).astype(np.float32)
        gate.frozen_hard = hard
        gate.mu.requires_grad = False
        gate.log_sigma.requires_grad = False
    dead_layers = all(
        g.layer_mha[i].frozen_hard[0] == 0.0 and g.layer_ffn[i].frozen_hard[0] == 0.0
        for i in range(student.config.layers)
    )
    if dead_layers:
        raise DegenerateModelError("binarize: every layer is dead")
    student.binarized = True
    return student


def finetune_phase(student: GatedTransformer, teacher: GatedTransformer,
                   dataset: Dataset, cfg: RunConfig, distill: DistillConfig = None,
                   metrics_cb=None):
    """Train surviving weights under task + distillation + (constant) gate cost."""
    if not student.binarized:
        raise ContractError("finetune_phase: student must be binarized")
    c = student.config
    if distill is None:
        distill = DistillConfig(eta=cfg.eta, width=c.width)

    tok, lab = dataset.split("train")
    tok, lab = subset(tok, lab, cfg.subset_fraction, cfg.seed + 21)
    vt, vl = dataset.split("val")
    rng_batches = np.random.default_rng(cfg.seed + 31)
    batches = _batches(len(lab), cfg.batch_size, rng_batches)

    surv = survival_masks(student, cfg.tau)
    named = _trainable(student, distill, cfg.variant, "finetune")
    opt = AdamW(named, cfg.lr_weights, cfg.lr_gates)

    alive = [bool(student.gates.layer_ffn[i].frozen_hard[0])
             for i in range(c.layers)]
    if not any(alive):
        # all FFN sub-layers gone: hidden states are still defined, map to any
        alive = [True] * c.layers

    cache = _TeacherCache(teacher)
    rng_noise = np.random.default_rng(cfg.seed + 32)
    metrics = []
    step = 0
    for epoch in range(cfg.epochs_finetune):
        for bi, idx in enumerate(batches):
            tb = tok[idx].astype(np.int64)
            t_logits, t_hiddens = cache.get(bi, tb)
            try:
                trace = forward(student, tb, "train", rng_noise)
                task = cross_entropy(trace.logits_t, lab[idx])
                vib = vib_loss(student)  # constant once binarized; reported
                pred = pred_distill(trace.logits_t, t_logits)
                mapping = layer_map(trace.hidden_states, t_hiddens,
                                    distill.w_layer, alive)
                layer_d = layer_distill(trace.hidden_states, t_hiddens,
                                        distill.w_layer, mapping)
                loss = total_loss(task, vib, pred, layer_d, None, cfg.eta)
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    raise NumericError("loss is not finite")
                backward(loss)
            except NumericError as e:
                raise DivergenceError(f"finetune diverged at step {step}: {e.detail}")
            # pruned entries must stay bit-identical: mask grads, then restore
            saved = {}
            for name, p in named:
                mask = surv.get(name)
                if mask is not None and not mask.all():
                    if p.grad is not None:
                        p.grad = np.where(mask, p.grad, 0.0)
                    saved[name] = (p, np.where(mask, 0.0, p.data.copy()))
            opt.step()
            for name, (p, frozen_vals) in saved.items():
                mask = surv[name]
                p.data = np.where(mask, p.data, frozen_vals).astype(np.float32)
            opt.zero_grad()
            rec = _record(step, "finetune", loss_val, task.item(), vib.item(),
                          pred.item(), layer_d.item())
            metrics.append(rec)
            if metrics_cb:
                metrics_cb(rec)
            step += 1
        if metrics_cb and cfg.eval_every_epoch:
            acc = evaluate(student, vt, vl)
            metrics_cb(_record(step - 1, "finetune", loss_val, val_accuracy=acc))
    return metrics


def make_student(teacher: GatedTransformer, cfg: RunConfig) -> GatedTransformer:
    return build_student(teacher, cfg.gate_init,
                         default_betas(teacher.config, cfg.beta_global))
