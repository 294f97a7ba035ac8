"""Pruning and finetuning phases.

Variants:
  vtrans  full data, all weights + gates trained while pruning
  fast    same, on a small stratified subset of the data
  faster  subset data, but only gates, norm and bias parameters move

After the pruning phase `binarize` decides the kept structure once, from
the hard masks, and stores it on the student; every later stage reads that
`Structure` and the gates' mu, which no longer train. Finetuning then
trains the compact student, only the entries the structure keeps, and
extraction turns the result into a physically smaller dense model.
All three training phases run one step loop, `_run_phase`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import (
    ContractError,
    DegenerateModelError,
    DivergenceError,
    NumericError,
)
from .gates import GateInit
from .model import (
    GatedTransformer,
    ModelConfig,
    build_student,
    build_teacher,
    compact,
    default_betas,
    forward,
    structure,
)
from .objective import (
    DistillConfig,
    SparsityController,
    cross_entropy,
    expected_sparsity,
    layer_distill,
    layer_map,
    pred_distill,
    soft_keep_sums,
    sparsity_loss,
    total_loss,
    update_lagrangian,
    vib_loss,
)
from .tensor import backward, no_grad, parameter

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

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractError(f"RunConfig: unknown variant '{self.variant}'")
        if self.subset_fraction is None:
            self.subset_fraction = 1.0 if self.variant == "vtrans" else 0.03
        if not (0.0 < self.subset_fraction <= 1.0):
            raise ContractError("RunConfig: subset_fraction must be in (0, 1]")
        if self.variant == "vtrans" and self.subset_fraction != 1.0:
            raise ContractError("RunConfig: the vtrans variant requires the full data")
        if self.batch_size < 1 or self.seq_ref < 1:
            raise ContractError("RunConfig: batch_size and seq_ref must be >= 1")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise ContractError("RunConfig: warmup_frac must be in [0, 1]")
        if not 0.0 <= self.eta <= 1.0:
            raise ContractError("RunConfig: eta must be in [0, 1]")
        for name in ("lr_weights", "lr_gates", "lambda_lr"):
            if getattr(self, name) < 0:     # NaN passes: it diverges at a step
                raise ContractError(f"RunConfig: {name} must not be negative")
        if self.metric not in ("parameters", "flops"):
            raise ContractError(f"RunConfig: unknown metric '{self.metric}'")
        if self.gate_init is None:
            self.gate_init = GateInit(seed=self.seed)


# Which parameters a phase trains, by name; `_trainable` picks one predicate
# by (variant, phase).


def trains_everything(name: str) -> bool:
    return True


def trains_weights(name: str) -> bool:
    """Everything but the gates, which binarize froze."""
    return not name.startswith("gate.")


def trains_norm_bias_gates(name: str) -> bool:
    """Norms, biases, gates and the layer-distillation weights: the
    parameters AdamW does not decay."""
    return (".ln1." in name or ".ln2." in name or name.endswith(".bias")
            or name.startswith("gate.") or name == "distill.w_layer")


def trains_norm_bias(name: str) -> bool:
    return trains_norm_bias_gates(name) and trains_weights(name)


def _trainable(student: GatedTransformer, distill: DistillConfig, variant: str,
               phase: str) -> list:
    """The (name, param) pairs a phase trains. Every other parameter stops
    requiring gradients, so backward fills no `.grad` the optimizer never reads."""
    if variant == "faster":
        trains = trains_norm_bias_gates if phase == "prune" else trains_norm_bias
    else:
        trains = trains_everything if phase == "prune" else trains_weights
    named = list(student.named_params()) + [("distill.w_layer", distill.w_layer)]
    for n, p in named:
        p.requires_grad = trains(n)
    return [(n, p) for n, p in named if p.requires_grad]


class AdamW:
    """Decoupled-weight-decay adaptive moments; no decay on gates, norms, biases.
    A step is a few whole-vector operations, in each entry's operation order."""

    b1, b2, eps, weight_decay = 0.9, 0.999, 1e-8, 0.01

    def __init__(self, named_params: list, lr_weights: float, lr_gates: float):
        self.entries = []
        for name, p in named_params:
            is_gate = name.startswith("gate.") or name == "distill.w_layer"
            self.entries.append({
                "name": name, "p": p, "lr": lr_gates if is_gate else lr_weights,
                "wd": 0.0 if trains_norm_bias_gates(name) else self.weight_decay,
            })
        self._sizes = np.array([p.size for _, p in named_params], dtype=np.int64)
        self.lr, self.wd = (np.repeat(np.array([e[k] for e in self.entries],
                                               dtype=np.float32), self._sizes)
                            for k in ("lr", "wd"))
        self.m = np.zeros(self._sizes.sum(), dtype=np.float32)
        self.v = np.zeros_like(self.m)
        self.t = 0

    def step(self):
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        ps = [e["p"] for e in self.entries]
        live = [p for p in ps if p.grad is not None]
        if not live:
            return
        # an entry without a gradient keeps its moments and data
        at = (slice(None) if len(live) == len(ps)
              else np.repeat([p.grad is not None for p in ps], self._sizes))
        g = np.concatenate([p.grad.reshape(-1) for p in live], dtype=np.float32)
        x = np.concatenate([p.data.reshape(-1) for p in live], dtype=np.float32)
        m = self.b1 * self.m[at] + (1 - self.b1) * g
        v = self.b2 * self.v[at] + (1 - self.b2) * g * g
        self.m[at], self.v[at] = m, v
        upd = (m / b1t) / (np.sqrt(v / b2t) + self.eps)
        upd += self.wd[at] * x      # adds +0.0 where an entry has no decay
        x -= self.lr[at] * upd
        for p, part in zip(live, np.split(x, np.cumsum([p.size for p in live])[:-1])):
            p.data = part.reshape(p.shape)

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


_EVAL_BATCH = 64


def evaluate(model, tokens: np.ndarray, labels: np.ndarray, tau: float = 0.0) -> float:
    """Classification accuracy under eval-mode gates (mu at the units the
    hard masks at `tau` keep); a binarized or ungated model ignores `tau`."""
    hits = 0
    for i in range(0, len(labels), _EVAL_BATCH):
        tb = tokens[i:i + _EVAL_BATCH].astype(np.int64)
        if isinstance(model, GatedTransformer):
            with no_grad():
                logits = forward(model, tb, "eval", tau=tau).logits
        else:
            logits = model.forward(tb)
        hits += int((logits.argmax(axis=-1) == labels[i:i + _EVAL_BATCH]).sum())
    return hits / len(labels)


def _record(step, phase, loss_total, loss_task=0.0, loss_vib=0.0, loss_pred=0.0,
            loss_layer=0.0, loss_sparsity=0.0, s_e=0.0, t_cur=0.0, lambda1=0.0,
            lambda2=0.0):
    return {
        "step": int(step), "phase": phase,
        "loss_total": float(loss_total), "loss_task": float(loss_task),
        "loss_vib": float(loss_vib), "loss_pred": float(loss_pred),
        "loss_layer": float(loss_layer), "loss_sparsity": float(loss_sparsity),
        "s_e": float(s_e), "t_cur": float(t_cur),
        "lambda1": float(lambda1), "lambda2": float(lambda2),
    }


def _run_phase(label: str, model: GatedTransformer, opt: AdamW, epochs, step_fn,
               val: tuple, metrics_cb, tau: float) -> list:
    """The step loop of every phase; returns the step records.

    `epochs` yields each epoch's batches. `step_fn(step, bi, idx)` builds the
    loss of batch `bi` and returns `(loss, finish, live)`: `finish(value)`
    runs after the optimizer step, takes the loss as a float and returns the
    step's record, and `live` holds the step's forward tensors until the
    next step has built its own. Freed at once, their pages go back to the
    system and fault in again on the next step: about twice the minor page
    faults per prune step.
    With `metrics_cb`, each epoch ends with its last step record plus the
    validation accuracy at `tau`."""
    metrics, step = [], 0
    for batches in epochs:
        for bi, idx in enumerate(batches):
            try:
                loss, finish, live = step_fn(step, bi, idx)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericError("loss is not finite")
                backward(loss)
            except NumericError as e:
                raise DivergenceError(f"{label} diverged at step {step}: {e.detail}")
            opt.step()
            opt.zero_grad()
            rec = finish(value)
            metrics.append(rec)
            if metrics_cb:
                metrics_cb(rec)
            step += 1
        if metrics_cb:
            metrics_cb({**rec, "val_accuracy": evaluate(model, *val, tau=tau)})
    return metrics


# ---------------------------------------------------------------------------
# teacher training


def train_teacher(config: ModelConfig, dataset: Dataset, cfg: RunConfig,
                  metrics_cb=None) -> GatedTransformer:
    teacher = build_teacher(config, cfg.seed)
    opt = AdamW(list(teacher.named_params()), cfg.lr_weights, cfg.lr_gates)
    rng_data = np.random.default_rng(cfg.seed + 11)
    tok, lab = dataset.split("train")

    def step_fn(step, bi, idx):
        trace = forward(teacher, tok[idx].astype(np.int64), "train")
        loss = cross_entropy(trace.logits_t, lab[idx])
        return loss, lambda v: _record(step, "teacher", v, loss_task=v), trace

    # a fresh shuffle at the start of each epoch
    epochs = (_batches(len(lab), cfg.batch_size, rng_data)
              for _ in range(cfg.epochs_teacher))
    _run_phase("teacher training", teacher, opt, epochs, step_fn,
               dataset.split("val"), metrics_cb, 0.0)
    return teacher


# ---------------------------------------------------------------------------
# student phases: pruning, binarize, finetuning


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


def _student_data(dataset: Dataset, cfg: RunConfig, batch_seed: int):
    """(tokens, labels, batches) of the variant's training data, in one fixed
    partition from `batch_seed`; the teacher cache keys on the batch index."""
    tok, lab = dataset.split("train")
    tok, lab = subset(tok, lab, cfg.subset_fraction, cfg.seed + 21)
    rng = np.random.default_rng(batch_seed)
    return tok, lab, _batches(len(lab), cfg.batch_size, rng)


def _distill_losses(trace, t_logits, t_hiddens, w_layer, alive):
    """(prediction distillation, layer mapping, layer distillation)."""
    mapping = layer_map(trace.hidden_states, t_hiddens, w_layer, alive)
    return (pred_distill(trace.logits_t, t_logits), mapping,
            layer_distill(trace.hidden_states, t_hiddens, w_layer, mapping))


def prune_phase(student: GatedTransformer, teacher: GatedTransformer,
                dataset: Dataset, cfg: RunConfig, distill: DistillConfig,
                metrics_cb=None):
    """Run the gate-training loop, which also trains `distill`'s
    layer-distillation map in place; returns (controller, metrics list)."""
    if student.gates is None:
        raise ContractError("prune_phase: student has no gates")
    tok, lab, batches = _student_data(dataset, cfg, cfg.seed + 22)
    total_steps = cfg.epochs_prune * len(batches)
    if total_steps == 0:
        raise ContractError("prune_phase: epochs_prune is 0 or the training "
                            "split is empty, so no step would run")
    controller = SparsityController(
        target=cfg.target, lambda_lr=cfg.lambda_lr,
        warmup_steps=max(1, int(cfg.warmup_frac * total_steps)))
    opt = AdamW(_trainable(student, distill, cfg.variant, "prune"),
                cfg.lr_weights, cfg.lr_gates)
    cache = _TeacherCache(teacher)
    rng_noise = np.random.default_rng(cfg.seed + 23)

    def step_fn(step, bi, idx):
        controller.advance(step)
        tb = tok[idx].astype(np.int64)
        t_logits, t_hiddens = cache.get(bi, tb)
        trace = forward(student, tb, "train", rng_noise)
        task = cross_entropy(trace.logits_t, lab[idx])
        vib = vib_loss(student)
        sums = soft_keep_sums(student, cfg.tau, cfg.temperature)
        keeps = sums[1].ffn.data.tolist()
        alive = [k > 0.5 for k in keeps]
        if not any(alive):
            # distillation must map somewhere while gates are in flux;
            # use the least-dead layer until the controller recovers
            alive[int(np.argmax(keeps))] = True
        pred, mapping, layer_d = _distill_losses(trace, t_logits, t_hiddens,
                                                 distill.w_layer, alive)
        s_e = expected_sparsity(student, cfg.metric, cfg.seq_ref, cfg.tau,
                                cfg.temperature, sums)
        sp = sparsity_loss(controller, s_e)

        def finish(loss_val):
            s_e_val = s_e.item()
            update_lagrangian(controller, s_e_val)
            return _record(step, "prune", loss_val, task.item(), vib.item(),
                           pred.item(), layer_d.item(), sp.item(), s_e_val,
                           controller.t_cur, controller.lambda1, controller.lambda2)

        loss = total_loss(task, vib, pred, layer_d, sp, cfg.eta)
        return loss, finish, (trace, sums, mapping)

    metrics = _run_phase("pruning", student, opt, [batches] * cfg.epochs_prune,
                         step_fn, dataset.split("val"), metrics_cb, cfg.tau)
    return controller, metrics


def binarize(student: GatedTransformer, tau: float) -> GatedTransformer:
    """Store on the student the `Structure` the hard masks at `tau` keep,
    which every later reader takes whatever its tau; the gate parameters
    stop training. A second call decides again; one that keeps no sub-layer
    raises and leaves the student unbinarized."""
    if student.gates is None:
        raise ContractError("binarize: model has no gates")
    student.decision = None
    st = structure(student, tau)
    if not any(st.mha + st.ffn):
        raise DegenerateModelError("binarize: every layer is dead")
    for gate in student.gates.all():
        gate.mu.requires_grad = False
        gate.log_sigma.requires_grad = False
    student.decision = st
    return student


def finetune_phase(student: GatedTransformer, teacher: GatedTransformer,
                   dataset: Dataset, cfg: RunConfig, distill: DistillConfig,
                   metrics_cb=None):
    """Train surviving weights under task + distillation + (constant) gate
    cost. The steps train the compact student, the kept sub-grid of every
    array and the kept width rows of `distill`'s layer-distillation map,
    which the end writes back: no pruned entry reaches the optimizer, so each
    keeps its bits."""
    if not student.binarized:
        raise ContractError("finetune_phase: student must be binarized")
    c = student.config
    tok, lab, batches = _student_data(dataset, cfg, cfg.seed + 31)
    sub = compact(student)
    st = sub.kept
    sub_distill = DistillConfig(w_layer=parameter(distill.w_layer.data[st.width]))
    opt = AdamW(_trainable(sub, sub_distill, cfg.variant, "finetune"),
                cfg.lr_weights, cfg.lr_gates)
    # all FFN sub-layers gone: hidden states are still defined, map to any
    alive = list(st.ffn) if any(st.ffn) else [True] * c.layers
    cache = _TeacherCache(teacher)
    vib = vib_loss(student)  # binarized gates never train: a constant; reported

    def step_fn(step, bi, idx):
        tb = tok[idx].astype(np.int64)
        t_logits, t_hiddens = cache.get(bi, tb)
        trace = forward(sub, tb, "train")
        task = cross_entropy(trace.logits_t, lab[idx])
        pred, mapping, layer_d = _distill_losses(trace, t_logits, t_hiddens,
                                                 sub_distill.w_layer, alive)
        loss = total_loss(task, vib, pred, layer_d, None, cfg.eta)
        return loss, lambda v: _record(step, "finetune", v, task.item(), vib.item(),
                                       pred.item(), layer_d.item()), (trace, mapping)

    metrics = _run_phase("finetune", sub, opt, [batches] * cfg.epochs_finetune,
                         step_fn, dataset.split("val"), metrics_cb, cfg.tau)
    st.scatter(c, {name: p.data for name, p in student.params.items()},
               {name: p.data for name, p in sub.params.items()})
    distill.w_layer.data[st.width] = sub_distill.w_layer.data
    return metrics


def make_student(teacher: GatedTransformer, cfg: RunConfig) -> GatedTransformer:
    return build_student(teacher, cfg.gate_init,
                         default_betas(teacher.config, cfg.beta_global))
