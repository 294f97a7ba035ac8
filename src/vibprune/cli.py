"""Command-line surface.

Commands: train-teacher | prune | finetune | extract | eval | analyze |
gradcheck. Each takes --config (flat dotted key=value text) plus overrides
and writes its outputs under --out. Failures exit nonzero with one
machine-parseable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis
from .checkpoint import load_tensors, save_tensors
from .data import Dataset, TaskSpec, generate, load_dataset, save_dataset
from .errors import ConfigError, DataError, FormatError, VibError
from .extract import (
    DenseModel,
    extract_dense,
    flop_count,
    param_count,
    sparsity_report,
)
from .model import (
    GatedTransformer,
    GateSet,
    ModelConfig,
    Structure,
    build_teacher,
    default_betas,
)
from .objective import (
    DistillConfig,
    SparsityController,
    cross_entropy,
    expected_sparsity,
    layer_distill,
    layer_map,
    pred_distill,
    sparsity_loss,
    vib_loss,
)
from .pipeline import (
    RunConfig,
    binarize,
    evaluate,
    finetune_phase,
    make_student,
    prune_phase,
    train_teacher,
)
from .tensor import gradcheck, no_grad

# ---------------------------------------------------------------------------
# config schema: dotted key -> (type, default)

_SCHEMA = {
    "model.vocab_size": (int, 16),
    "model.max_seq": (int, 32),
    "model.width": (int, 32),
    "model.layers": (int, 2),
    "model.heads": (int, 4),
    "model.ffn_dim": (int, 64),
    "model.num_classes": (int, 2),
    "model.causal": (bool, False),
    "data.kind": (str, "majority_pair"),
    "data.seq": (int, 18),
    "data.n_train": (int, 1600),
    "data.n_val": (int, 200),
    "data.n_test": (int, 200),
    "data.seed": (int, 0),
    "data.n_markers": (int, 3),
    "data.signal_k": (int, 8),
    "data.signal_margin": (float, 0.5),
    "run.variant": (str, "vtrans"),
    "run.seed": (int, 0),
    "train.epochs_teacher": (int, 6),
    "train.epochs_prune": (int, 10),
    "train.epochs_finetune": (int, 4),
    "train.batch_size": (int, 32),
    "train.lr_weights": (float, 3e-4),
    "train.lr_gates": (float, 3e-3),
    "train.lambda_lr": (float, 0.02),
    "train.subset_fraction": (float, -1.0),   # -1 = variant default
    "train.warmup_frac": (float, 0.3),
    "prune.target": (float, 0.5),
    "prune.metric": (str, "parameters"),
    "prune.tau": (float, 0.0),
    "prune.temperature": (float, 1.0),
    "prune.eta": (float, 0.5),
    "prune.beta_global": (float, 1e-3),
    "prune.seq_ref": (int, 32),
    "analyze.tokens": (tuple, (0, 1)),        # comma-separated token ids
    "gradcheck.batch": (int, 2),
    "gradcheck.seq": (int, 6),
}

# flag -> the config keys it overrides
_OVERRIDES = {
    "seed": ("run.seed", "data.seed"),
    "variant": ("run.variant",),
    "target": ("prune.target",),
    "metric": ("prune.metric",),
}


def parse_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    raw = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in _SCHEMA:
                raise ConfigError(f"unknown key '{key}'")
            raw[key] = value
    return raw


def _coerce(key: str, value: str):
    typ, _ = _SCHEMA[key]
    try:
        if typ is bool:
            if value.lower() in ("true", "1", "yes"):
                return True
            if value.lower() in ("false", "0", "no"):
                return False
            raise ValueError(value)
        if typ is tuple:
            return tuple(int(t) for t in value.split(","))
        return typ(value)
    except ValueError:
        what = "comma-separated ints" if typ is tuple else typ.__name__
        raise ConfigError(f"key '{key}': cannot parse '{value}' as {what}")


class Settings:
    """Typed view over the merged config + CLI overrides. Every int setting
    is >= 0, and every `analyze.tokens` id is below `model.vocab_size`."""

    def __init__(self, raw: dict, args):
        vals = {k: d for k, (t, d) in _SCHEMA.items()}
        for k, v in raw.items():
            vals[k] = _coerce(k, v)
        for flag, keys in _OVERRIDES.items():
            value = getattr(args, flag, None)
            if value is not None:
                vals.update(dict.fromkeys(keys, value))
        for k, v in vals.items():
            typ = _SCHEMA[k][0]
            if typ is int and v < 0 or typ is tuple and min(v) < 0:
                raise ConfigError(f"key '{k}' must not be negative, got {v}")
        if max(vals["analyze.tokens"]) >= vals["model.vocab_size"]:
            raise ConfigError("analyze.tokens holds an id outside the vocabulary "
                              "of model.vocab_size")
        self.v = vals

    def _section(self, *sections) -> dict:
        """The values of the keys in `sections`, by the name after the dot."""
        return {k.split(".", 1)[1]: v for k, v in self.v.items()
                if k.split(".", 1)[0] in sections}

    def model_config(self) -> ModelConfig:
        return ModelConfig(**self._section("model"))

    def task_spec(self) -> TaskSpec:
        if self.v["model.max_seq"] < self.v["data.seq"]:
            raise ConfigError("model.max_seq is smaller than data.seq")
        return TaskSpec(vocab=self.v["model.vocab_size"], **self._section("data"))

    def run_config(self) -> RunConfig:
        kw = self._section("run", "train", "prune")
        if kw["subset_fraction"] < 0:
            kw["subset_fraction"] = None        # the variant's default
        return RunConfig(**kw)


# ---------------------------------------------------------------------------
# model <-> checkpoint binding


def model_tensors(model: GatedTransformer, distill: DistillConfig = None) -> dict:
    out = {name: p.data for name, p in model.named_params()}
    if distill is not None:
        out["distill.w_layer"] = distill.w_layer.data
    return out


def load_model(config: ModelConfig, run: RunConfig, tensors: dict,
               with_gates: bool):
    """Rebuild a teacher or gated student from named tensors."""
    model = build_teacher(config, seed=0)
    if with_gates:
        model.gates = GateSet(config, run.gate_init,
                              default_betas(config, run.beta_global))
    distill = DistillConfig(width=config.width)
    seen = set()
    for name, p in model.named_params():
        if name not in tensors:
            raise ConfigError(f"checkpoint is missing tensor '{name}'")
        arr = tensors[name]
        if arr.shape != p.data.shape:
            raise ConfigError(
                f"tensor '{name}' has shape {arr.shape}, expected {p.data.shape}")
        p.data = arr.astype(np.float32)     # a copy, also of float32 data
        seen.add(name)
    if "distill.w_layer" in tensors:
        distill.w_layer.data = tensors["distill.w_layer"].astype(np.float32)
        seen.add("distill.w_layer")
    extra = set(tensors) - seen
    if extra:
        raise ConfigError(f"checkpoint has unexpected tensors: {sorted(extra)[:3]}")
    return model, distill


def load_dense(config: ModelConfig, tensors: dict, report: dict) -> DenseModel:
    """The dense model whose arrays `tensors` holds and whose kept units the
    `structure` entry of its report `dense.json` holds."""
    st = Structure.from_json(report.get("structure") if isinstance(report, dict)
                             else None, config,
                             {k: v.shape for k, v in tensors.items()})
    return DenseModel(config, st, tensors)


# ---------------------------------------------------------------------------
# shared command plumbing


class MetricsWriter:
    """One phase's JSON-lines log; a `with` block closes it on every exit."""

    def __init__(self, path: str):
        self.f = open(path, "w")

    def __call__(self, record: dict):
        self.f.write(json.dumps(record) + "\n")
        self.f.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


class RunContext:
    """What every command starts from: the settings of --config and the
    flags, the model and run configs built from them, the models and data
    the flags name, and the --out directory the command writes to."""

    def __init__(self, args, makes_out: bool = True):
        self.args = args
        self.settings = Settings(parse_config_file(args.config), args)
        self.out = args.out or "."
        if makes_out:
            os.makedirs(self.out, exist_ok=True)
        self.run = self.settings.run_config()
        self.config = self.settings.model_config()

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def dataset(self) -> Dataset:
        """The --dataset file or a generated one; a label outside the
        model's classes is a DataError."""
        if self.args.dataset:
            ds = load_dataset(self.args.dataset)
        else:
            ds = generate(self.settings.task_spec())
        classes, top = self.config.num_classes, int(ds.labels.max(initial=0))
        if top >= classes:
            raise DataError(f"dataset label {top} is outside [0, {classes}), the "
                            f"classes of model.num_classes")
        return ds

    def teacher(self) -> GatedTransformer:
        teacher, _ = load_model(self.config, self.run,
                                load_tensors(self.args.teacher), with_gates=False)
        return teacher

    def student(self) -> tuple:
        """(student, distill) of --student, the student binarized at run.tau."""
        student, distill = load_model(self.config, self.run,
                                      load_tensors(self.args.student),
                                      with_gates=True)
        return binarize(student, self.run.tau), distill

    def any_model(self):
        """The --dense, --student or --teacher model, the first one given."""
        args = self.args
        if args.dense:
            path = args.dense_report or os.path.join(os.path.dirname(args.dense),
                                                     "dense.json")
            if not os.path.exists(path):
                raise ConfigError(f"dense report not found: {path}")
            with open(path) as f:
                try:
                    report = json.load(f)
                except ValueError as e:
                    raise FormatError(f"{path}: not JSON: {e}")
            return load_dense(self.config, load_tensors(args.dense), report)
        if args.student:
            return self.student()[0]
        if args.teacher:
            return self.teacher()
        raise ConfigError("give one of --teacher, --student, --dense")

    def metrics(self, phase: str) -> MetricsWriter:
        """The log `<phase>.metrics.jsonl`, for a `with` block. The module's
        `MetricsWriter` is read at each call, so a subclass swapped in there
        is the one opened."""
        return MetricsWriter(self.path(f"{phase}.metrics.jsonl"))

    def write_json(self, name: str, obj) -> None:
        with open(self.path(name), "w") as f:
            json.dump(obj, f, indent=1)


# ---------------------------------------------------------------------------
# commands


def cmd_train_teacher(args):
    ctx = RunContext(args)
    ds = ctx.dataset()
    save_dataset(ds, ctx.path("dataset.bin"))
    with ctx.metrics("teacher") as writer:
        teacher = train_teacher(ctx.config, ds, ctx.run, metrics_cb=writer)
    save_tensors(model_tensors(teacher), ctx.path("teacher.ckpt"))
    acc = evaluate(teacher, *ds.split("val"))
    print(json.dumps({"val_accuracy": acc,
                      "params": param_count(teacher),
                      "flops": flop_count(teacher, ctx.run.seq_ref)}))
    return 0


def cmd_prune(args):
    ctx = RunContext(args)
    if not args.teacher:
        raise ConfigError("prune requires --teacher <checkpoint>")
    teacher = ctx.teacher()
    ds = ctx.dataset()
    student = make_student(teacher, ctx.run)
    distill = DistillConfig(width=ctx.config.width)
    with ctx.metrics("prune") as writer:
        controller, metrics = prune_phase(student, teacher, ds, ctx.run, distill,
                                          metrics_cb=writer)
    save_tensors(model_tensors(student, distill), ctx.path("pruned.ckpt"))
    print(json.dumps({"s_e": metrics[-1]["s_e"], "t": ctx.run.target,
                      "lambda1": controller.lambda1,
                      "lambda2": controller.lambda2}))
    return 0


def cmd_finetune(args):
    ctx = RunContext(args)
    if not args.teacher or not args.student:
        raise ConfigError("finetune requires --teacher and --student checkpoints")
    teacher = ctx.teacher()
    student, distill = ctx.student()
    ds = ctx.dataset()
    with ctx.metrics("finetune") as writer:
        finetune_phase(student, teacher, ds, ctx.run, distill, metrics_cb=writer)
    save_tensors(model_tensors(student, distill), ctx.path("finetuned.ckpt"))
    acc = evaluate(student, *ds.split("val"))
    print(json.dumps({"val_accuracy": acc}))
    return 0


def cmd_extract(args):
    ctx = RunContext(args)
    if not args.student:
        raise ConfigError("extract requires --student <checkpoint>")
    student, _ = ctx.student()
    dense = extract_dense(student)
    report = sparsity_report(dense, ctx.run.seq_ref)
    save_tensors(dense.arrays, ctx.path("dense.ckpt"))
    ctx.write_json("dense.json", report)
    print(json.dumps({k: report[k] for k in ("params", "flops", "sparsity_params",
                                             "sparsity_flops")}))
    return 0


def cmd_eval(args):
    ctx = RunContext(args, makes_out=False)
    model = ctx.any_model()
    acc = evaluate(model, *ctx.dataset().split("test"))
    print(json.dumps({"accuracy": acc, "params": param_count(model),
                      "flops": flop_count(model, ctx.run.seq_ref)}))
    return 0


def cmd_analyze(args):
    ctx = RunContext(args)
    model = ctx.any_model()
    tokens, _ = ctx.dataset().split("test")
    reports = {}
    if not isinstance(model, DenseModel):
        token_ids = ctx.settings.v["analyze.tokens"]
        stats = analysis.token_attention(model, tokens, token_ids)
        reports["token_attention.json"] = {
            "token_ids": token_ids,
            "token_share": {f"{l}.{h}": v for (l, h), v in stats.token_share.items()},
            "offset_share": {f"{l}.{h}": v for (l, h), v in
                             stats.offset_share.items()},
        }
        mat, pairs = analysis.head_js(model, tokens)
        reports["head_divergence.json"] = {"pairs": [list(p) for p in pairs],
                                           "matrix": mat.tolist()}
    if isinstance(model, DenseModel) or model.gates is not None:
        reports["pruning_pattern.json"] = analysis.pruning_pattern(model)
    for name, obj in reports.items():
        ctx.write_json(name, obj)
    print(json.dumps({"written": list(reports)}))
    return 0


def cmd_gradcheck(args):
    ctx = RunContext(args, makes_out=False)
    batch, seqlen = ctx.settings.v["gradcheck.batch"], ctx.settings.v["gradcheck.seq"]
    if batch < 1 or seqlen < 1:
        raise ConfigError("gradcheck.batch and gradcheck.seq must be >= 1")
    results = run_gradcheck_suite(ctx.config, ctx.run, batch=batch, seqlen=seqlen)
    ok = True
    for name, (err, thresh) in results.items():
        status = "PASS" if err < thresh else "FAIL"
        ok &= err < thresh
        print(f"gradcheck {name}: max_rel_err={err:.3e} threshold={thresh:g} {status}")
    return 0 if ok else 1


def run_gradcheck_suite(cfgm: ModelConfig, run: RunConfig, batch: int = 2,
                        seqlen: int = 6, sample_limit=None) -> dict:
    """Finite-difference checks per loss component with frozen gate noise."""
    from .model import forward as model_forward

    teacher = build_teacher(cfgm, run.seed)
    student = make_student(teacher, run)
    rng = np.random.default_rng(run.seed + 1)
    tokens = rng.integers(0, cfgm.vocab_size, size=(batch, seqlen))
    labels = rng.integers(0, cfgm.num_classes, size=batch)
    with no_grad():
        ttr = model_forward(teacher, tokens, "eval")
    t_logits = ttr.logits_t.data.copy()
    t_hiddens = [h.data.copy() for h in ttr.hidden_states]
    distill = DistillConfig(width=cfgm.width)
    controller = SparsityController(target=run.target, lambda1=0.4, lambda2=0.8,
                                    warmup_steps=0)

    def student_fwd():
        # a fresh generator per call, so every evaluation draws the same noise
        fresh = np.random.default_rng(run.seed + 2)
        return model_forward(student, tokens, "train", fresh)

    mapping = layer_map(student_fwd().hidden_states, t_hiddens, distill.w_layer,
                        [True] * cfgm.layers)
    model_params = [p for _, p in student.named_params()]
    gate_params = [p for g in student.gates.all() for p in (g.mu, g.log_sigma)]

    checks = {
        "task_ce": (lambda ps: cross_entropy(student_fwd().logits_t, labels),
                    model_params, 1e-3),
        "gate_kl": (lambda ps: vib_loss(student), gate_params, 1e-4),
        "pred_distill": (lambda ps: pred_distill(student_fwd().logits_t, t_logits),
                         model_params, 1e-3),
        "layer_distill": (lambda ps: layer_distill(student_fwd().hidden_states,
                                                   t_hiddens, distill.w_layer,
                                                   mapping),
                          model_params + [distill.w_layer], 1e-3),
        "sparsity": (lambda ps: sparsity_loss(
            controller, expected_sparsity(student, run.metric, run.seq_ref,
                                          run.tau, run.temperature)),
                     gate_params, 1e-3),
    }
    results = {}
    # the evaluations run in float64, so a small step costs no roundoff;
    # 1e-3 is too coarse for the curvature of stacked pre-norm layers
    for name, (fn, params, thresh) in checks.items():
        err = gradcheck(fn, params, eps=1e-4, seed=run.seed,
                        sample_limit=sample_limit)
        results[name] = (err, thresh)
    return results


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vibprune",
                                description="Gate-based structured pruning toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    commands = {
        "train-teacher": cmd_train_teacher,
        "prune": cmd_prune,
        "finetune": cmd_finetune,
        "extract": cmd_extract,
        "eval": cmd_eval,
        "analyze": cmd_analyze,
        "gradcheck": cmd_gradcheck,
    }
    for name, fn in commands.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--variant", default=None)
        sp.add_argument("--target", type=float, default=None)
        sp.add_argument("--metric", default=None)
        sp.add_argument("--teacher", default=None)
        sp.add_argument("--student", default=None)
        sp.add_argument("--dense", default=None)
        sp.add_argument("--dense-report", dest="dense_report", default=None)
        sp.add_argument("--dataset", default=None)
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except VibError as e:
        print(str(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
