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
from .gates import GateInit
from .model import (
    GatedTransformer,
    GateSet,
    ModelConfig,
    Structure,
    build_teacher,
    default_betas,
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
    "analyze.tokens": (str, "0,1"),
    "gradcheck.batch": (int, 2),
    "gradcheck.seq": (int, 6),
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
        return typ(value)
    except ValueError:
        raise ConfigError(f"key '{key}': cannot parse '{value}' as {typ.__name__}")


class Settings:
    """Typed view over the merged config + CLI overrides."""

    def __init__(self, raw: dict, args):
        vals = {k: d for k, (t, d) in _SCHEMA.items()}
        for k, v in raw.items():
            vals[k] = _coerce(k, v)
        if getattr(args, "seed", None) is not None:
            vals["run.seed"] = args.seed
            vals["data.seed"] = args.seed
        if getattr(args, "variant", None) is not None:
            vals["run.variant"] = args.variant
        if getattr(args, "target", None) is not None:
            vals["prune.target"] = args.target
        if getattr(args, "metric", None) is not None:
            vals["prune.metric"] = args.metric
        self.v = vals

    def model_config(self) -> ModelConfig:
        v = self.v
        return ModelConfig(
            vocab_size=v["model.vocab_size"], max_seq=v["model.max_seq"],
            width=v["model.width"], layers=v["model.layers"],
            heads=v["model.heads"], ffn_dim=v["model.ffn_dim"],
            num_classes=v["model.num_classes"], causal=v["model.causal"])

    def task_spec(self) -> TaskSpec:
        v = self.v
        if v["model.max_seq"] < v["data.seq"]:
            raise ConfigError("model.max_seq is smaller than data.seq")
        return TaskSpec(
            kind=v["data.kind"], vocab=v["model.vocab_size"], seq=v["data.seq"],
            n_train=v["data.n_train"], n_val=v["data.n_val"],
            n_test=v["data.n_test"], seed=v["data.seed"],
            n_markers=v["data.n_markers"], signal_k=v["data.signal_k"],
            signal_margin=v["data.signal_margin"])

    def run_config(self) -> RunConfig:
        v = self.v
        frac = v["train.subset_fraction"]
        return RunConfig(
            variant=v["run.variant"], epochs_teacher=v["train.epochs_teacher"],
            epochs_prune=v["train.epochs_prune"],
            epochs_finetune=v["train.epochs_finetune"],
            batch_size=v["train.batch_size"], lr_weights=v["train.lr_weights"],
            lr_gates=v["train.lr_gates"], lambda_lr=v["train.lambda_lr"],
            subset_fraction=None if frac < 0 else frac, seed=v["run.seed"],
            tau=v["prune.tau"], temperature=v["prune.temperature"],
            target=v["prune.target"], metric=v["prune.metric"],
            eta=v["prune.eta"], beta_global=v["prune.beta_global"],
            seq_ref=v["prune.seq_ref"], warmup_frac=v["train.warmup_frac"],
            gate_init=GateInit(seed=v["run.seed"]))


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
    distill = DistillConfig(eta=run.eta, width=config.width)
    seen = set()
    for name, p in model.named_params():
        if name not in tensors:
            raise ConfigError(f"checkpoint is missing tensor '{name}'")
        arr = tensors[name]
        if arr.shape != p.data.shape:
            raise ConfigError(
                f"tensor '{name}' has shape {arr.shape}, expected {p.data.shape}")
        p.data = arr.astype(np.float32).copy()
        seen.add(name)
    if "distill.w_layer" in tensors:
        distill.w_layer.data = tensors["distill.w_layer"].astype(np.float32).copy()
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


def _ensure_out(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


class MetricsWriter:
    def __init__(self, path: str):
        self.f = open(path, "w")

    def __call__(self, record: dict):
        self.f.write(json.dumps(record) + "\n")
        self.f.flush()

    def close(self):
        self.f.close()


def _dataset(settings: Settings, args) -> Dataset:
    """The given or generated dataset; a label outside the model's classes is
    a DataError."""
    if getattr(args, "dataset", None):
        ds = load_dataset(args.dataset)
    else:
        ds = generate(settings.task_spec())
    classes, top = settings.v["model.num_classes"], int(ds.labels.max(initial=0))
    if top >= classes:
        raise DataError(f"dataset label {top} is outside [0, {classes}), the "
                        f"classes of model.num_classes")
    return ds


def _load_student_ckpt(settings, run, path):
    tensors = load_tensors(path)
    return load_model(settings.model_config(), run, tensors, with_gates=True)


# ---------------------------------------------------------------------------
# commands


def cmd_train_teacher(args):
    settings = Settings(parse_config_file(args.config), args)
    out = _ensure_out(args)
    run = settings.run_config()
    ds = _dataset(settings, args)
    save_dataset(ds, os.path.join(out, "dataset.bin"))
    writer = MetricsWriter(os.path.join(out, "teacher.metrics.jsonl"))
    teacher = train_teacher(settings.model_config(), ds, run, metrics_cb=writer)
    writer.close()
    save_tensors(model_tensors(teacher), os.path.join(out, "teacher.ckpt"))
    acc = evaluate(teacher, *ds.split("val"))
    print(json.dumps({"val_accuracy": acc,
                      "params": param_count(teacher),
                      "flops": flop_count(teacher, settings.v["prune.seq_ref"])}))
    return 0


def cmd_prune(args):
    settings = Settings(parse_config_file(args.config), args)
    out = _ensure_out(args)
    run = settings.run_config()
    if not args.teacher:
        raise ConfigError("prune requires --teacher <checkpoint>")
    teacher, _ = load_model(settings.model_config(), run,
                            load_tensors(args.teacher), with_gates=False)
    ds = _dataset(settings, args)
    student = make_student(teacher, run)
    distill = DistillConfig(eta=run.eta, width=settings.model_config().width)
    writer = MetricsWriter(os.path.join(out, "prune.metrics.jsonl"))
    controller, metrics = prune_phase(student, teacher, ds, run, distill,
                                      metrics_cb=writer)
    writer.close()
    save_tensors(model_tensors(student, distill), os.path.join(out, "pruned.ckpt"))
    final = metrics[-1]
    print(json.dumps({"s_e": final["s_e"], "t": run.target,
                      "lambda1": controller.lambda1,
                      "lambda2": controller.lambda2}))
    return 0


def cmd_finetune(args):
    settings = Settings(parse_config_file(args.config), args)
    out = _ensure_out(args)
    run = settings.run_config()
    if not args.teacher or not args.student:
        raise ConfigError("finetune requires --teacher and --student checkpoints")
    teacher, _ = load_model(settings.model_config(), run,
                            load_tensors(args.teacher), with_gates=False)
    student, distill = _load_student_ckpt(settings, run, args.student)
    binarize(student, run.tau)
    ds = _dataset(settings, args)
    writer = MetricsWriter(os.path.join(out, "finetune.metrics.jsonl"))
    finetune_phase(student, teacher, ds, run, distill, metrics_cb=writer)
    writer.close()
    save_tensors(model_tensors(student, distill),
                 os.path.join(out, "finetuned.ckpt"))
    acc = evaluate(student, *ds.split("val"))
    print(json.dumps({"val_accuracy": acc}))
    return 0


def cmd_extract(args):
    settings = Settings(parse_config_file(args.config), args)
    out = _ensure_out(args)
    run = settings.run_config()
    if not args.student:
        raise ConfigError("extract requires --student <checkpoint>")
    student, _ = _load_student_ckpt(settings, run, args.student)
    binarize(student, run.tau)
    teacher_params = param_count(student)  # same shapes as the teacher
    seq_ref = settings.v["prune.seq_ref"]
    from .objective import full_keep_sums, flops_from_sums

    cfgm = settings.model_config()
    teacher_flops = int(round(flops_from_sums(cfgm, seq_ref,
                                              *full_keep_sums(cfgm))))
    dense = extract_dense(student)
    report = sparsity_report(dense, teacher_params, teacher_flops, seq_ref)
    save_tensors(dense.arrays, os.path.join(out, "dense.ckpt"))
    with open(os.path.join(out, "dense.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"params": report["params"], "flops": report["flops"],
                      "sparsity_params": report["sparsity_params"],
                      "sparsity_flops": report["sparsity_flops"]}))
    return 0


def _load_any_model(settings, run, args):
    """teacher/student/dense checkpoint, whichever was given."""
    if getattr(args, "dense", None):
        path = args.dense_report or os.path.join(os.path.dirname(args.dense),
                                                 "dense.json")
        if not os.path.exists(path):
            raise ConfigError(f"dense report not found: {path}")
        with open(path) as f:
            try:
                report = json.load(f)
            except ValueError as e:
                raise FormatError(f"{path}: not JSON: {e}")
        return load_dense(settings.model_config(), load_tensors(args.dense), report)
    if getattr(args, "student", None):
        student, _ = _load_student_ckpt(settings, run, args.student)
        binarize(student, run.tau)
        return student
    if getattr(args, "teacher", None):
        teacher, _ = load_model(settings.model_config(), run,
                                load_tensors(args.teacher), with_gates=False)
        return teacher
    raise ConfigError("give one of --teacher, --student, --dense")


def cmd_eval(args):
    settings = Settings(parse_config_file(args.config), args)
    run = settings.run_config()
    model = _load_any_model(settings, run, args)
    ds = _dataset(settings, args)
    acc = evaluate(model, *ds.split("test"))
    print(json.dumps({"accuracy": acc, "params": param_count(model),
                      "flops": flop_count(model, settings.v["prune.seq_ref"])}))
    return 0


def cmd_analyze(args):
    settings = Settings(parse_config_file(args.config), args)
    out = _ensure_out(args)
    run = settings.run_config()
    model = _load_any_model(settings, run, args)
    ds = _dataset(settings, args)
    tokens, _ = ds.split("test")
    token_ids = [int(t) for t in settings.v["analyze.tokens"].split(",")]

    if isinstance(model, DenseModel):
        pattern = analysis.pruning_pattern(model)
        with open(os.path.join(out, "pruning_pattern.json"), "w") as f:
            json.dump(pattern, f, indent=1)
        print(json.dumps({"written": ["pruning_pattern.json"]}))
        return 0

    stats = analysis.token_attention(model, tokens, token_ids, run.tau)
    with open(os.path.join(out, "token_attention.json"), "w") as f:
        json.dump({
            "token_ids": token_ids,
            "token_share": {f"{l}.{h}": v for (l, h), v in stats.token_share.items()},
            "offset_share": {f"{l}.{h}": v for (l, h), v in
                             stats.offset_share.items()},
        }, f, indent=1)
    mat, pairs = analysis.head_js(model, tokens, run.tau)
    with open(os.path.join(out, "head_divergence.json"), "w") as f:
        json.dump({"pairs": [list(p) for p in pairs], "matrix": mat.tolist()}, f,
                  indent=1)
    written = ["token_attention.json", "head_divergence.json"]
    if model.gates is not None:
        with open(os.path.join(out, "pruning_pattern.json"), "w") as f:
            json.dump(analysis.pruning_pattern(model), f, indent=1)
        written.append("pruning_pattern.json")
    print(json.dumps({"written": written}))
    return 0


def cmd_gradcheck(args):
    settings = Settings(parse_config_file(args.config), args)
    run = settings.run_config()
    cfgm = settings.model_config()
    results = run_gradcheck_suite(cfgm, run, batch=settings.v["gradcheck.batch"],
                                  seqlen=settings.v["gradcheck.seq"])
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
    distill = DistillConfig(eta=run.eta, width=cfgm.width)
    counts = CountModel.build(cfgm, run.metric, run.seq_ref)
    controller = SparsityController(target=run.target, lambda1=0.4, lambda2=0.8,
                                    warmup_steps=0)

    class FrozenNoise:
        def __init__(self, seed):
            self.seed, self.n = seed, 0

        def standard_normal(self, shape):
            self.n += 1
            return np.random.default_rng((self.seed, self.n)).standard_normal(shape)

    def student_fwd():
        return model_forward(student, tokens, "train", FrozenNoise(run.seed + 2))

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
            controller, expected_sparsity(student, counts, run.tau,
                                          run.temperature)),
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
