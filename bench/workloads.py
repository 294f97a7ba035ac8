"""The benchmark's workloads and the code that drives vibprune through them.

Both workloads run the same two parts, each through the package's public
surface and in this one process:

* the CLI chain, train-teacher -> prune -> finetune -> extract -> eval,
  called in-process through `vibprune.cli.main`;
* serving: eval forwards of a teacher, its masked student and the extracted
  dense model, at batch 64 and 256. The student's gates are drawn from the
  seed so that the dense model keeps about a quarter of the teacher's FLOPs
  and one whole FFN sub-layer is removed; no training runs for this part.

`readme-vtrans` uses the README sample config. Its tensors are large, so
numpy kernels dominate a step. `narrow-faster` uses a narrow, deep,
small-batch model under the `faster` variant and the FLOPs metric. Its
tensors are tiny, so per-node bookkeeping dominates a step, and its
backward computes gradients for frozen weights that the optimizer never
reads.

Everything the program sees (config files, dataset, checkpoints) is made
here from the workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

# A short schedule: a faster multiplier and gate learning rate than the
# defaults, so that the short prune phase removes units.
_SCHEDULE = {
    "data.n_val": 64,
    "data.n_test": 256,
    "train.lr_gates": 0.03,
    "train.lambda_lr": 0.5,
    "train.warmup_frac": 0.2,
    "prune.target": 0.5,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict          # everything but the seed
    chains: int           # CLI chains per run, all with the run's seed

    @property
    def seq(self) -> int:
        return self.config["data.seq"]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="readme-vtrans",
            why="README config: large tensors, so numpy kernels and AdamW over "
                "all weights dominate a step",
            config={
                "model.vocab_size": 16, "model.max_seq": 20, "model.width": 64,
                "model.layers": 4, "model.heads": 4, "model.ffn_dim": 128,
                "data.kind": "majority_pair", "data.seq": 20,
                "data.n_train": 512, "train.batch_size": 32,
                "train.epochs_teacher": 2, "train.epochs_prune": 3,
                "train.epochs_finetune": 3,
                "prune.metric": "parameters", "run.variant": "vtrans",
                **_SCHEDULE,
            },
            chains=2,
        ),
        Workload(
            name="narrow-faster",
            why="narrow deep model, batch 8: tiny tensors, so per-node "
                "bookkeeping dominates; frozen weights still get gradients",
            config={
                "model.vocab_size": 16, "model.max_seq": 12, "model.width": 16,
                "model.layers": 6, "model.heads": 2, "model.ffn_dim": 32,
                "data.kind": "marked_parity", "data.seq": 12,
                "data.n_train": 512, "train.batch_size": 8,
                "train.subset_fraction": 0.25,
                "train.epochs_teacher": 2, "train.epochs_prune": 8,
                "train.epochs_finetune": 4,
                "prune.metric": "flops", "prune.seq_ref": 12,
                "run.variant": "faster",
                **_SCHEDULE,
            },
            chains=4,
        ),
    )
}

SERVE_BATCHES = (64, 256)
SERVE_FLOPS_SHARE = 0.25
LOGIT_TOL = 1e-5


class Ledger:
    """Operations attempted and failed; a failure keeps its message."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def write_config(path: str, values: dict, seed: int) -> None:
    lines = [f"{k} = {v}" for k, v in values.items()]
    lines += [f"run.seed = {seed}", f"data.seed = {seed}"]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Prepared:
    config: str
    dataset: str
    serving: "Serving"


def prepare(vp, w: Workload, seed: int, out_dir: str) -> Prepared:
    """Write the configs and dataset and build the serving models."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = os.path.join(out_dir, "run.cfg")
    write_config(cfg, w.config, seed)
    settings = vp.cli.Settings(vp.cli.parse_config_file(cfg), None)
    ds_path = os.path.join(out_dir, "dataset.bin")
    vp.data.save_dataset(vp.data.generate(settings.task_spec()), ds_path)
    serving = build_serving(vp, settings.model_config(), w.seq, seed)
    return Prepared(cfg, ds_path, serving)


# ---------------------------------------------------------------------------
# the CLI chain


class StepClock:
    """Replaces `cli.MetricsWriter` with a subclass that reads the clock once
    per metrics record, before the record is written."""

    def __init__(self, cli, tracer=None):
        self.writers = []
        clock = self
        base = cli.MetricsWriter
        write_id = tracer.intern("cli.MetricsWriter.__call__") if tracer else None

        class ClockedWriter(base):
            def __init__(self, path):
                super().__init__(path)
                self.reads = []
                clock.writers.append(self)

            def __call__(self, record):
                self.reads.append((time.perf_counter(), record))
                if tracer is None:
                    return super().__call__(record)
                idx = tracer.open(write_id)
                try:
                    return super().__call__(record)
                finally:
                    tracer.close(idx)

        self._cli, self._base = cli, base
        cli.MetricsWriter = ClockedWriter

    def restore(self):
        self._cli.MetricsWriter = self._base

    def phase(self, name: str):
        """Clock reads of the writer whose records belong to `name`."""
        for wr in self.writers:
            if wr.reads and wr.reads[0][1]["phase"] == name:
                return wr.reads
        return []


def step_windows(reads) -> list:
    """(start, end) of each step that has a clock read before it.

    A step ends at its record's clock read and starts at the previous read,
    which is either the previous step's record or the epoch's eval record;
    an interval that ends at an eval record is evaluation, not a step.
    """
    return [(reads[i - 1][0], reads[i][0]) for i in range(1, len(reads))
            if "val_accuracy" not in reads[i][1]]


def run_stage(vp, ledger: Ledger, argv: list) -> tuple:
    """One CLI command in-process; returns (ok, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = vp.cli.main(argv)
    except Exception:  # a raw traceback is itself the failure being counted
        rc = None
        err.write(traceback.format_exc())
    dt = time.perf_counter() - t0
    text = err.getvalue()
    ok = ledger.check(rc == 0 and "Traceback" not in text,
                      f"{argv[0]}: exit {rc}: {text.strip()[-300:]}")
    return ok, dt, out.getvalue()


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@dataclass
class ChainResult:
    seconds: float
    stage_s: dict
    steps_ms: dict        # phase -> list of step times
    prune_windows: list
    fingerprint: dict
    checkpoint_bytes: int


def run_chain(vp, w: Workload, prep: Prepared, out_dir: str, ledger: Ledger,
              tracer=None, between=None) -> ChainResult | None:
    """The five CLI stages, then the output checks. None if a stage failed.

    `between`, if given, runs after each stage; its time is not part of the
    chain's."""
    j = lambda *p: os.path.join(out_dir, *p)  # noqa: E731
    cfg = ["--config", prep.config]
    stages = [
        ("train-teacher", cfg + ["--out", j("teacher"), "--dataset", prep.dataset]),
        ("prune", cfg + ["--out", j("prune"), "--teacher", j("teacher", "teacher.ckpt"),
                         "--dataset", prep.dataset]),
        ("finetune", cfg + ["--out", j("finetune"),
                            "--teacher", j("teacher", "teacher.ckpt"),
                            "--student", j("prune", "pruned.ckpt"),
                            "--dataset", prep.dataset]),
        ("extract", cfg + ["--out", j("extract"),
                           "--student", j("finetune", "finetuned.ckpt")]),
        ("eval", cfg + ["--dense", j("extract", "dense.ckpt"),
                        "--dataset", prep.dataset]),
    ]
    clock = StepClock(vp.cli, tracer)
    stage_s, printed = {}, {}
    try:
        for name, args in stages:
            ok, dt, stdout = run_stage(vp, ledger, [name] + args)
            if not ok:
                return None
            stage_s[name], printed[name] = dt, _last_json(stdout)
            if between:
                between()
    finally:
        clock.restore()
    seconds = sum(stage_s.values())

    steps = {ph: [1e3 * (b - a) for a, b in step_windows(clock.phase(ph))]
             for ph in ("teacher", "prune", "finetune")}
    prune_reads = clock.phase("prune")
    last_prune = [r for _, r in prune_reads if "val_accuracy" not in r][-1]

    metric = w.config["prune.metric"]
    realized = printed["extract"]["sparsity_" + ("params" if metric == "parameters"
                                                  else "flops")]
    fingerprint = {
        "prune_loss": last_prune["loss_total"],
        "s_e": printed["prune"]["s_e"],
        "realized_sparsity": realized,
        "sparsity_gap": abs(realized - w.config["prune.target"]),
        "dense_accuracy": printed["eval"]["accuracy"],
    }
    ckpts = [j("teacher", "teacher.ckpt"), j("prune", "pruned.ckpt"),
             j("finetune", "finetuned.ckpt"), j("extract", "dense.ckpt")]
    check_chain_outputs(vp, prep, out_dir, ledger)
    return ChainResult(seconds, stage_s, steps, step_windows(prune_reads),
                       fingerprint, sum(os.path.getsize(p) for p in ckpts))


def _binarized_student(vp, settings, path):
    run = settings.run_config()
    student, _ = vp.cli.load_model(settings.model_config(), run,
                                   vp.checkpoint.load_tensors(path), with_gates=True)
    return vp.pipeline.binarize(student, run.tau), run.tau


def check_chain_outputs(vp, prep: Prepared, out_dir: str, ledger: Ledger) -> None:
    """Dense logits equal masked logits; pruned entries survive finetuning."""
    settings = vp.cli.Settings(vp.cli.parse_config_file(prep.config), None)
    j = lambda *p: os.path.join(out_dir, *p)  # noqa: E731

    student, _ = _binarized_student(vp, settings, j("finetune", "finetuned.ckpt"))
    with open(j("extract", "dense.json")) as f:
        report = json.load(f)
    dense = vp.cli.load_dense(settings.model_config(),
                              vp.checkpoint.load_tensors(j("extract", "dense.ckpt")),
                              report)
    tokens, _ = vp.data.load_dataset(prep.dataset).split("test")
    tokens = tokens.astype(np.int64)
    with vp.tensor.no_grad():
        masked = vp.model.forward(student, tokens, "eval").logits
    diff = float(np.abs(dense.forward(tokens) - masked).max())
    ledger.check(diff <= LOGIT_TOL, f"trained dense vs masked logits: {diff:.3g}")

    pruned, tau = _binarized_student(vp, settings, j("prune", "pruned.ckpt"))
    masks = vp.extract.survival_masks(pruned, tau)
    before = vp.checkpoint.load_tensors(j("prune", "pruned.ckpt"))
    after = vp.checkpoint.load_tensors(j("finetune", "finetuned.ckpt"))
    moved = [name for name, keep in masks.items()
             if not np.array_equal(before[name][~keep].view(np.uint32),
                                   after[name][~keep].view(np.uint32))]
    ledger.check(not moved, f"pruned entries changed by finetune: {moved[:3]}")


# ---------------------------------------------------------------------------
# serving


@dataclass
class Serving:
    teacher: object
    student: object
    dense: object
    tokens: dict          # batch size -> (batch, seq) int64 tokens
    flops_ratio: float
    params_ratio: float


def _draw_gates(g, seed: int, share: float, dead_ffn: int) -> None:
    """Gate mu values in [0.5, 1.5), zeroed on all but `share` of each
    group's units. How many units survive depends on `share` alone; which
    ones, on the seed. FFN outputs keep the kept width dims, the only ones
    whose output reaches the stream."""
    rng = np.random.default_rng([seed, 2])

    def keep(units, n_keep=None, order=None):
        mu = rng.uniform(0.5, 1.5, units).astype(np.float32)
        order = rng.permutation(units) if order is None else order
        n_keep = max(1, int(round(share * units))) if n_keep is None else n_keep
        mu[order[n_keep:]] = 0.0
        return mu, order

    g.width.mu.data, width_order = keep(g.width.unit_count)
    n_width = int((g.width.mu.data > 0).sum())
    for i in range(len(g.heads)):
        g.heads[i].mu.data, _ = keep(g.heads[i].unit_count)
        g.inter[i].mu.data, _ = keep(g.inter[i].unit_count)
        g.out[i].mu.data, _ = keep(g.out[i].unit_count, n_width, width_order)
        g.layer_mha[i].mu.data, _ = keep(1, 1)
        g.layer_ffn[i].mu.data, _ = keep(1, 0 if i == dead_ffn else 1)


def build_serving(vp, cfg, seq: int, seed: int) -> Serving:
    """Teacher from the seed; student gates drawn from the seed, with the
    per-group keep share chosen so the dense model keeps about a quarter of
    the teacher's FLOPs, and one whole FFN sub-layer removed."""
    teacher = vp.model.build_teacher(cfg, seed)
    student = vp.model.build_student(teacher, vp.gates.GateInit(seed=seed),
                                     vp.model.default_betas(cfg))
    dead_ffn = int(np.random.default_rng([seed, 1]).integers(cfg.layers))
    full = vp.extract.flop_count(teacher, seq)

    def flops_share(share):
        _draw_gates(student.gates, seed, share, dead_ffn)
        s_m, per_layer = vp.objective.hard_keep_sums(student, 0.0)
        return vp.objective.flops_from_sums(cfg, seq, s_m, per_layer) / full

    shares = np.linspace(0.3, 1.0, 71)
    best = min(shares, key=lambda s: abs(flops_share(s) - SERVE_FLOPS_SHARE))
    _draw_gates(student.gates, seed, best, dead_ffn)
    vp.pipeline.binarize(student, 0.0)
    dense = vp.extract.extract_dense(student)

    rng = np.random.default_rng([seed, 3])
    tokens = {b: rng.integers(0, cfg.vocab_size, size=(b, seq)).astype(np.int64)
              for b in SERVE_BATCHES}
    return Serving(
        teacher, student, dense, tokens,
        flops_ratio=vp.extract.flop_count(dense, seq) / full,
        params_ratio=(vp.extract.param_count(dense)
                      / vp.extract.param_count(teacher)))


class Server:
    """Closed loop, one client. Each round runs the teacher and the masked
    student at batch 256 and 64, and the dense model at both, and checks
    every output against the first one of its kind."""

    def __init__(self, vp, s: Serving, ledger: Ledger):
        def gated(model):
            def call(tokens):
                with vp.tensor.no_grad():
                    return vp.model.forward(model, tokens, "eval").logits
            return call

        self.calls = [
            ("teacher", 256, gated(s.teacher)),
            ("masked", 256, gated(s.student)),
            ("masked", 64, gated(s.student)),
            ("dense", 256, s.dense.forward),
            ("dense", 64, s.dense.forward),
        ]
        self.tokens = s.tokens
        self.ledger = ledger
        self.times = {(m, b): [] for m, b, _ in self.calls}  # seconds per call
        self.rounds = 0
        self._first = {}

    def round(self) -> None:
        for m, b, fn in self.calls:
            t0 = time.perf_counter()
            out = fn(self.tokens[b])
            self.times[(m, b)].append(time.perf_counter() - t0)
            ref = self._first.setdefault((m, b), out)
            self.ledger.check(np.array_equal(out, ref), f"{m} b{b} output changed")
        self.rounds += 1
        if self.rounds == 1:
            for b in SERVE_BATCHES:
                diff = float(np.abs(self._first[("dense", b)]
                                    - self._first[("masked", b)]).max())
                self.ledger.check(diff <= LOGIT_TOL,
                                  f"serving dense vs masked logits b{b}: {diff:.3g}")
