"""Per-layer metrics from the spans of one traced run.

"Per step" means per prune step of the traced chain: the spans that start
inside a step's window (see `workloads.step_windows`), summed and divided by
the number of windows. A window's time that no span inside it covers is the
prune loop's own code, so it counts as `pipeline` self time; tracing's own
bookkeeping counts as `trace`. The layer self times therefore add up to the
traced step time, and the traced step time minus the untraced one, measured
in the same process, is the tracing overhead.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import TAG_BATCH_SHIFT, TAG_GATED, TAG_TRAIN

OPS = ("matmul", "add", "mul", "scale", "gelu", "layer_norm_lastdim",
       "softmax_lastdim", "slice_lastdim", "concat_lastdim", "transpose_last2",
       "sigmoid", "tsum")
OBJECTIVE = ("expected_sparsity", "vib_loss", "layer_map", "layer_distill",
             "pred_distill", "cross_entropy")
STEP_LAYERS = ("tensor", "gates", "model", "objective", "pipeline", "cli", "trace")
STAGES = {"train-teacher": "cmd_train_teacher", "prune": "cmd_prune",
          "finetune": "cmd_finetune", "extract": "cmd_extract",
          "eval": "cmd_eval"}


class Spans:
    def __init__(self, tracer, windows):
        a = tracer.arrays()
        self.names = np.asarray(tracer.names)
        self.nid = a["name"]
        self.dur = a["end"] - a["start"]
        self.self_t = a["self"]
        self.aux = a["aux"]
        self.tag = a["tag"]
        self.hidden = a["hidden"]
        self.parent = a["parent"]
        self.layer = np.asarray([n.split(".", 1)[0] for n in tracer.names])[self.nid]
        self.primitive = np.isin(self.names, list(tracer.primitives))[self.nid]

        ws = np.asarray([s for s, _ in windows])
        we = np.asarray([e for _, e in windows])
        self.n_steps = len(windows)
        self.step_s = float((we - ws).sum())
        k = np.searchsorted(ws, a["start"], side="right") - 1
        inside = (k >= 0) & (a["start"] < we[np.clip(k, 0, None)])
        self.window = np.where(inside, k, -1)

    def named(self, name: str) -> np.ndarray:
        ids = np.flatnonzero(self.names == name)
        return np.isin(self.nid, ids)

    def in_step(self, name: str) -> np.ndarray:
        return self.named(name) & (self.window >= 0)

    def per_step(self, values: np.ndarray, mask: np.ndarray) -> float:
        return float(values[mask].sum()) / self.n_steps

    def step_self_ms(self) -> dict:
        """Self time per prune step, by layer; sums to the traced step time."""
        inw = self.window >= 0
        out = {}
        for layer in STEP_LAYERS:
            out[layer] = 1e3 * self.per_step(self.self_t, inw & (self.layer == layer))
        out["trace"] += 1e3 * self.per_step(self.hidden, inw)
        # window time outside every span that starts in it: the loop's own code
        parent_win = np.where(self.parent >= 0,
                              self.window[np.clip(self.parent, 0, None)], -1)
        top = inw & (parent_win != self.window)
        covered = float(self.dur[top].sum())
        out["pipeline"] += 1e3 * (self.step_s - covered) / self.n_steps
        return out


def derive(tracer, chain, plain, serving) -> dict:
    sp = Spans(tracer, chain.prune_windows)
    m = {}
    for op in OPS:
        mask = sp.in_step(f"tensor.{op}")
        m[f"tensor.{op}.ms_per_step"] = 1e3 * sp.per_step(sp.self_t, mask)
        m[f"tensor.{op}.calls_per_step"] = mask.sum() / sp.n_steps
        m[f"tensor.{op}.mb_per_step"] = sp.per_step(sp.aux, mask) / 1e6
    m["tensor.primitive_calls_per_step"] = (
        (sp.primitive & (sp.window >= 0)).sum() / sp.n_steps)
    bw = sp.in_step("tensor.backward")
    m["tensor.backward.ms_per_step"] = 1e3 * sp.per_step(sp.dur, bw)
    m["tensor.backward.useful_grad_ratio"] = (
        sp.aux[sp.in_step("pipeline.AdamW.step")].sum() / sp.aux[bw].sum())

    for fn in ("sample_mask", "soft_keep"):
        mask = sp.in_step(f"gates.{fn}")
        m[f"gates.{fn}.ms_per_step"] = 1e3 * sp.per_step(sp.dur, mask)
        m[f"gates.{fn}.calls_per_step"] = mask.sum() / sp.n_steps

    fwd = sp.named("model.forward")
    m["model.forward.train_ms_per_step"] = 1e3 * sp.per_step(
        sp.dur, fwd & (sp.window >= 0) & (sp.tag & TAG_TRAIN > 0))
    b256 = (sp.tag >> TAG_BATCH_SHIFT) == 256
    gated = (sp.tag & TAG_GATED) > 0
    m["model.forward.eval_ms.teacher.b256"] = _median_ms(sp.dur[fwd & b256 & ~gated])
    m["model.forward.eval_ms.masked.b256"] = _median_ms(sp.dur[fwd & b256 & gated])

    for fn in OBJECTIVE:
        m[f"objective.{fn}.ms_per_step"] = 1e3 * sp.per_step(
            sp.dur, sp.in_step(f"objective.{fn}"))

    m["pipeline.AdamW.step.ms_per_step"] = 1e3 * sp.per_step(
        sp.dur, sp.in_step("pipeline.AdamW.step"))
    gets = sp.named("pipeline._TeacherCache.get")
    m["pipeline.teacher_forwards"] = float(sp.aux[gets].sum())
    m["pipeline.teacher_cache.hit_ratio"] = 1.0 - sp.aux[gets].sum() / gets.sum()
    m["pipeline.evaluate.ms"] = _mean_ms(sp.dur[sp.named("pipeline.evaluate")])

    m["extract.extract_dense.ms"] = _mean_ms(sp.dur[sp.named("extract.extract_dense")])
    dense = sp.named("extract.DenseModel.forward")
    for b in (64, 256):
        m[f"extract.DenseModel.forward.ms.b{b}"] = _median_ms(
            sp.dur[dense & ((sp.tag >> TAG_BATCH_SHIFT) == b)])
    m["extract.flops_ratio"] = serving.flops_ratio
    m["extract.params_ratio"] = serving.params_ratio

    for fn in ("generate", "save_dataset", "load_dataset"):
        m[f"data.{fn}.ms"] = _mean_ms(sp.dur[sp.named(f"data.{fn}")])
    saves = sp.named("checkpoint.save_tensors")
    m["checkpoint.save_tensors.ms"] = _mean_ms(sp.dur[saves])
    m["checkpoint.load_tensors.ms"] = _mean_ms(sp.dur[sp.named("checkpoint.load_tensors")])
    m["checkpoint.bytes"] = float(chain.checkpoint_bytes)

    for stage, fn in STAGES.items():
        m[f"cli.{stage}.s"] = float(sp.dur[sp.named(f"cli.{fn}")].sum())

    for layer, ms in sp.step_self_ms().items():
        m[f"step.self_ms.{layer}"] = ms
    m["step.traced_ms"] = 1e3 * sp.step_s / sp.n_steps
    m["trace.overhead_ms"] = (statistics.median(chain.steps_ms["prune"])
                              - statistics.median(plain.steps_ms["prune"]))
    return m


def _median_ms(durations: np.ndarray) -> float:
    return 1e3 * float(np.median(durations))


def _mean_ms(durations: np.ndarray) -> float:
    return 1e3 * float(np.mean(durations))
