"""Pipeline tests: subsetting, binarize semantics, freeze policies,
finetune weight masking, and short-run determinism."""

import numpy as np
import pytest

from vibprune import pipeline
from vibprune.data import TaskSpec, generate
from vibprune.errors import ContractError, DegenerateModelError
from vibprune.gates import GateInit, hard_mask
from vibprune.model import ModelConfig, build_teacher, forward, structure
from vibprune.objective import DistillConfig
from vibprune.pipeline import (
    AdamW,
    RunConfig,
    binarize,
    evaluate,
    finetune_phase,
    make_student,
    prune_phase,
    subset,
    train_teacher,
    trains_norm_bias_gates,
    trains_weights,
)
from vibprune.tensor import no_grad

CFG = ModelConfig(vocab_size=16, max_seq=14, width=16, layers=2, heads=2,
                  ffn_dim=24, num_classes=2)
SPEC = TaskSpec("majority_pair", vocab=16, seq=12, n_train=192, n_val=64,
                n_test=64, seed=5)


def weights(model) -> dict:
    """A copy of every non-gate parameter array, by name."""
    return {k: v.data.copy() for k, v in model.params.items()}


def identity_map() -> DistillConfig:
    return DistillConfig(width=CFG.width)


def quick_run_cfg(**kw):
    base = dict(variant="vtrans", epochs_teacher=1, epochs_prune=1,
                epochs_finetune=1, batch_size=32, seed=0, target=0.5)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    return generate(SPEC)


@pytest.fixture(scope="module")
def teacher(dataset):
    return train_teacher(CFG, dataset, quick_run_cfg(epochs_teacher=2))


class TestSubset:
    def test_identity_at_one(self):
        t = np.arange(20).reshape(10, 2)
        l = np.array([0, 1] * 5)
        st, sl = subset(t, l, 1.0, seed=0)
        np.testing.assert_array_equal(st, t)
        np.testing.assert_array_equal(sl, l)

    def test_three_percent_of_1000(self):
        t = np.zeros((1000, 4), dtype=np.uint16)
        l = np.array([0, 1] * 500)
        st, sl = subset(t, l, 0.03, seed=1)
        assert len(sl) == 30

    def test_stratified_balance(self):
        t = np.zeros((1000, 4), dtype=np.uint16)
        l = np.array([0] * 500 + [1] * 500)
        _, sl = subset(t, l, 0.1, seed=2)
        assert (sl == 0).sum() == 50 and (sl == 1).sum() == 50

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        t = rng.integers(0, 9, size=(200, 3))
        l = rng.integers(0, 2, size=200)
        a = subset(t, l, 0.2, seed=9)
        b = subset(t, l, 0.2, seed=9)
        np.testing.assert_array_equal(a[0], b[0])

    def test_fraction_range(self):
        with pytest.raises(ContractError):
            subset(np.zeros((4, 2)), np.zeros(4), 0.0, 0)


class TestBinarize:
    def test_frozen_constant_mask(self, teacher):
        s = make_student(teacher, quick_run_cfg())
        g = s.gates.heads[0]
        g.mu.data[:] = [1.2, 0.7]
        # set log alpha = [1, -1] exactly: log_sigma = (log mu^2 - la)/2
        g.log_sigma.data[:] = [(np.log(1.2**2) - 1.0) / 2, (np.log(0.7**2) + 1.0) / 2]
        binarize(s, 0.0)
        assert s.binarized and structure(s, 0.0) is s.decision
        assert s.decision.heads[0].tolist() == [0]
        # the stored decision does not follow the gate
        g.log_sigma.data[:] = [5.0, -5.0]
        assert structure(s, 0.0).heads[0].tolist() == [0]

    def test_idempotent(self, teacher):
        s = make_student(teacher, quick_run_cfg())
        binarize(s, 0.0)
        first = s.decision.to_json()
        binarize(s, 0.0)
        assert s.decision.to_json() == first

    def test_decision_is_frozen(self, teacher, dataset):
        s = make_student(teacher, quick_run_cfg(seed=4))
        # log alpha of 1 and -1 on alternate units of every head and FFN
        # gate: the hard masks at tau -2, 0 and 2 all differ
        g = s.gates
        for gate in [*g.heads, *g.inter, *g.out]:
            la = np.where(np.arange(gate.unit_count) % 2 == 0, 1.0, -1.0)
            gate.log_sigma.data[:] = (np.log(gate.mu.data.astype(np.float64) ** 2)
                                      - la) / 2
        tk = dataset.tokens[:16].astype(np.int64)

        def state(t):
            with no_grad():
                logits = forward(s, tk, "eval", tau=t).logits
            return structure(s, t).to_json(), logits

        unbinarized = {t: state(t) for t in (-2.0, 0.0, 2.0)}
        assert unbinarized[-2.0][0] != unbinarized[0.0][0] != unbinarized[2.0][0]
        assert not np.array_equal(unbinarized[2.0][1], unbinarized[0.0][1])
        binarize(s, 0.0)
        st0, logits0 = state(0.0)
        assert st0 == unbinarized[0.0][0]
        for t in (-2.0, 2.0):
            st, logits = state(t)
            assert st == st0
            np.testing.assert_array_equal(logits, logits0)
        # a second binarize decides again, at its own tau
        binarize(s, 2.0)
        st, logits = state(0.0)
        assert st == unbinarized[2.0][0]
        np.testing.assert_array_equal(logits, unbinarized[2.0][1])

    def test_degenerate_binarize_leaves_student_unbinarized(self, teacher):
        s = make_student(teacher, quick_run_cfg())
        # every gate's log alpha is about 4.6: tau 10 keeps no sub-layer
        with pytest.raises(DegenerateModelError):
            binarize(s, 10.0)
        assert not s.binarized and s.decision is None
        for g in s.gates.all():
            assert g.mu.requires_grad and g.log_sigma.requires_grad

    def test_eval_forward_invariant_under_binarize(self, teacher, dataset):
        s = make_student(teacher, quick_run_cfg(seed=3))
        tk = dataset.tokens[:16].astype(np.int64)
        with no_grad():
            before = forward(s, tk, "eval").logits
        binarize(s, 0.0)
        with no_grad():
            after = forward(s, tk, "eval").logits
        np.testing.assert_array_equal(before, after)

    def test_gate_params_stop_training(self, teacher):
        s = make_student(teacher, quick_run_cfg())
        binarize(s, 0.0)
        for g in s.gates.all():
            assert not g.mu.requires_grad and not g.log_sigma.requires_grad


class TestFreezePolicies:
    def test_faster_trains_only_norm_bias_gates(self):
        trains = trains_norm_bias_gates  # faster, prune
        assert trains("gate.heads.0.mu")
        assert trains("layer.0.ln1.weight")
        assert trains("layer.1.wq.bias")
        assert not trains("layer.1.wq.weight")
        assert not trains("emb.tok")

    def test_finetune_excludes_gates(self):
        trains = trains_weights  # vtrans, finetune
        assert not trains("gate.heads.0.mu")
        assert trains("layer.0.wu.weight")

    def test_faster_prune_leaves_weights_bitwise(self, teacher, dataset):
        s = make_student(teacher, quick_run_cfg())
        cfg = quick_run_cfg(variant="faster", subset_fraction=0.25, epochs_prune=2)
        before = weights(s)
        prune_phase(s, teacher, dataset, cfg, identity_map())
        changed, frozen_ok = [], True
        for name, arr in weights(s).items():
            same = np.array_equal(arr, before[name])
            is_trainable = (".ln1." in name or ".ln2." in name
                            or name.endswith(".bias"))
            if not is_trainable and not same:
                frozen_ok = False
            if is_trainable and not same:
                changed.append(name)
        assert frozen_ok
        assert changed  # norm/bias parameters actually moved

    def test_faster_prune_leaves_frozen_grads_empty(self, teacher, dataset):
        s = make_student(teacher, quick_run_cfg())
        prune_phase(s, teacher, dataset,
                    quick_run_cfg(variant="faster", subset_fraction=0.25),
                    identity_map())
        frozen = [p for n, p in s.named_params() if not trains_norm_bias_gates(n)]
        assert frozen
        assert all(p.grad is None and not p.requires_grad for p in frozen)

    def test_vtrans_requires_full_data(self):
        with pytest.raises(ContractError):
            quick_run_cfg(variant="vtrans", subset_fraction=0.5)


class TestPruneLoop:
    def test_metrics_stream_shape(self, teacher, dataset):
        s = make_student(teacher, quick_run_cfg(seed=4))
        cfg = quick_run_cfg(epochs_prune=1)
        _, metrics = prune_phase(s, teacher, dataset, cfg, identity_map())
        assert len(metrics) == int(np.ceil(192 / 32))
        steps = [m["step"] for m in metrics]
        assert steps == sorted(steps)
        for m in metrics:
            for k, v in m.items():
                if k != "phase":
                    assert np.isfinite(v), k
            assert 0.0 <= m["s_e"] <= 1.0

    def test_deterministic_runs(self, teacher, dataset):
        runs = []
        for _ in range(2):
            s = make_student(teacher, quick_run_cfg(seed=6))
            _, metrics = prune_phase(s, teacher, dataset, quick_run_cfg(seed=6),
                                     identity_map())
            runs.append((metrics, weights(s),
                         [g.mu.data.copy() for g in s.gates.all()]))
        (m1, w1, g1), (m2, w2, g2) = runs
        assert m1 == m2
        for k in w1:
            np.testing.assert_array_equal(w1[k], w2[k])
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(a, b)

    def test_epoch_record_is_last_step_plus_accuracy_at_tau(self, teacher, dataset,
                                                             monkeypatch):
        taus = []
        real = pipeline.evaluate

        def spy(model, tokens, labels, **kw):
            taus.append(kw.get("tau"))
            return real(model, tokens, labels, **kw)

        monkeypatch.setattr(pipeline, "evaluate", spy)
        s = make_student(teacher, quick_run_cfg(seed=4))
        cfg = quick_run_cfg(epochs_prune=2, tau=0.7)
        records = []
        _, metrics = prune_phase(s, teacher, dataset, cfg, identity_map(),
                                  metrics_cb=records.append)
        assert taus == [0.7, 0.7]
        ends = [i for i, r in enumerate(records) if "val_accuracy" in r]
        assert len(ends) == 2 and len(records) == len(metrics) + 2
        for i in ends:
            rec = dict(records[i])
            del rec["val_accuracy"]
            assert rec == records[i - 1]

    def test_low_pressure_run_keeps_gates(self, teacher, dataset):
        # tiny target, zero beta: hard masks should barely move
        s = make_student(teacher, quick_run_cfg(seed=7, beta_global=0.0))
        cfg = quick_run_cfg(seed=7, epochs_prune=2, beta_global=0.0, target=0.01)
        prune_phase(s, teacher, dataset, cfg, identity_map())
        total = kept = 0
        for g in s.gates.all():
            total += g.unit_count
            kept += int(hard_mask(g, 0.0).sum())
        assert (total - kept) / total < 0.05


class TestFinetune:
    def test_requires_binarized(self, teacher, dataset):
        s = make_student(teacher, quick_run_cfg())
        with pytest.raises(ContractError):
            finetune_phase(s, teacher, dataset, quick_run_cfg(), identity_map())

    def test_masked_weights_bit_identical(self, teacher, dataset):
        s = make_student(teacher, quick_run_cfg(seed=8))
        # prune something real so survival masks have holes
        s.gates.width.mu.data[[2, 5]] = 0.0
        s.gates.inter[0].mu.data[:10] = 0.0
        s.gates.heads[1].mu.data[0] = 0.0
        binarize(s, 0.0)
        from vibprune.extract import survival_masks

        surv = survival_masks(s, 0.0)
        before = weights(s)
        finetune_phase(s, teacher, dataset, quick_run_cfg(seed=8, epochs_finetune=2),
                       identity_map())
        after = weights(s)
        moved = 0
        for name, m in surv.items():
            dead = ~m
            if dead.any():
                np.testing.assert_array_equal(after[name][dead], before[name][dead])
            moved += int((after[name][m] != before[name][m]).sum())
        assert moved > 0

    def test_finetune_continues_the_map_prune_trained(self, teacher, dataset):
        s = make_student(teacher, quick_run_cfg(seed=10))
        distill = identity_map()
        prune_phase(s, teacher, dataset, quick_run_cfg(seed=10), distill)
        pruned = distill.w_layer.data.copy()
        assert not np.array_equal(pruned, np.eye(CFG.width, dtype=np.float32))
        s.gates.width.mu.data[[2, 5]] = 0.0
        binarize(s, 0.0)
        finetune_phase(s, teacher, dataset, quick_run_cfg(seed=10), distill)
        kept = s.decision.width
        dropped = np.setdiff1d(np.arange(CFG.width), kept)
        np.testing.assert_array_equal(distill.w_layer.data[dropped], pruned[dropped])
        assert not np.array_equal(distill.w_layer.data[kept], pruned[kept])

    def test_zero_epochs_is_identity(self, teacher, dataset):
        s = make_student(teacher, quick_run_cfg(seed=9))
        binarize(s, 0.0)
        before = weights(s)
        finetune_phase(s, teacher, dataset, quick_run_cfg(seed=9, epochs_finetune=0),
                       identity_map())
        for name, arr in weights(s).items():
            np.testing.assert_array_equal(arr, before[name])


class TestTeacherTraining:
    def test_learns_the_task(self, teacher, dataset):
        vt, vl = dataset.split("val")
        assert evaluate(teacher, vt, vl) > 0.8

    def test_deterministic(self, dataset):
        cfg = quick_run_cfg(epochs_teacher=1, seed=11)
        a = train_teacher(CFG, dataset, cfg)
        b = train_teacher(CFG, dataset, cfg)
        for name, p in a.params.items():
            np.testing.assert_array_equal(p.data, b.params[name].data)


class TestOptimizer:
    def test_no_decay_on_gates_and_biases(self):
        from vibprune.tensor import parameter

        p_w = parameter(np.ones((2, 2), dtype=np.float32))
        p_b = parameter(np.ones(2, dtype=np.float32))
        p_g = parameter(np.ones(2, dtype=np.float32))
        opt = AdamW([("layer.0.wq.weight", p_w), ("layer.0.wq.bias", p_b),
                     ("gate.heads.0.mu", p_g)], 0.1, 0.1)
        wds = {e["name"]: e["wd"] for e in opt.entries}
        assert wds["layer.0.wq.weight"] > 0
        assert wds["layer.0.wq.bias"] == 0
        assert wds["gate.heads.0.mu"] == 0

    def test_flat_step_equals_per_entry_loop(self):
        from vibprune.tensor import parameter

        rng = np.random.default_rng(3)
        names = ["layer.0.wq.weight", "layer.0.wq.bias", "gate.heads.0.mu",
                 "distill.w_layer"]
        shapes = [(3, 4), (4,), (2,), (5, 5)]
        init = [rng.normal(size=sh).astype(np.float32) for sh in shapes]
        params = [parameter(a) for a in init]
        opt = AdamW(list(zip(names, params)), 0.01, 0.1)
        lrs = [e["lr"] for e in opt.entries]
        wds = [e["wd"] for e in opt.entries]
        assert wds[0] > 0 and wds[1] == 0 and lrs[2] == 0.1

        # the per-entry loop the flat update replaced
        ref, m, v = [a.copy() for a in init], [0.0] * 4, [0.0] * 4
        for t in range(1, 6):
            b1t, b2t = 1.0 - 0.9**t, 1.0 - 0.999**t
            for i, p in enumerate(params):
                skip = (t == 2 and i == 0) or (t == 4 and i == 3)
                p.grad = None if skip else rng.normal(size=shapes[i]).astype(np.float32)
            before = [p.data.copy() for p in params]
            opt.step()
            for i, p in enumerate(params):
                if p.grad is None:
                    np.testing.assert_array_equal(p.data, before[i])
                    continue
                g = p.grad.astype(np.float32)
                m[i] = 0.9 * m[i] + (1 - 0.9) * g
                v[i] = 0.999 * v[i] + (1 - 0.999) * g * g
                upd = (m[i] / b1t) / (np.sqrt(v[i] / b2t) + 1e-8)
                if wds[i]:
                    upd = upd + wds[i] * ref[i]
                ref[i] = (ref[i] - lrs[i] * upd).astype(np.float32)
            for p, want in zip(params, ref):
                assert p.data.dtype == np.float32
                np.testing.assert_array_equal(p.data, want)
            opt.zero_grad()

    def test_step_moves_param_against_gradient(self):
        from vibprune.tensor import parameter

        p = parameter(np.zeros(3, dtype=np.float32))
        p.grad = np.array([1.0, -1.0, 0.0], dtype=np.float32)
        opt = AdamW([("gate.x.mu", p)], 0.1, 0.1)
        opt.step()
        assert p.data[0] < 0 < p.data[1] and p.data[2] == 0.0
