"""Pipeline tests: subsetting, binarize semantics, freeze policies,
finetune weight masking, and short-run determinism."""

import numpy as np
import pytest

from vibprune.data import TaskSpec, generate
from vibprune.errors import ContractError
from vibprune.gates import GateInit, hard_mask
from vibprune.model import ModelConfig, build_teacher, forward
from vibprune.pipeline import (
    AdamW,
    FreezePolicy,
    RunConfig,
    binarize,
    evaluate,
    finetune_phase,
    make_student,
    prune_phase,
    subset,
    train_teacher,
)
from vibprune.tensor import no_grad

CFG = ModelConfig(vocab_size=16, max_seq=14, width=16, layers=2, heads=2,
                  ffn_dim=24, num_classes=2)
SPEC = TaskSpec("majority_pair", vocab=16, seq=12, n_train=192, n_val=64,
                n_test=64, seed=5)


def quick_run_cfg(**kw):
    base = dict(variant="vtrans", epochs_teacher=1, epochs_prune=1,
                epochs_finetune=1, batch_size=32, seed=0, target=0.5,
                eval_every_epoch=False)
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
        g.log_sigma.data[:] = [-0.5 * (1 + np.log(1.2**2) / -1), 0.0]
        # set log alpha = [1, -1] exactly: log_sigma = (log mu^2 - la)/2
        g.log_sigma.data[:] = [(np.log(1.2**2) - 1.0) / 2, (np.log(0.7**2) + 1.0) / 2]
        binarize(s, 0.0)
        np.testing.assert_allclose(g.frozen, [1.2, 0.0], rtol=1e-6)

    def test_idempotent(self, teacher):
        s = make_student(teacher, quick_run_cfg())
        binarize(s, 0.0)
        f0 = [g.frozen.copy() for g in s.gates.all()]
        binarize(s, 0.0)
        for a, g in zip(f0, s.gates.all()):
            np.testing.assert_array_equal(a, g.frozen)

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
        pol = FreezePolicy.for_variant("faster", "prune")
        assert pol.trainable("gate.heads.0.mu")
        assert pol.trainable("layer.0.ln1.weight")
        assert pol.trainable("layer.1.wq.bias")
        assert not pol.trainable("layer.1.wq.weight")
        assert not pol.trainable("emb.tok")

    def test_finetune_excludes_gates(self):
        pol = FreezePolicy.for_variant("vtrans", "finetune")
        assert not pol.trainable("gate.heads.0.mu")
        assert pol.trainable("layer.0.wu.weight")

    def test_faster_prune_leaves_weights_bitwise(self, teacher, dataset):
        s = make_student(teacher, quick_run_cfg())
        cfg = quick_run_cfg(variant="faster", subset_fraction=0.25, epochs_prune=2)
        before = s.clone_weights()
        prune_phase(s, teacher, dataset, cfg)
        changed, frozen_ok = [], True
        for name, arr in s.clone_weights().items():
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
                    quick_run_cfg(variant="faster", subset_fraction=0.25))
        pol = FreezePolicy.for_variant("faster", "prune")
        frozen = [p for n, p in s.named_params() if not pol.trainable(n)]
        assert frozen
        assert all(p.grad is None and not p.requires_grad for p in frozen)

    def test_vtrans_requires_full_data(self):
        with pytest.raises(ContractError):
            quick_run_cfg(variant="vtrans", subset_fraction=0.5)


class TestPruneLoop:
    def test_metrics_stream_shape(self, teacher, dataset):
        s = make_student(teacher, quick_run_cfg(seed=4))
        cfg = quick_run_cfg(epochs_prune=1)
        _, metrics = prune_phase(s, teacher, dataset, cfg)
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
            _, metrics = prune_phase(s, teacher, dataset, quick_run_cfg(seed=6))
            runs.append((metrics, s.clone_weights(),
                         [g.mu.data.copy() for g in s.gates.all()]))
        (m1, w1, g1), (m2, w2, g2) = runs
        assert m1 == m2
        for k in w1:
            np.testing.assert_array_equal(w1[k], w2[k])
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(a, b)

    def test_low_pressure_run_keeps_gates(self, teacher, dataset):
        # tiny target, zero beta: hard masks should barely move
        s = make_student(teacher, quick_run_cfg(seed=7, beta_global=0.0))
        cfg = quick_run_cfg(seed=7, epochs_prune=2, beta_global=0.0, target=0.01)
        prune_phase(s, teacher, dataset, cfg)
        total = kept = 0
        for g in s.gates.all():
            total += g.unit_count
            kept += int(hard_mask(g, 0.0).sum())
        assert (total - kept) / total < 0.05


class TestFinetune:
    def test_requires_binarized(self, teacher, dataset):
        s = make_student(teacher, quick_run_cfg())
        with pytest.raises(ContractError):
            finetune_phase(s, teacher, dataset, quick_run_cfg())

    def test_masked_weights_bit_identical(self, teacher, dataset):
        s = make_student(teacher, quick_run_cfg(seed=8))
        # prune something real so survival masks have holes
        s.gates.width.mu.data[[2, 5]] = 0.0
        s.gates.inter[0].mu.data[:10] = 0.0
        s.gates.heads[1].mu.data[0] = 0.0
        binarize(s, 0.0)
        from vibprune.extract import survival_masks

        surv = survival_masks(s, 0.0)
        before = s.clone_weights()
        finetune_phase(s, teacher, dataset, quick_run_cfg(seed=8, epochs_finetune=2))
        after = s.clone_weights()
        moved = 0
        for name, m in surv.items():
            dead = ~m
            if dead.any():
                np.testing.assert_array_equal(after[name][dead], before[name][dead])
            moved += int((after[name][m] != before[name][m]).sum())
        assert moved > 0

    def test_zero_epochs_is_identity(self, teacher, dataset):
        s = make_student(teacher, quick_run_cfg(seed=9))
        binarize(s, 0.0)
        before = s.clone_weights()
        finetune_phase(s, teacher, dataset, quick_run_cfg(seed=9, epochs_finetune=0))
        for name, arr in s.clone_weights().items():
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

    def test_step_moves_param_against_gradient(self):
        from vibprune.tensor import parameter

        p = parameter(np.zeros(3, dtype=np.float32))
        p.grad = np.array([1.0, -1.0, 0.0], dtype=np.float32)
        opt = AdamW([("gate.x.mu", p)], 0.1, 0.1)
        opt.step()
        assert p.data[0] < 0 < p.data[1] and p.data[2] == 0.0
