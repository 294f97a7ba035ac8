"""Objective tests: distillation losses, layer matching vs brute force,
sparsity accounting vs the extraction oracle, Lagrangian updates."""

import math

import numpy as np
import pytest

from vibprune.errors import ContractError, DegenerateModelError, ShapeError
from vibprune.gates import GateInit
from vibprune.model import ModelConfig, Structure, build_teacher, forward
from vibprune.objective import (
    DistillConfig,
    SparsityController,
    count,
    cross_entropy,
    expected_sparsity,
    flops_from_sums,
    hard_keep_sums,
    kept_count,
    layer_distill,
    layer_map,
    pred_distill,
    sparsity_loss,
    total_loss,
    update_lagrangian,
    vib_loss,
)
from vibprune.pipeline import RunConfig, binarize, make_student
from vibprune.tensor import Tensor, constant, gradcheck, parameter, tsum

CFG = ModelConfig(vocab_size=12, max_seq=10, width=8, layers=2, heads=2,
                  ffn_dim=12, num_classes=2)


def student_with_gates(seed=0, mu_std=0.2):
    teacher = build_teacher(CFG, seed)
    run = RunConfig(seed=seed, gate_init=GateInit(mu_std=mu_std, seed=seed + 1))
    return make_student(teacher, run)


def set_hard(gate, keep):
    """Force saturated keep/drop decisions (exact 0/1 soft keeps)."""
    keep = np.asarray(keep, dtype=bool)
    gate.mu.data[:] = np.where(keep, 1.0, 1.0)
    gate.log_sigma.data[:] = np.where(keep, -30.0, 30.0)


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        logits = constant(np.array([[[20.0, 0.0]], [[0.0, 20.0]]], dtype=np.float32))
        assert cross_entropy(logits, np.array([0, 1])).item() < 1e-6

    def test_uniform_prediction(self):
        logits = constant(np.zeros((4, 1, 3), dtype=np.float32))
        assert cross_entropy(logits, np.zeros(4, dtype=int)).item() == pytest.approx(
            math.log(3.0), rel=1e-5)

    def test_label_shape_check(self):
        logits = constant(np.zeros((4, 1, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            cross_entropy(logits, np.zeros(5, dtype=int))


class TestPredDistill:
    def test_identical_logits_zero(self):
        z = np.random.default_rng(0).normal(size=(5, 1, 4)).astype(np.float32)
        assert pred_distill(constant(z), z).item() == 0.0

    def test_onehot_vs_uniform_log2(self):
        s = constant(np.array([[[40.0, 0.0]]], dtype=np.float32))
        t = np.zeros((1, 1, 2), dtype=np.float32)
        assert pred_distill(s, t).item() == pytest.approx(math.log(2.0), rel=1e-4)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            s = rng.normal(size=(3, 1, 5)).astype(np.float32)
            t = rng.normal(size=(3, 1, 5)).astype(np.float32)
            assert pred_distill(constant(s), t).item() >= -1e-9

    def test_gradients_reach_student_only(self):
        from vibprune.tensor import backward

        s = parameter(np.random.default_rng(3).normal(size=(2, 1, 3)).astype(np.float32))
        backward(pred_distill(s, np.zeros((2, 1, 3), dtype=np.float32)))
        assert s.grad is not None


class TestLayerMatching:
    def _hiddens(self, seed, n, shape=(2, 4, 8)):
        rng = np.random.default_rng(seed)
        return [constant(rng.normal(size=shape).astype(np.float32)) for _ in range(n)]

    def test_self_match_identity(self):
        hs = self._hiddens(0, 3)
        w = constant(np.eye(8, dtype=np.float32))
        assert layer_map(hs, [h.data for h in hs], w, [True] * 3) == [0, 1, 2]

    def test_single_alive_layer_forced(self):
        hs = self._hiddens(1, 3)
        w = constant(np.eye(8, dtype=np.float32))
        m = layer_map(hs, [h.data for h in hs], w, [False, True, False])
        assert m == [1, 1, 1]

    def test_no_alive_layer_is_degenerate(self):
        hs = self._hiddens(2, 2)
        with pytest.raises(DegenerateModelError):
            layer_map(hs, [h.data for h in hs], constant(np.eye(8)), [False, False])

    def test_agrees_with_bruteforce(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            hs = self._hiddens(10 + trial, 4)
            ht = [rng.normal(size=(2, 4, 8)).astype(np.float32) for _ in range(4)]
            w = constant(rng.normal(size=(8, 8)).astype(np.float32))
            alive = [True, False, True, True]
            got = layer_map(hs, ht, w, alive)
            for i, t in enumerate(ht):
                errs = {j: float(np.mean((hs[j].data.astype(np.float64)
                                          @ w.data - t) ** 2))
                        for j in range(4) if alive[j]}
                best = min(errs, key=lambda j: (errs[j], j))
                assert got[i] == best

    def test_matches_direct_mean_squared_error(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            hs = self._hiddens(20 + trial, 4)
            hs[3] = constant(hs[1].data.copy())  # a tie goes to layer 1
            ht = [rng.normal(size=(2, 4, 8)).astype(np.float32) for _ in range(3)]
            w = constant(rng.normal(size=(8, 8)).astype(np.float32))
            alive = [True, True, False, True]
            proj = {j: np.matmul(hs[j].data.astype(np.float64), w.data)
                    for j in range(4) if alive[j]}
            want = []
            for t in ht:
                errs = [np.mean((proj[j] - t) ** 2) for j in proj]
                want.append(list(proj)[int(np.argmin(errs))])
            got = layer_map(hs, ht, w, alive)
            assert got == want and 3 not in got

    def test_layer_distill_zero_on_match(self):
        hs = self._hiddens(4, 2)
        w = constant(np.eye(8, dtype=np.float32))
        val = layer_distill(hs, [h.data for h in hs], w, [0, 1]).item()
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_layer_distill_zero_weight_closed_form(self):
        hs = self._hiddens(5, 2)
        ht = [h.data for h in self._hiddens(6, 2)]
        w = constant(np.zeros((8, 8), dtype=np.float32))
        want = sum(float(np.mean(t.astype(np.float64) ** 2)) for t in ht)
        assert layer_distill(hs, ht, w, [0, 1]).item() == pytest.approx(want, rel=1e-5)

    def test_layer_distill_gradcheck_w_layer(self):
        hs = self._hiddens(7, 2)
        ht = [h.data for h in self._hiddens(8, 2)]
        w = parameter(np.eye(8, dtype=np.float32))
        err = gradcheck(lambda ps: layer_distill(hs, ht, ps[0], [0, 1]), [w], eps=1e-4)
        assert err < 1e-4


class TestVibLoss:
    def test_zero_mu_gives_zero(self):
        s = student_with_gates()
        for g in s.gates.all():
            g.mu.data[:] = 0.0
        assert vib_loss(s).item() == 0.0

    def test_single_gate_closed_form(self):
        s = student_with_gates()
        for g in s.gates.all():
            g.mu.data[:] = 0.0
        g = s.gates.layer_mha[0]
        g.beta = 2.0
        g.mu.data[:] = 0.7
        g.log_sigma.data[:] = np.log(0.7)
        assert vib_loss(s).item() == pytest.approx(2.0 * math.log(2.0), rel=1e-5)

    def test_monotone_in_mu_magnitude(self):
        s = student_with_gates()
        v1 = vib_loss(s).item()
        for g in s.gates.all():
            g.mu.data *= 2.0
        assert vib_loss(s).item() >= v1


class TestCounting:
    def test_all_ones_matches_enumeration(self):
        t = build_teacher(CFG, 0)
        direct = sum(p.data.size for n, p in t.params.items() if n != "cls.bias")
        assert count(CFG, Structure.full(CFG), "parameters") == direct

    def test_spec_example_teacher_count(self):
        cfg = ModelConfig(vocab_size=64, max_seq=32, width=32, layers=2, heads=4,
                          ffn_dim=64, num_classes=2)
        # frozen regression constant, fixed once by direct enumeration
        assert count(cfg, Structure.full(cfg), "parameters") == 20224.0
        t = build_teacher(cfg, 0)
        direct = sum(p.data.size for n, p in t.params.items() if n != "cls.bias")
        assert direct == 20224

    def test_expected_sparsity_extremes(self):
        s = student_with_gates()
        for metric in ("parameters", "flops"):
            for g in s.gates.all():
                set_hard(g, np.ones(g.unit_count))
            assert expected_sparsity(s, metric, 32, 0.0, 1.0).item() == pytest.approx(
                0.0, abs=1e-6)
            for g in s.gates.all():
                set_hard(g, np.zeros(g.unit_count))
            assert expected_sparsity(s, metric, 32, 0.0, 1.0).item() == pytest.approx(
                1.0, abs=1e-6)

    def test_flops_scaling_structure(self):
        # FFN terms linear in seq, attention score terms quadratic
        s_m, per = Structure.full(CFG).keep_sums()
        f1 = flops_from_sums(CFG, 8, s_m, per)
        f2 = flops_from_sums(CFG, 16, s_m, per)
        f4 = flops_from_sums(CFG, 32, s_m, per)
        # second difference of f(T)/T isolates the quadratic part: positive
        assert (f4 / 32 - f2 / 16) > 0 and (f2 / 16 - f1 / 8) > 0
        # and f grows faster than linearly overall
        assert f4 > 4 * f1 / 8 * 32 / 4

    def test_monotone_in_keeps(self):
        s = student_with_gates(seed=5)
        base = expected_sparsity(s, "parameters", 32, 0.0, 1.0).item()
        # raising any |mu| raises its keep probability, so sparsity must drop
        g = s.gates.inter[0]
        g.mu.data[3] = 10.0 * (1 if g.mu.data[3] >= 0 else -1)
        assert expected_sparsity(s, "parameters", 32, 0.0, 1.0).item() <= base + 1e-9

    def test_unknown_metric_rejected(self):
        s_m, layers = Structure.full(CFG).keep_sums()
        with pytest.raises(ContractError, match="unknown metric 'flop'"):
            kept_count(CFG, "flop", 32, s_m, layers)

    def test_gradients_flow_to_all_gates(self):
        from vibprune.tensor import backward

        s = student_with_gates(seed=6)
        backward(expected_sparsity(s, "flops", 32, 0.0, 1.0))
        for g in s.gates.all():
            assert g.mu.grad is not None


class TestSparsityOracleClosure:
    """Soft accounting at saturated gates == dense extraction ratio."""

    @pytest.mark.parametrize("metric", ["parameters", "flops"])
    def test_random_hard_assignments(self, metric):
        rng = np.random.default_rng(42)
        cfg = ModelConfig(vocab_size=16, max_seq=12, width=16, layers=2, heads=4,
                          ffn_dim=24, num_classes=2)
        from vibprune.extract import extract_dense, flop_count, param_count

        teacher = build_teacher(cfg, 0)
        for trial in range(12):
            run = RunConfig(seed=trial, gate_init=GateInit(seed=trial))
            s = make_student(teacher, run)
            for g in s.gates.all():
                keep = rng.random(g.unit_count) < 0.7
                set_hard(g, keep)
            # keep at least one width dim and one sub-layer alive
            set_hard(s.gates.width, np.concatenate(
                [[True], rng.random(cfg.width - 1) < 0.7]))
            set_hard(s.gates.layer_ffn[0], [True])
            s_e = expected_sparsity(s, metric, 12, 0.0, 1.0).item()
            binarize(s, 0.0)
            dense = extract_dense(s)
            if metric == "parameters":
                ratio = 1.0 - param_count(dense) / param_count(teacher)
            else:
                ratio = 1.0 - flop_count(dense, 12) / flop_count(teacher, 12)
            assert abs(s_e - ratio) < 1e-6, f"trial {trial}: {s_e} vs {ratio}"


class TestLagrangian:
    def test_loss_zero_at_target(self):
        c = SparsityController(target=0.5, lambda1=0.3, lambda2=0.9, warmup_steps=0)
        assert sparsity_loss(c, constant(np.float32(0.5))).item() == 0.0

    def test_loss_substitution(self):
        c = SparsityController(target=0.5, lambda1=0.1, lambda2=0.5, warmup_steps=0)
        v = sparsity_loss(c, constant(np.float32(0.6))).item()
        assert v == pytest.approx(0.1 * 0.1 + 0.5 * 0.01, rel=1e-4)

    def test_loss_negative_lambda1(self):
        c = SparsityController(target=0.5, lambda1=-1.0, lambda2=0.0, warmup_steps=0)
        v = sparsity_loss(c, constant(np.float32(0.4))).item()
        assert v == pytest.approx(0.1, rel=1e-4)

    def test_update_at_target_unchanged(self):
        c = SparsityController(target=0.5, lambda1=0.2, lambda2=0.3, lambda_lr=1.0,
                               warmup_steps=0)
        update_lagrangian(c, 0.5)
        assert (c.lambda1, c.lambda2) == (0.2, 0.3)

    def test_update_substitution(self):
        c = SparsityController(target=0.3, lambda1=0.0, lambda2=0.0, lambda_lr=1.0,
                               warmup_steps=0)
        update_lagrangian(c, 0.5)
        assert c.lambda1 == pytest.approx(0.2)
        assert c.lambda2 == pytest.approx(0.04)

    def test_lambda2_never_negative(self):
        c = SparsityController(target=0.5, lambda1=0.0, lambda2=-3.0, lambda_lr=0.1,
                               warmup_steps=0)
        update_lagrangian(c, 0.6)
        assert c.lambda2 >= 0.0

    def test_ramp(self):
        c = SparsityController(target=0.8, warmup_steps=10)
        c.advance(0)
        assert c.t_cur == pytest.approx(0.08)
        c.advance(9)
        assert c.t_cur == pytest.approx(0.8)
        c.advance(500)
        assert c.t_cur == pytest.approx(0.8)


class TestTotalLoss:
    def test_eta_one_drops_layer_term(self):
        one = constant(np.float32(1.0))
        seven = constant(np.float32(7.0))
        v = total_loss(one, one, one, seven, one, eta=1.0).item()
        assert v == pytest.approx(4.0)

    def test_balanced_eta(self):
        one = constant(np.float32(1.0))
        two = constant(np.float32(2.0))
        v = total_loss(one, one, two, two, one, eta=0.5).item()
        assert v == pytest.approx(1 + 1 + 1 + 1 + 1)

    def test_all_zero(self):
        z = constant(np.float32(0.0))
        assert total_loss(z, z, z, z, z, eta=0.5).item() == 0.0

    def test_eta_range(self):
        z = constant(np.float32(0.0))
        with pytest.raises(ContractError):
            total_loss(z, z, z, z, z, eta=1.5)
