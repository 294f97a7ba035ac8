"""Extraction tests: dense model equivalence against the masked forward,
exact accounting, structural deletions, idempotence."""

from dataclasses import replace

import numpy as np
import pytest

from vibprune.errors import ContractError, DegenerateModelError
from vibprune.extract import (
    DenseModel,
    extract_dense,
    flop_count,
    param_count,
    sparsity_report,
    survival_masks,
)
from vibprune.gates import GateInit
from vibprune.model import ModelConfig, build_teacher, forward
from vibprune.pipeline import RunConfig, binarize, make_student
from vibprune.tensor import no_grad

CFG = ModelConfig(vocab_size=16, max_seq=12, width=16, layers=2, heads=2,
                  ffn_dim=24, num_classes=2)


def make_binarized(seed=0, mutate=None, mu_std=0.05, cfg=CFG):
    teacher = build_teacher(cfg, seed)
    run = RunConfig(seed=seed, gate_init=GateInit(mu_std=mu_std, seed=seed + 100))
    s = make_student(teacher, run)
    if mutate:
        mutate(s)
    binarize(s, 0.0)
    return teacher, s


def drop(gate, idx):
    gate.mu.data[np.asarray(idx)] = 0.0


def rand_tokens(n=100, seed=0, seqlen=10):
    rng = np.random.default_rng(seed)
    return rng.integers(0, CFG.vocab_size, size=(n, seqlen))


def masked_logits(student, tokens):
    with no_grad():
        return forward(student, tokens, "eval").logits


class TestEquivalence:
    def test_identity_extraction_matches_teacher(self):
        teacher, s = make_binarized(seed=1, mu_std=0.0)
        dense = extract_dense(s)
        tk = rand_tokens(50, seed=2)
        np.testing.assert_allclose(dense.forward(tk),
                                   masked_logits(teacher, tk), atol=1e-6)
        assert dense.d_kept == CFG.width

    def test_one_head_dropped(self):
        _, s = make_binarized(seed=3, mutate=lambda s: drop(s.gates.heads[0], [1]))
        dense = extract_dense(s)
        assert dense.structure.heads[0].tolist() == [0]
        tk = rand_tokens(100, seed=4)
        np.testing.assert_allclose(dense.forward(tk), masked_logits(s, tk), atol=1e-5)

    def test_dead_layer_removed(self):
        def kill_layer1(s):
            drop(s.gates.layer_mha[1], [0])
            drop(s.gates.layer_ffn[1], [0])

        _, s = make_binarized(seed=5, mutate=kill_layer1)
        dense = extract_dense(s)
        assert not dense.structure.mha[1] and not dense.structure.ffn[1]
        assert not [n for n in dense.arrays if n.startswith("layer.1.")]
        tk = rand_tokens(60, seed=6)
        np.testing.assert_allclose(dense.forward(tk), masked_logits(s, tk), atol=1e-5)

    def test_width_pruning_with_norm_compensation(self):
        _, s = make_binarized(seed=7, mutate=lambda s: drop(s.gates.width, [0, 3, 9]))
        dense = extract_dense(s)
        assert dense.d_kept == CFG.width - 3
        tk = rand_tokens(100, seed=8)
        np.testing.assert_allclose(dense.forward(tk), masked_logits(s, tk), atol=1e-5)

    def test_random_assignments_20x100(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            def mutate(s, rng=rng):
                for g in s.gates.all():
                    keep = rng.random(g.unit_count) < 0.75
                    g.mu.data[~keep] = 0.0
                s.gates.width.mu.data[0] = 1.0          # keep >= 1 width dim
                s.gates.layer_ffn[0].mu.data[0] = 1.0   # keep >= 1 sub-layer

            _, s = make_binarized(seed=100 + trial, mutate=mutate)
            dense = extract_dense(s)
            tk = rand_tokens(100, seed=200 + trial)
            diff = np.abs(dense.forward(tk) - masked_logits(s, tk)).max()
            assert diff < 1e-5, f"trial {trial}: {diff}"
            # the dense arrays, their shapes and the survival masks agree
            assert ({n: a.shape for n, a in dense.arrays.items()}
                    == dense.structure.array_shapes(CFG)), f"trial {trial}"
            # the count polynomial against an enumeration of the kept arrays
            assert param_count(dense) == sum(a.size for n, a in dense.arrays.items()
                                             if n != "cls.bias"), f"trial {trial}"
            for n, m in survival_masks(s).items():
                kept = dense.arrays[n].size if n in dense.arrays else 0
                assert m.sum() == kept, f"trial {trial}: {n}"

    def test_nontrivial_mu_scales_folded(self):
        def mutate(s):
            s.gates.width.mu.data[:] = np.linspace(0.7, 1.3, CFG.width)
            s.gates.heads[0].mu.data[:] = [1.2, 0.8]
            s.gates.inter[1].mu.data[:] *= 1.1
            s.gates.layer_mha[0].mu.data[:] = 0.9

        _, s = make_binarized(seed=10, mutate=mutate)
        dense = extract_dense(s)
        tk = rand_tokens(80, seed=11)
        np.testing.assert_allclose(dense.forward(tk), masked_logits(s, tk), atol=1e-5)

    def test_causal_model(self):
        _, s = make_binarized(seed=21, cfg=replace(CFG, causal=True), mutate=lambda s: (
            drop(s.gates.width, [2, 5]), drop(s.gates.heads[1], [0])))
        dense = extract_dense(s)
        tk = rand_tokens(80, seed=22)
        np.testing.assert_allclose(dense.forward(tk), masked_logits(s, tk), atol=1e-5)

    def test_alive_mha_with_every_head_dropped(self):
        _, s = make_binarized(seed=23, mutate=lambda s: drop(s.gates.heads[0], [0, 1]))
        dense = extract_dense(s)
        assert dense.structure.mha[0] and dense.structure.heads[0].size == 0
        tk = rand_tokens(60, seed=24)
        np.testing.assert_allclose(dense.forward(tk), masked_logits(s, tk), atol=1e-5)

    def test_alive_ffn_writing_no_kept_dim(self):
        _, s = make_binarized(seed=27, mutate=lambda s: drop(s.gates.out[1],
                                                             range(CFG.width)))
        dense = extract_dense(s)
        assert dense.structure.ffn[1] and dense.structure.out[1].size == 0
        tk = rand_tokens(60, seed=28)
        np.testing.assert_allclose(dense.forward(tk), masked_logits(s, tk), atol=1e-5)


class TestDenseForward:
    def test_float32_repeatable_and_leaves_arrays_unchanged(self):
        _, s = make_binarized(seed=25, mutate=lambda s: (
            drop(s.gates.width, [1, 7]), drop(s.gates.out[0], [3, 4])))
        dense = extract_dense(s)
        before = {k: v.copy() for k, v in dense.arrays.items()}
        tk = rand_tokens(40, seed=26)
        first, second = dense.forward(tk), dense.forward(tk)
        assert first.dtype == np.float32
        np.testing.assert_array_equal(first, second)
        assert dense.arrays.keys() == before.keys()
        for k, v in before.items():
            np.testing.assert_array_equal(dense.arrays[k], v, err_msg=k)


class TestContracts:
    def test_requires_binarized(self):
        teacher = build_teacher(CFG, 0)
        s = make_student(teacher, RunConfig(seed=0))
        with pytest.raises(ContractError):
            extract_dense(s)

    def test_zero_width_degenerate(self):
        def mutate(s):
            s.gates.width.mu.data[:] = 0.0

        _, s = make_binarized(seed=12, mutate=mutate)
        with pytest.raises(DegenerateModelError):
            extract_dense(s)

    def test_all_sublayers_dead_degenerate_at_binarize(self):
        teacher = build_teacher(CFG, 0)
        s = make_student(teacher, RunConfig(seed=0))
        for g in s.gates.layer_mha + s.gates.layer_ffn:
            g.mu.data[:] = 0.0
        with pytest.raises(DegenerateModelError):
            binarize(s, 0.0)


class TestAccounting:
    def test_param_count_teacher_matches_enumeration(self):
        teacher = build_teacher(CFG, 0)
        direct = sum(p.data.size for n, p in teacher.params.items() if n != "cls.bias")
        assert param_count(teacher) == direct

    def test_dense_param_count_shrinks(self):
        teacher, s = make_binarized(seed=15, mutate=lambda s: (
            drop(s.gates.width, [1, 2]), drop(s.gates.inter[0], range(10))))
        dense = extract_dense(s)
        assert param_count(dense) < param_count(teacher)

    def test_flop_count_structure(self):
        teacher = build_teacher(CFG, 0)
        f8, f16, f32 = (flop_count(teacher, s) for s in (8, 16, 32))
        assert f16 > 2 * f8 * 0.99 and f32 > 2 * f16  # superlinear growth
        _, s = make_binarized(seed=16, mutate=lambda s: drop(s.gates.heads[0], [0]))
        assert flop_count(extract_dense(s), 16) < f16

    def test_report_fields(self):
        teacher, s = make_binarized(seed=17, mutate=lambda s: (
            drop(s.gates.width, [4]), drop(s.gates.heads[1], [1])))
        dense = extract_dense(s)
        rep = sparsity_report(dense, 12)
        assert rep["d_kept"] == CFG.width - 1
        assert rep["heads_kept_per_layer"] == [2, 1]
        assert 0.0 < rep["sparsity_params"] < 1.0
        assert 0.0 < rep["sparsity_flops"] < 1.0
        assert rep["layers_kept"]["mha"] == [True, True]

    def test_empty_model_base_is_zero(self):
        # with everything masked, the countable base hits zero exactly
        from vibprune.model import LayerSums
        from vibprune.objective import kept_count

        layers = LayerSums(*np.zeros((5, CFG.layers)))
        assert kept_count(CFG, "parameters", 0, 0.0, layers) == 0.0


class TestSurvivalMasks:
    def test_shapes_match_params(self):
        _, s = make_binarized(seed=18)
        masks = survival_masks(s)
        for name, p in s.params.items():
            assert masks[name].shape == p.data.shape, name

    def test_surviving_counts_match_polynomial(self):
        from vibprune.objective import hard_keep_sums, kept_count

        _, s = make_binarized(seed=19, mutate=lambda s: (
            drop(s.gates.width, [0, 1]), drop(s.gates.out[0], [5, 6, 7]),
            drop(s.gates.layer_mha[1], [0])))
        masks = survival_masks(s)
        total = sum(int(m.sum()) for n, m in masks.items() if n != "cls.bias")
        s_m, layers = hard_keep_sums(s, 0.0)
        assert total == int(kept_count(s.config, "parameters", 0, s_m, layers))

    def test_classifier_bias_always_survives(self):
        _, s = make_binarized(seed=20)
        assert survival_masks(s)["cls.bias"].all()
