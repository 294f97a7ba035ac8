"""Analysis probes: attention aggregates, pairwise head divergence, patterns."""

import math

import numpy as np
import pytest

from vibprune.analysis import (
    head_js,
    js_divergence,
    pruning_pattern,
    token_attention,
)
from vibprune.errors import DataError
from vibprune.extract import extract_dense, sparsity_report
from vibprune.gates import GateInit
from vibprune.model import ModelConfig, build_teacher
from vibprune.pipeline import RunConfig, binarize, make_student

CFG = ModelConfig(vocab_size=12, max_seq=10, width=8, layers=2, heads=2,
                  ffn_dim=12, num_classes=2)


def tokens(n=24, seqlen=8, seed=0):
    return np.random.default_rng(seed).integers(0, CFG.vocab_size, size=(n, seqlen))


@pytest.fixture(scope="module")
def teacher():
    return build_teacher(CFG, seed=0)


class TestJsFunction:
    def test_self_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert js_divergence(p, p) == 0.0

    def test_disjoint_is_log2(self):
        assert js_divergence(np.array([1.0, 0.0]),
                             np.array([0.0, 1.0])) == pytest.approx(math.log(2.0))

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            v = js_divergence(p, q)
            assert 0.0 <= v <= math.log(2.0) + 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        p, q = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p), rel=1e-12)


class TestTokenAttention:
    def test_full_vocab_gives_one(self, teacher):
        stats = token_attention(teacher, tokens(), range(CFG.vocab_size))
        for v in stats.token_share.values():
            assert v == pytest.approx(1.0, abs=1e-5)

    def test_empty_set_gives_zero(self, teacher):
        stats = token_attention(teacher, tokens(), [])
        for v in stats.token_share.values():
            assert v == 0.0

    def test_uniform_head_fraction(self):
        # zeroed query projections -> constant scores -> uniform attention
        t = build_teacher(CFG, seed=3)
        for i in range(CFG.layers):
            t.params[f"layer.{i}.wq.weight"].data[:] = 0.0
            t.params[f"layer.{i}.wq.bias"].data[:] = 0.0
        tk = np.full((6, 8), 4)
        tk[:, 0] = 7
        tk[:, 3] = 7  # 2 marked positions out of 8
        stats = token_attention(t, tk, [7])
        for v in stats.token_share.values():
            assert v == pytest.approx(2.0 / 8.0, abs=1e-5)

    def test_partition_sums_to_one(self, teacher):
        tk = tokens(seed=4)
        parts = [range(0, 4), range(4, 8), range(8, CFG.vocab_size)]
        stats = [token_attention(teacher, tk, p) for p in parts]
        for key in stats[0].token_share:
            s = sum(st.token_share[key] for st in stats)
            assert s == pytest.approx(1.0, abs=1e-5)

    def test_offset_shares_in_range(self, teacher):
        stats = token_attention(teacher, tokens(seed=5), [])
        for d in stats.offset_share.values():
            for o in (-1, 0, 1):
                assert 0.0 <= d[o] <= 1.0

    def test_empty_dataset_rejected(self, teacher):
        with pytest.raises(DataError):
            token_attention(teacher, np.zeros((0, 8), dtype=int), [1])




class TestHeadJs:
    def test_matrix_properties(self, teacher):
        mat, pairs = head_js(teacher, tokens(seed=6))
        n = len(pairs)
        assert mat.shape == (n, n)
        np.testing.assert_array_equal(mat, mat.T)
        np.testing.assert_array_equal(np.diag(mat), np.zeros(n))
        assert (mat >= 0).all() and (mat <= math.log(2.0) + 1e-9).all()

    def test_dropped_heads_excluded(self, teacher):
        s = make_student(teacher, RunConfig(seed=1, gate_init=GateInit(seed=2)))
        s.gates.heads[0].mu.data[1] = 0.0
        binarize(s, 0.0)
        mat, pairs = head_js(s, tokens(seed=7))
        assert (0, 1) not in pairs
        assert len(pairs) == CFG.layers * CFG.heads - 1

    def test_distinct_heads_diverge(self, teacher):
        mat, _ = head_js(teacher, tokens(seed=8))
        assert mat.max() > 0.0


class TestPruningPattern:
    def test_fresh_student_all_ones(self, teacher):
        s = make_student(teacher, RunConfig(seed=3, gate_init=GateInit(seed=4)))
        binarize(s, 0.0)
        pat = pruning_pattern(s)
        assert pat["width_ratio"] == 1.0
        for lay in pat["layers"]:
            assert lay["heads_ratio"] == 1.0 and lay["inter_ratio"] == 1.0
            assert lay["out_ratio"] == 1.0 and lay["mha_alive"] and lay["ffn_alive"]

    def test_dead_layer_flagged(self, teacher):
        s = make_student(teacher, RunConfig(seed=5, gate_init=GateInit(seed=6)))
        s.gates.layer_mha[1].mu.data[:] = 0.0
        binarize(s, 0.0)
        pat = pruning_pattern(s)
        assert pat["layers"][1]["mha_alive"] is False
        assert pat["layers"][1]["ffn_alive"] is True

    def test_matches_extraction_sidecar(self, teacher):
        s = make_student(teacher, RunConfig(seed=7, gate_init=GateInit(seed=8)))
        s.gates.width.mu.data[[1, 4]] = 0.0
        s.gates.heads[0].mu.data[0] = 0.0
        s.gates.inter[1].mu.data[:5] = 0.0
        s.gates.out[0].mu.data[[0, 2]] = 0.0
        s.gates.layer_ffn[0].mu.data[:] = 0.0      # dead FFN, units still gated on
        s.gates.layer_mha[1].mu.data[:] = 0.0      # dead MHA, heads still gated on
        binarize(s, 0.0)
        pat = pruning_pattern(s)
        dense = extract_dense(s)
        rep = sparsity_report(dense, 10)
        # a dead sub-layer keeps no units
        assert rep["inter_kept_per_layer"][0] == rep["out_kept_per_layer"][0] == 0
        assert rep["heads_kept_per_layer"] == [1, 0]
        assert rep["inter_kept_per_layer"][1] == CFG.ffn_dim - 5
        assert pat["width_ratio"] == rep["d_kept"] / CFG.width
        for i, lay in enumerate(pat["layers"]):
            assert lay["heads_ratio"] == rep["heads_kept_per_layer"][i] / CFG.heads
            assert lay["inter_ratio"] == rep["inter_kept_per_layer"][i] / CFG.ffn_dim
            assert lay["out_ratio"] == rep["out_kept_per_layer"][i] / CFG.width
            assert lay["mha_alive"] == rep["layers_kept"]["mha"][i]
            assert lay["ffn_alive"] == rep["layers_kept"]["ffn"][i]
        assert pruning_pattern(dense) == pat
