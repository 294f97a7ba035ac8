"""Model tests: init determinism, gate identity, manual forward oracle,
gate-zero weight invariance, causal masking, the compact student."""

import numpy as np
import pytest

import vibprune.model as model_mod
from vibprune.errors import ContractError, DataError, FormatError
from vibprune.gates import GateInit, hard_mask, normal32
from vibprune.model import (
    GatedTransformer,
    ModelConfig,
    Structure,
    build_student,
    build_teacher,
    compact,
    default_betas,
    forward,
    structure,
)
from vibprune.objective import cross_entropy, layer_distill
from vibprune.pipeline import binarize
from vibprune.tensor import add, backward, no_grad, parameter

CFG = ModelConfig(vocab_size=13, max_seq=10, width=8, layers=2, heads=2,
                  ffn_dim=12, num_classes=3)


def identity_student(teacher):
    return build_student(teacher, GateInit(mu_mean=1.0, mu_std=0.0, sigma_init=0.1, seed=0),
                         default_betas(teacher.config))


def toks(cfg, batch=3, seed=0, seqlen=None):
    rng = np.random.default_rng(seed)
    return rng.integers(0, cfg.vocab_size, size=(batch, seqlen or cfg.max_seq - 2))


# -- independent oracle: plain-numpy float64 forward for the ungated model --

def _ln(x, eps=1e-5):
    m = x.mean(axis=-1, keepdims=True)
    v = x.var(axis=-1, keepdims=True)
    return (x - m) / np.sqrt(v + eps)


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x**3)))


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def manual_forward(model, tokens, masks=None):
    """float64, one head at a time. `masks` maps gate names to float64 masks
    broadcastable over (batch, seq, units): 'width', 'heads' (per layer, one
    entry per head), 'inter', 'out', 'lmha' and 'lffn' (per layer), and then
    (logits, per-layer attention probs) come back; without it the model is
    ungated and the logits come back."""
    cfg = model.config
    p = {k: v.data.astype(np.float64) for k, v in model.params.items()}
    b, s = tokens.shape
    dh = cfg.head_dim
    one = np.ones(1)
    m = masks or {"width": one, "heads": [np.ones(cfg.heads)] * cfg.layers,
                  **{k: [one] * cfg.layers for k in ("inter", "out", "lmha", "lffn")}}
    zm = m["width"]
    x = (p["emb.tok"][tokens] + p["emb.pos"][np.arange(s)]) * zm
    probs_per_layer = []
    for i in range(cfg.layers):
        pre = f"layer.{i}."
        xn = (_ln(x) * p[pre + "ln1.weight"] + p[pre + "ln1.bias"]) * zm
        q = xn @ p[pre + "wq.weight"] + p[pre + "wq.bias"]
        k = xn @ p[pre + "wk.weight"] + p[pre + "wk.bias"]
        v = xn @ p[pre + "wv.weight"] + p[pre + "wv.bias"]
        heads, probs = [], []
        for h in range(cfg.heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = q[..., sl] @ np.swapaxes(k[..., sl], -1, -2) / np.sqrt(dh)
            if cfg.causal:
                mask = np.triu(np.ones((s, s), dtype=bool), 1)
                scores = np.where(mask, -1e9, scores)
            probs.append(_softmax(scores))
            heads.append((probs[-1] @ v[..., sl]) * m["heads"][i][..., h:h + 1])
        probs_per_layer.append(np.stack(probs, axis=1))
        a = np.concatenate(heads, axis=-1)
        x = x + (a @ p[pre + "wo.weight"] + p[pre + "wo.bias"]) * m["lmha"][i] * zm
        xn2 = (_ln(x) * p[pre + "ln2.weight"] + p[pre + "ln2.bias"]) * zm
        mid = _gelu(xn2 @ p[pre + "wu.weight"] + p[pre + "wu.bias"]) * m["inter"][i]
        ffn = mid @ p[pre + "wd.weight"] + p[pre + "wd.bias"]
        x = x + ffn * m["out"][i] * m["lffn"][i] * zm
    pooled = (_ln(x) * zm)[:, -1 if cfg.causal else 0, :]
    logits = pooled @ p["cls.weight"] + p["cls.bias"]
    return (logits, probs_per_layer) if masks is not None else logits


class TestConstruction:
    def test_same_seed_bit_identical(self):
        a = build_teacher(CFG, seed=5)
        b = build_teacher(CFG, seed=5)
        for name, pa in a.params.items():
            np.testing.assert_array_equal(pa.data, b.params[name].data)

    def test_fresh_teacher_finite_logits(self):
        t = build_teacher(CFG, seed=1)
        trace = forward(t, toks(CFG), "eval")
        assert np.isfinite(trace.logits).all()
        assert trace.logits.shape == (3, CFG.num_classes)

    def test_invalid_config(self):
        with pytest.raises(ContractError):
            ModelConfig(vocab_size=8, max_seq=8, width=9, layers=1, heads=2,
                        ffn_dim=8, num_classes=2)

    def test_student_copies_weights(self):
        t = build_teacher(CFG, seed=2)
        s = identity_student(t)
        s.params["cls.weight"].data[0, 0] += 1.0
        assert t.params["cls.weight"].data[0, 0] != s.params["cls.weight"].data[0, 0]


class TestIdentityGates:
    def test_student_equals_teacher_exactly(self):
        t = build_teacher(CFG, seed=3)
        s = identity_student(t)
        tk = toks(CFG, seed=7)
        lt = forward(t, tk, "eval").logits
        ls = forward(s, tk, "eval").logits
        np.testing.assert_array_equal(lt, ls)

    def test_zero_beta_everywhere(self):
        t = build_teacher(CFG, seed=3)
        s = build_student(t, GateInit(mu_std=0.0), {k: 0.0 for k in default_betas(CFG)})
        assert all(g.beta == 0.0 for g in s.gates.all())


class TestForwardValues:
    def test_matches_manual_arithmetic(self):
        cfg = ModelConfig(vocab_size=5, max_seq=4, width=2, layers=1, heads=1,
                          ffn_dim=3, num_classes=2)
        t = build_teacher(cfg, seed=11)
        tk = np.array([[3]])
        got = forward(t, tk, "eval").logits
        want = manual_forward(t, tk)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_matches_manual_arithmetic_multilayer(self):
        t = build_teacher(CFG, seed=12)
        tk = toks(CFG, batch=2, seed=13)
        np.testing.assert_allclose(forward(t, tk, "eval").logits,
                                   manual_forward(t, tk), atol=1e-4)

    def test_matches_manual_causal(self):
        cfg = ModelConfig(vocab_size=11, max_seq=8, width=8, layers=2, heads=2,
                          ffn_dim=16, num_classes=2, causal=True)
        t = build_teacher(cfg, seed=14)
        tk = toks(cfg, batch=2, seed=15, seqlen=6)
        np.testing.assert_allclose(forward(t, tk, "eval").logits,
                                   manual_forward(t, tk), atol=1e-4)

    def test_attention_rows_sum_to_one(self):
        t = build_teacher(CFG, seed=16)
        trace = forward(t, toks(CFG), "eval")
        for probs in trace.attention_probs:
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-5)

    def test_dead_layers_reduce_to_embedding_path(self):
        t = build_teacher(CFG, seed=17)
        s = identity_student(t)
        for g in s.gates.layer_mha + s.gates.layer_ffn:
            g.mu.data[:] = 0.0  # log alpha -> -inf: hard mask 0
        tk = toks(CFG, seed=18)
        got = forward(s, tk, "eval").logits

        zm = s.gates.width.mu.data.astype(np.float64)  # identity here, hard=1
        p = {k: v.data.astype(np.float64) for k, v in s.params.items()}
        x = (p["emb.tok"][tk] + p["emb.pos"][np.arange(tk.shape[1])]) * zm
        pooled = (_ln(x) * zm)[:, 0, :]
        want = pooled @ p["cls.weight"] + p["cls.bias"]
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_token_id_out_of_range(self):
        t = build_teacher(CFG, seed=19)
        bad = toks(CFG)
        bad[0, 0] = CFG.vocab_size
        with pytest.raises(DataError):
            forward(t, bad, "eval")

    def test_eval_mode_deterministic(self):
        t = build_teacher(CFG, seed=20)
        s = identity_student(t)
        tk = toks(CFG, seed=21)
        np.testing.assert_array_equal(forward(s, tk, "eval").logits,
                                      forward(s, tk, "eval").logits)


def _perturb(arr, rng, rows=None, cols=None):
    if rows is not None:
        arr[rows] += rng.normal(0, 1.0, size=arr[rows].shape).astype(arr.dtype)
    else:
        arr[..., cols] += rng.normal(0, 1.0, size=arr[..., cols].shape).astype(arr.dtype)


class TestGateZeroInvariance:
    """Zeroing a gate entry must make the weights it gates irrelevant."""

    def setup_method(self):
        self.t = build_teacher(CFG, seed=30)
        self.tk = toks(CFG, seed=31)
        self.rng = np.random.default_rng(32)

    def test_dropped_head_weights_irrelevant(self):
        s = identity_student(self.t)
        s.gates.heads[0].mu.data[1] = 0.0
        base = forward(s, self.tk, "eval").logits
        dh = CFG.head_dim
        sl = slice(1 * dh, 2 * dh)
        for w in ("wq", "wk", "wv"):
            _perturb(s.params[f"layer.0.{w}.weight"].data, self.rng, cols=sl)
            _perturb(s.params[f"layer.0.{w}.bias"].data, self.rng, rows=sl)
        _perturb(s.params["layer.0.wo.weight"].data, self.rng, rows=sl)
        np.testing.assert_array_equal(base, forward(s, self.tk, "eval").logits)

    def test_dropped_inter_unit_weights_irrelevant(self):
        s = identity_student(self.t)
        s.gates.inter[1].mu.data[4] = 0.0
        base = forward(s, self.tk, "eval").logits
        _perturb(s.params["layer.1.wu.weight"].data, self.rng, cols=[4])
        _perturb(s.params["layer.1.wu.bias"].data, self.rng, rows=[4])
        _perturb(s.params["layer.1.wd.weight"].data, self.rng, rows=[4])
        np.testing.assert_array_equal(base, forward(s, self.tk, "eval").logits)

    def test_dropped_ffn_output_weights_irrelevant(self):
        s = identity_student(self.t)
        s.gates.out[0].mu.data[2] = 0.0
        base = forward(s, self.tk, "eval").logits
        _perturb(s.params["layer.0.wd.weight"].data, self.rng, cols=[2])
        _perturb(s.params["layer.0.wd.bias"].data, self.rng, rows=[2])
        np.testing.assert_array_equal(base, forward(s, self.tk, "eval").logits)

    def test_dropped_width_dim_weights_irrelevant(self):
        s = identity_student(self.t)
        j = 5
        s.gates.width.mu.data[j] = 0.0
        base = forward(s, self.tk, "eval").logits
        _perturb(s.params["emb.tok"].data, self.rng, cols=[j])
        _perturb(s.params["emb.pos"].data, self.rng, cols=[j])
        _perturb(s.params["cls.weight"].data, self.rng, rows=[j])
        for i in range(CFG.layers):
            for w in ("wq", "wk", "wv", "wu"):
                _perturb(s.params[f"layer.{i}.{w}.weight"].data, self.rng, rows=[j])
            for w in ("wo", "wd"):
                _perturb(s.params[f"layer.{i}.{w}.weight"].data, self.rng, cols=[j])
                _perturb(s.params[f"layer.{i}.{w}.bias"].data, self.rng, rows=[j])
            for ln in ("ln1", "ln2"):
                _perturb(s.params[f"layer.{i}.{ln}.weight"].data, self.rng, rows=[j])
                _perturb(s.params[f"layer.{i}.{ln}.bias"].data, self.rng, rows=[j])
        np.testing.assert_array_equal(base, forward(s, self.tk, "eval").logits)

    def test_dead_sublayer_weights_irrelevant(self):
        s = identity_student(self.t)
        s.gates.layer_mha[1].mu.data[:] = 0.0
        base = forward(s, self.tk, "eval").logits
        for w in ("wq", "wk", "wv", "wo"):
            _perturb(s.params[f"layer.1.{w}.weight"].data, self.rng,
                     rows=np.arange(CFG.width))
        _perturb(s.params["layer.1.ln1.weight"].data, self.rng, rows=np.arange(CFG.width))
        np.testing.assert_array_equal(base, forward(s, self.tk, "eval").logits)


class TestCausal:
    def test_future_tokens_do_not_leak(self):
        cfg = ModelConfig(vocab_size=17, max_seq=12, width=8, layers=2, heads=2,
                          ffn_dim=16, num_classes=2, causal=True)
        t = build_teacher(cfg, seed=40)
        tk = toks(cfg, batch=2, seed=41, seqlen=8)
        h1 = forward(t, tk, "eval").hidden_states[-1].data
        p = 3
        tk2 = tk.copy()
        tk2[:, p + 1:] = (tk2[:, p + 1:] + 1) % cfg.vocab_size
        h2 = forward(t, tk2, "eval").hidden_states[-1].data
        np.testing.assert_allclose(h1[:, : p + 1], h2[:, : p + 1], atol=1e-6)
        assert np.abs(h1[:, p + 1:] - h2[:, p + 1:]).max() > 1e-4


class TestTrainMode:
    def test_train_mode_needs_rng(self):
        s = identity_student(build_teacher(CFG, seed=50))
        with pytest.raises(ContractError):
            forward(s, toks(CFG), "train", rng=None)

    def test_train_forward_runs_and_differs_from_eval(self):
        s = identity_student(build_teacher(CFG, seed=51))
        tk = toks(CFG, seed=52)
        rng = np.random.default_rng(53)
        lt = forward(s, tk, "train", rng=rng).logits
        le = forward(s, tk, "eval").logits
        assert np.isfinite(lt).all()
        assert np.abs(lt - le).max() > 0

    def test_layer_gate_noise_is_per_sample(self):
        # all-ones weights would hide it; check the sampled mask directly
        s = identity_student(build_teacher(CFG, seed=54))
        from vibprune.model import _MaskPack

        mp = _MaskPack(s, "train", np.random.default_rng(0), 0.0, batch=2, seqlen=5)
        lm = mp.lmha[0].data  # (2, 5, width)
        for b in range(2):
            assert np.ptp(lm[b]) == 0.0  # constant across tokens and dims

    def test_one_generator_call_per_forward(self):
        s = identity_student(build_teacher(CFG, seed=55))
        calls = []

        class Counting:
            def __getattr__(self, name):
                calls.append(name)
                return getattr(np.random.default_rng(56), name)

        forward(s, toks(CFG, seed=57), "train", rng=Counting())
        assert calls == ["random"]


class TestBatchedAttention:
    """The train-mode forward (every head at once, a step's gate noise in one
    draw) against a per-head float64 reference that splits the same draw
    per gate."""

    @pytest.mark.parametrize("causal", [False, True], ids=["bidirectional", "causal"])
    def test_train_forward_matches_per_head_float64(self, causal):
        cfg = ModelConfig(vocab_size=13, max_seq=10, width=12, layers=2, heads=3,
                          ffn_dim=10, num_classes=3, causal=causal)
        s = identity_student(build_teacher(cfg, seed=80))
        rng = np.random.default_rng(81)
        for g in s.gates.all():
            g.mu.data = rng.normal(0.7, 0.5, g.unit_count).astype(np.float32)
            g.log_sigma.data = rng.normal(-1.0, 0.3, g.unit_count).astype(np.float32)
        for p in s.params.values():
            p.data = (p.data + rng.normal(0, 0.3, p.shape)).astype(np.float32)
        tk = toks(cfg, batch=4, seed=82, seqlen=7)
        trace = forward(s, tk, "train", np.random.default_rng(83))

        # the same noise as one sampler draw from the same generator, read in
        # consecutive blocks: per-token for width, heads, inter, out (layer by
        # layer within a group), then per-sample for the sub-layer gates
        g, m = s.gates, {}
        b, t = tk.shape
        n = b * t * sum(gi.unit_count for gi in (g.width, *g.heads, *g.inter, *g.out))
        draw = iter(normal32(np.random.default_rng(83), n + 2 * cfg.layers * b))

        def mask(gate, shape):
            eps = np.fromiter(draw, np.float64, count=np.prod(shape)).reshape(shape)
            return gate.mu.data.astype(np.float64) + eps * np.exp(
                gate.log_sigma.data.astype(np.float64))

        def per_token(gate):
            return mask(gate, tk.shape + (gate.unit_count,))

        m["width"] = per_token(g.width)
        for key in ("heads", "inter", "out"):
            m[key] = [per_token(gi) for gi in getattr(g, key)]
        for key, site in (("lmha", g.layer_mha), ("lffn", g.layer_ffn)):
            m[key] = [mask(gl, (tk.shape[0], 1, 1)) for gl in site]
        want, probs = manual_forward(s, tk, m)

        got = trace.logits
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
        for got_p, want_p in zip(trace.attention_probs, probs):
            np.testing.assert_allclose(got_p, want_p, rtol=0, atol=1e-5)


def per_gate_walk(model, tau):
    """The kept structure by one hard mask per gate: the reference the
    one-pass `structure` must reproduce."""
    c, g = model.config, model.gates
    width = hard_mask(g.width, tau) > 0
    none = np.zeros(0, dtype=np.int64)
    heads, inter, out, mha, ffn = [], [], [], [], []
    for i in range(c.layers):
        lm = bool(hard_mask(g.layer_mha[i], tau)[0])
        lf = bool(hard_mask(g.layer_ffn[i], tau)[0])
        heads.append(np.flatnonzero(hard_mask(g.heads[i], tau)) if lm else none)
        inter.append(np.flatnonzero(hard_mask(g.inter[i], tau)) if lf else none)
        out.append(np.flatnonzero((hard_mask(g.out[i], tau) > 0) & width)
                   if lf else none)
        mha.append(lm)
        ffn.append(lf)
    return Structure(np.flatnonzero(width), tuple(heads), tuple(inter), tuple(out),
                     tuple(mha), tuple(ffn))


class TestStructure:
    def _student(self):
        s = identity_student(build_teacher(CFG, seed=60))
        s.gates.width.mu.data[[1, 6]] = 0.0
        s.gates.heads[1].mu.data[0] = 0.0
        s.gates.inter[0].mu.data[:4] = 0.0
        s.gates.out[0].mu.data[[0, 1]] = 0.0     # dim 1 is also off the width
        s.gates.layer_ffn[1].mu.data[:] = 0.0
        return s

    def test_teacher_keeps_everything(self):
        t = build_teacher(CFG, seed=61)
        st = structure(t, 0.0)
        assert st.to_json() == Structure.full(CFG).to_json()
        assert st.array_shapes(CFG) == {n: p.shape for n, p in t.params.items()}

    def test_kept_indices(self):
        st = structure(self._student(), 0.0)
        assert st.width.tolist() == [0, 2, 3, 4, 5, 7]
        assert [h.tolist() for h in st.heads] == [[0, 1], [1]]
        assert st.inter[0].tolist() == list(range(4, CFG.ffn_dim))
        assert st.out[0].tolist() == [2, 3, 4, 5, 7]
        # the dead FFN keeps no units although its unit gates are on
        assert st.ffn == (True, False) and st.inter[1].size == st.out[1].size == 0
        s_m, layers = st.keep_sums()
        assert s_m == 6.0
        assert np.array(layers).T.tolist() == [[1.0, 1.0, 2.0, 8.0, 5.0],
                                               [1.0, 0.0, 1.0, 0.0, 0.0]]

    def test_each_gate_evaluated_at_most_once(self, monkeypatch):
        # the hard-mask rule runs once, over the whole gate vector, and
        # records no graph node
        s = self._student()
        seen = []
        real = model_mod.hard_mask

        def counting(gate, tau):
            seen.append(gate)
            return real(gate, tau)

        monkeypatch.setattr(model_mod, "hard_mask", counting)
        structure(s, 0.0)
        assert len(seen) == 1
        units = sum(g.unit_count for g in s.gates.all())
        assert seen[0].mu.shape == seen[0].log_sigma.shape == (units,)
        assert seen[0].mu.node is None and not seen[0].mu.requires_grad

    def test_reads_the_gates_at_each_call(self):
        s = self._student()
        before = structure(s, 0.0)
        s.gates.width.mu.data = np.zeros(CFG.width, dtype=np.float32)
        after = structure(s, 0.0)
        assert before.width.size == 6 and after.width.size == 0
        assert all(o.size == 0 for o in after.out)

    def test_structure_of_a_keep_vector(self):
        # the keep vector alone decides: no gate value is read
        g = self._student().gates
        parts = {"width": [1, 0, 1, 1, 0, 0, 0, 1],
                 "heads": [0, 1, 1, 1], "inter": [1] * 12 + [0, 1] + [0] * 10,
                 "out": [1, 1, 0, 0, 0, 0, 0, 1] + [1] * 8,
                 "mha": [1, 0], "ffn": [1, 1]}
        keep = np.concatenate([parts[k] for k in parts]).astype(bool)
        st = g.structure_of(keep)
        assert st.width.tolist() == [0, 2, 3, 7]
        assert [h.tolist() for h in st.heads] == [[1], []]
        assert [i.tolist() for i in st.inter] == [list(range(12)), [1]]
        assert [o.tolist() for o in st.out] == [[0, 7], [0, 2, 3, 7]]
        assert st.mha == (True, False) and st.ffn == (True, True)

    @pytest.mark.parametrize("cfg", [CFG, ModelConfig(13, 10, 8, 3, 2, 12, 3)])
    def test_matches_the_per_gate_walk(self, cfg):
        s = identity_student(build_teacher(cfg, seed=62))
        rng = np.random.default_rng(63)
        seen = dict.fromkeys(("mu0", "tie", "dead_live", "out_off_width"), 0)
        for _ in range(150):
            for g in s.gates.all():
                n = g.unit_count
                log_sigma = rng.normal(-1.0, 1.0, n).astype(np.float32)
                mu = rng.normal(0.0, 1.5, n).astype(np.float32)
                kind = rng.integers(0, 4, n)
                mu[kind == 0] = 0.0                                   # log alpha -inf
                tie = kind == 1                                       # log alpha 0
                mu[tie] = np.exp(log_sigma[tie]) * rng.choice([-1, 1], tie.sum())
                g.mu.data, g.log_sigma.data = mu, log_sigma
                seen["mu0"] += int((kind == 0).sum())
                seen["tie"] += int(tie.sum())
            for tau in (-1.0, 0.0, 0.7, 2.0):
                got, want = structure(s, tau), per_gate_walk(s, tau)
                assert got.to_json() == want.to_json()
                for i, alive in enumerate(want.ffn):
                    seen["dead_live"] += (not alive) and bool(
                        hard_mask(s.gates.inter[i], tau).any())
                    seen["out_off_width"] += alive and bool(
                        (hard_mask(s.gates.out[i], tau) > hard_mask(s.gates.width, tau)).any())
        assert all(seen.values()), seen

    def test_json_round_trip(self):
        st = structure(self._student(), 0.0)
        back = Structure.from_json(st.to_json(), CFG, st.array_shapes(CFG))
        assert back.to_json() == st.to_json()

    @pytest.mark.parametrize("edit", [
        lambda j: j.update(heads=j["heads"][:1]),            # one layer short
        lambda j: j["inter"][0].append(CFG.ffn_dim),         # index out of range
        lambda j: j["width"].reverse(),                      # not sorted
        lambda j: j["out"][0].insert(0, 1),                  # out dim off the width
        lambda j: j["inter"][1].append(0),                   # unit of a dead FFN
        lambda j: j["mha"].__setitem__(0, 1),                # flag not a bool
        lambda j: j["width"].__setitem__(0, 0.0),            # index not an int
    ])
    def test_from_json_rejects(self, edit):
        st = structure(self._student(), 0.0)
        j = st.to_json()
        edit(j)
        with pytest.raises(FormatError):
            Structure.from_json(j, CFG, st.array_shapes(CFG))

    def test_from_json_checks_array_shapes(self):
        st = structure(self._student(), 0.0)
        shapes = st.array_shapes(CFG)
        shapes["layer.0.wu.weight"] = (6, 9)
        with pytest.raises(FormatError, match="wu.weight"):
            Structure.from_json(st.to_json(), CFG, shapes)


DEEP = ModelConfig(vocab_size=13, max_seq=10, width=8, layers=3, heads=2,
                   ffn_dim=12, num_classes=3)


def hand_pruned(seed=70, dtype=np.float32):
    """A binarized student with random weights and gate scales whose
    structure has an alive attention sub-layer keeping no head and an FFN
    writing a strict subset of the kept width (layer 0), a dead layer
    (layer 1), and a head and FFN units dropped (layer 2)."""
    s = identity_student(build_teacher(DEEP, seed))
    rng = np.random.default_rng(seed)
    for p in s.params.values():
        p.data = rng.normal(0.0, 0.5, p.shape).astype(dtype)
    for g in s.gates.all():
        g.mu.data = rng.uniform(0.5, 1.5, g.unit_count).astype(np.float32)
    g = s.gates
    g.width.mu.data[[1, 6]] = 0.0
    g.heads[0].mu.data[:] = 0.0
    g.out[0].mu.data[[2, 3]] = 0.0
    g.inter[0].mu.data[:5] = 0.0
    g.layer_mha[1].mu.data[:] = 0.0
    g.layer_ffn[1].mu.data[:] = 0.0
    g.heads[2].mu.data[0] = 0.0
    g.inter[2].mu.data[[0, 7]] = 0.0
    return binarize(s, 0.0)


class TestCompact:
    def test_structure_of_the_hand_pruned_student(self):
        st = compact(hand_pruned()).kept
        assert st.mha == (True, False, True) and st.ffn == (True, False, True)
        assert st.heads[0].size == 0 and st.heads[2].tolist() == [1]
        assert st.out[0].tolist() == [0, 4, 5, 7] and st.width.size == 6
        assert st.out[2].tolist() == st.width.tolist()

    def test_forward_equals_masked_forward_at_kept_dims(self):
        s = hand_pruned()
        sub = compact(s)
        kept = sub.kept.width
        off = np.setdiff1d(np.arange(DEEP.width), kept)
        tk = toks(DEEP, batch=6, seed=71, seqlen=9)
        with no_grad():
            want, got = forward(s, tk, "eval"), forward(sub, tk, "eval")
        np.testing.assert_allclose(got.logits, want.logits, rtol=0, atol=1e-5)
        assert len(got.hidden_states) == DEEP.layers
        for h_got, h_want in zip(got.hidden_states, want.hidden_states):
            assert not h_want.data[..., off].any()
            np.testing.assert_allclose(h_got.data, h_want.data[..., kept],
                                       rtol=0, atol=1e-5)
        # the layer that runs attention with a kept head
        assert len(got.attention_probs) == 1
        np.testing.assert_allclose(got.attention_probs[0][:, 0],
                                   want.attention_probs[2][:, 1], rtol=0, atol=1e-6)

    def test_gradients_equal_masked_gradients_on_kept_entries(self):
        # float64 throughout, so the two summation orders agree to ~1e-15
        s = hand_pruned(seed=72, dtype=np.float64)
        sub = compact(s)
        st = sub.kept
        rng = np.random.default_rng(73)
        tk = toks(DEEP, batch=4, seed=74, seqlen=7)
        labels = rng.integers(0, DEEP.num_classes, 4)
        t_hiddens = [rng.normal(size=(4, 7, DEEP.width)) for _ in range(DEEP.layers)]
        w_full = parameter(rng.normal(size=(DEEP.width, DEEP.width)), dtype=np.float64)
        w_sub = parameter(w_full.data[st.width], dtype=np.float64)

        def loss_grads(model, w):
            tr = forward(model, tk, "train")
            loss = add(cross_entropy(tr.logits_t, labels),
                       layer_distill(tr.hidden_states, t_hiddens, w, [0, 2, 2]))
            backward(loss)
            return ({n: np.zeros(p.shape) if p.grad is None else p.grad
                     for n, p in model.params.items()}, w.grad)

        full, w_g = loss_grads(s, w_full)
        got, w_sub_g = loss_grads(sub, w_sub)
        want = st.gather(DEEP, full)
        assert set(got) == set(want)
        for name in want:
            if name.endswith("wk.bias"):
                # it adds one value to a whole score row, which softmax
                # removes: its gradient is rounding noise in both models
                assert np.abs([*got[name], *want[name]]).max(initial=0.0) < 1e-12
                continue
            scale = np.abs(want[name]).max(initial=0.0)
            assert np.abs(got[name] - want[name]).max(initial=0.0) <= 1e-5 * scale, name
        np.testing.assert_allclose(w_sub_g, w_g[st.width], rtol=1e-5, atol=1e-12)
        assert not np.delete(w_g, st.width, axis=0).any()

    def test_scatter_writes_only_the_kept_sub_grid(self):
        s = hand_pruned(seed=75)
        sub = compact(s)
        full = {n: p.data.copy() for n, p in s.params.items()}
        sub_arrays = {n: p.data + 1.0 for n, p in sub.params.items()}
        sub.kept.scatter(DEEP, full, sub_arrays)
        for name, arr in full.items():
            before = s.params[name].data
            changed = arr != before
            if name in sub_arrays:
                assert changed.sum() == sub_arrays[name].size
            else:
                assert not changed.any()
        np.testing.assert_array_equal(sub.kept.gather(DEEP, full)["emb.tok"],
                                      sub_arrays["emb.tok"])

    def test_requires_binarized(self):
        with pytest.raises(ContractError):
            compact(identity_student(build_teacher(DEEP, 76)))


class TestEvalMasks:
    """The eval forward's masks: mu at the units the stored structure keeps."""

    @staticmethod
    def _bits(a):
        return np.asarray(a, dtype=np.float32).view(np.uint32)

    def _check(self, got, want):
        # bit patterns, so a -0.0 where +0.0 is due fails
        np.testing.assert_array_equal(self._bits(got.data), self._bits(want))

    def test_full_size_masks_are_mu_at_kept_units_and_zero_elsewhere(self):
        s = hand_pruned(seed=77)
        st, g, dh = s.decision, s.gates, DEEP.head_dim
        # dropped units with negative mu: mu * 0 would be -0.0 there, and the
        # stored decision, not the moved gates, says what is kept
        for gate in g.all():
            gate.mu.data[gate.mu.data == 0.0] = -1e-3
        masks = model_mod._MaskPack(s, "eval", None, 0.0, 2, 5)

        def want(gate, kept):
            v = np.zeros(gate.unit_count, dtype=np.float32)
            v[kept] = gate.mu.data[kept]
            return v

        self._check(masks.width, want(g.width, st.width))
        for i in range(DEEP.layers):
            self._check(masks.heads[i], np.repeat(want(g.heads[i], st.heads[i]), dh))
            self._check(masks.inter[i], want(g.inter[i], st.inter[i]))
            self._check(masks.out[i], want(g.out[i], st.out[i]))
            self._check(masks.lmha[i], want(g.layer_mha[i], [0] if st.mha[i] else []))
            self._check(masks.lffn[i], want(g.layer_ffn[i], [0] if st.ffn[i] else []))
        # layer 1 is dead, while its head and unit gates are on: all +0.0
        assert hard_mask(g.heads[1], 0.0).all() and hard_mask(g.inter[1], 0.0).all()
        for m in (masks.heads[1], masks.inter[1], masks.out[1]):
            assert not self._bits(m.data).any()
        # FFN outputs on a dropped width dim are off, although their gate is on
        assert hard_mask(g.out[0], 0.0)[[1, 6]].all()
        assert not self._bits(masks.out[0].data[[1, 6]]).any()

    def test_compact_masks_are_mu_at_kept_units(self):
        sub = compact(hand_pruned(seed=78))
        st, g, dh = sub.kept, sub.gates, DEEP.head_dim
        masks = model_mod._MaskPack(sub, "train", None, 0.0, 2, 5)
        self._check(masks.width, g.width.mu.data[st.width])
        for i in range(DEEP.layers):
            self._check(masks.heads[i], np.repeat(g.heads[i].mu.data[st.heads[i]], dh))
            self._check(masks.inter[i], g.inter[i].mu.data[st.inter[i]])
            self._check(masks.out[i], g.out[i].mu.data[st.out[i]])
            if st.mha[i]:
                self._check(masks.lmha[i], g.layer_mha[i].mu.data)
            if st.ffn[i]:
                self._check(masks.lffn[i], g.layer_ffn[i].mu.data)
