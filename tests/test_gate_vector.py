"""The gate side on one unit vector: the information cost, the expected
sparsity and their gradients match a per-gate float64 reference, and the
graph they build does not grow with depth."""

import numpy as np
import pytest

from vibprune import tensor
from vibprune.data import TaskSpec, generate
from vibprune.model import LayerSums, ModelConfig, build_teacher
from vibprune.objective import CountModel, expected_sparsity, kept_count, vib_loss
from vibprune.pipeline import RunConfig, make_student, prune_phase
from vibprune.tensor import add, backward

TAU, TEMP = 0.3, 0.8

# seq_ref 7 with 3 heads: the attention term 4*t*t/heads is not an integer
ODD = ModelConfig(vocab_size=16, max_seq=12, width=24, layers=3, heads=3,
                  ffn_dim=20, num_classes=3)
CAUSAL = ModelConfig(vocab_size=16, max_seq=12, width=24, layers=2, heads=3,
                     ffn_dim=12, num_classes=2, causal=True)


def random_student(cfg, seed):
    s = make_student(build_teacher(cfg, seed), RunConfig(seed=seed))
    rng = np.random.default_rng(seed + 1)
    for g in s.gates.all():
        g.beta = float(rng.uniform(1e-4, 1e-2))
        mu = rng.normal(0.3, 1.5, g.unit_count)
        mu[rng.random(g.unit_count) < 0.25] = 0.0
        g.mu.data = mu.astype(np.float32)
        g.log_sigma.data = rng.normal(0.0, 1.0, g.unit_count).astype(np.float32)
    return s


def reference(cfg, gates, counts, mus, log_sigmas):
    """vib_loss + expected_sparsity in float64, one gate at a time."""
    vib, keep = 0.0, {}
    for g, mu, ls in zip(gates.all(), mus, log_sigmas):
        vib += g.beta * np.log1p(mu * mu * np.exp(-2.0 * ls)).sum()
        la = np.log(mu * mu + 1e-38) - 2.0 * ls
        keep[id(g)] = 1.0 / (1.0 + np.exp(-(la - TAU) / TEMP))

    def k(g):
        return keep[id(g)]

    k_m = k(gates.width)
    per_layer = [(k(gates.layer_mha[i]).sum(), k(gates.layer_ffn[i]).sum(),
                  k(gates.heads[i]).sum(), k(gates.inter[i]).sum(),
                  (k(gates.out[i]) * k_m).sum()) for i in range(cfg.layers)]
    kept = kept_count(cfg, counts.metric, counts.seq_ref, k_m.sum(),
                      LayerSums.of(per_layer))
    return vib + 1.0 - kept / counts.total_base


@pytest.mark.parametrize("cfg, metric, seq_ref", [
    (ODD, "parameters", 7), (ODD, "flops", 7),
    (CAUSAL, "parameters", 12), (CAUSAL, "flops", 12),
], ids=["odd-params", "odd-flops", "causal-params", "causal-flops"])
def test_matches_per_gate_float64_reference(cfg, metric, seq_ref):
    s = random_student(cfg, seed=seq_ref)
    counts = CountModel.build(cfg, metric, seq_ref)
    vib = vib_loss(s)
    s_e = expected_sparsity(s, counts, TAU, TEMP)
    backward(add(vib, s_e))

    gates = s.gates.all()
    mus = [g.mu.data.astype(np.float64) for g in gates]
    lss = [g.log_sigma.data.astype(np.float64) for g in gates]
    want = reference(cfg, s.gates, counts, mus, lss)
    assert vib.item() + s_e.item() == pytest.approx(want, rel=5e-7)

    # central differences of the float64 reference, entry by entry
    h = 1e-6
    for g, mu, ls in zip(gates, mus, lss):
        for arr, grad in ((mu, g.mu.grad), (ls, g.log_sigma.grad)):
            fd = np.empty_like(arr)
            for j in range(arr.size):
                v = arr[j]
                arr[j] = v + h
                up = reference(cfg, s.gates, counts, mus, lss)
                arr[j] = v - h
                down = reference(cfg, s.gates, counts, mus, lss)
                arr[j] = v
                fd[j] = (up - down) / (2.0 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-9)


def graph_nodes(loss) -> int:
    return sum(t.node is not None for t in tensor._topo(loss))


@pytest.mark.parametrize("metric", ["parameters", "flops"])
def test_gate_side_graph_does_not_grow_with_depth(metric):
    sizes = []
    for layers in (2, 6):
        cfg = ModelConfig(vocab_size=16, max_seq=12, width=16, layers=layers,
                          heads=2, ffn_dim=32, num_classes=2)
        s = make_student(build_teacher(cfg, 0), RunConfig())
        counts = CountModel.build(cfg, metric, 12)
        sizes.append(graph_nodes(add(vib_loss(s), expected_sparsity(s, counts,
                                                                       0.0, 1.0))))
    assert sizes[0] == sizes[1]


def prune_step_nodes(monkeypatch, cfg, spec, **settings) -> int:
    """Graph nodes recorded by one prune step (the dataset holds one batch)."""
    run = RunConfig(epochs_prune=1, eval_every_epoch=False, **settings)
    teacher = build_teacher(cfg, 0)
    student = make_student(teacher, run)
    recorded = []
    make = tensor._make

    def counting(op, out, inputs, backward_fn):
        t = make(op, out, inputs, backward_fn)
        recorded.append(t.node is not None)
        return t

    monkeypatch.setattr(tensor, "_make", counting)
    _, metrics = prune_phase(student, teacher, generate(spec), run)
    assert len(metrics) == 1
    return sum(recorded)


def test_prune_step_records_few_nodes(monkeypatch):
    # the narrow-faster benchmark model: 398 nodes (516 before batched heads
    # and fused linear layers, 1237 before the gate vector)
    cfg = ModelConfig(vocab_size=16, max_seq=12, width=16, layers=6, heads=2,
                      ffn_dim=32, num_classes=2)
    spec = TaskSpec("marked_parity", vocab=16, seq=12, n_train=64, n_val=8,
                    n_test=8, seed=0)
    assert prune_step_nodes(monkeypatch, cfg, spec, variant="faster",
                            subset_fraction=0.125, batch_size=8, metric="flops",
                            seq_ref=12) <= 410


def test_readme_prune_step_records_few_nodes(monkeypatch):
    # the readme-vtrans benchmark model: 287 nodes (431 before)
    cfg = ModelConfig(vocab_size=16, max_seq=20, width=64, layers=4, heads=4,
                      ffn_dim=128, num_classes=2)
    spec = TaskSpec("majority_pair", vocab=16, seq=20, n_train=32, n_val=8,
                    n_test=8, seed=0)
    assert prune_step_nodes(monkeypatch, cfg, spec, variant="vtrans", batch_size=32,
                            metric="parameters") <= 295
