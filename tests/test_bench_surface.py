"""The benchmark's entry points, run on a tiny config.

`bench/` drives vibprune through a fixed set of names (`hard_keep_sums`,
`flops_from_sums`, `extract_dense`, `survival_masks`, `cli.load_dense`, ...).
This test runs the benchmark's own set-up, serving round and CLI chain
checks, so a change that breaks one of those names fails here rather than
only in a benchmark run. It reads `bench/` and changes nothing there.
"""

import importlib
import os
import sys
import types

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
MODULES = ("tensor", "gates", "model", "objective", "pipeline", "extract",
           "data", "checkpoint", "cli", "analysis", "errors")

TINY = {
    "model.vocab_size": 16, "model.max_seq": 8, "model.width": 8,
    "model.layers": 2, "model.heads": 2, "model.ffn_dim": 16,
    "data.kind": "majority_pair", "data.seq": 8, "data.n_train": 64,
    "data.n_val": 16, "data.n_test": 32, "train.batch_size": 16,
    "train.epochs_teacher": 1, "train.epochs_prune": 2, "train.epochs_finetune": 1,
    "train.lr_gates": 0.03, "train.lambda_lr": 0.5, "train.warmup_frac": 0.2,
    "prune.target": 0.5, "prune.metric": "flops", "prune.seq_ref": 8,
    "run.variant": "vtrans",
}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCH)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(BENCH)
    vp = types.SimpleNamespace(**{m: importlib.import_module(f"vibprune.{m}")
                                  for m in MODULES})
    return workloads, vp


def test_setup_serving_and_chain(bench, tmp_path):
    wl, vp = bench
    w = wl.Workload(name="tiny", why="tier-1 surface check", config=TINY, chains=1)
    ledger = wl.Ledger()
    prep = wl.prepare(vp, w, seed=3, out_dir=str(tmp_path / "setup"))
    assert 0.0 < prep.serving.flops_ratio < 1.0
    assert 0.0 < prep.serving.params_ratio < 1.0

    wl.Server(vp, prep.serving, ledger).round()
    chain = wl.run_chain(vp, w, prep, str(tmp_path / "chain"), ledger)
    assert chain is not None, ledger.failures
    assert ledger.attempted > 0 and not ledger.failures, ledger.failures
