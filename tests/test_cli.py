"""CLI and format tests: checkpoint round trips, config validation, and the
full command chain end to end on a tiny model."""

import json
import os

import numpy as np
import pytest

from vibprune.checkpoint import load_tensors, save_tensors
from vibprune.cli import main, parse_config_file
from vibprune.errors import ConfigError, FormatError

TINY_CONFIG = """
# tiny end-to-end configuration
model.vocab_size = 16
model.max_seq = 12
model.width = 16
model.layers = 2
model.heads = 2
model.ffn_dim = 24
model.num_classes = 2
data.kind = majority_pair
data.seq = 12
data.n_train = 128
data.n_val = 64
data.n_test = 64
run.seed = 1
train.epochs_teacher = 2
train.epochs_prune = 2
train.epochs_finetune = 1
train.batch_size = 32
prune.target = 0.3
prune.seq_ref = 12
gradcheck.batch = 2
gradcheck.seq = 5
"""


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(TINY_CONFIG)
    return str(p)


class TestCheckpointFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a.weight": rng.normal(size=(3, 4)).astype(np.float32),
            "b.bias": rng.normal(size=(7,)).astype(np.float32),
            "scalar": np.float32(3.25).reshape(()),
        }
        path = str(tmp_path / "x.ckpt")
        save_tensors(tensors, path)
        back = load_tensors(path)
        assert set(back) == set(tensors)
        for k in tensors:
            np.testing.assert_array_equal(back[k],
                                          np.asarray(tensors[k], dtype=np.float32))

    def test_magic_mismatch(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_tensors(str(p))

    def test_magic_bytes(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_tensors({"t": np.zeros(1, np.float32)}, path)
        with open(path, "rb") as f:
            assert f.read(4) == b"VIBP"


class TestConfigParsing:
    def test_parses_known_keys(self, cfg_path):
        raw = parse_config_file(cfg_path)
        assert raw["model.width"] == "16"
        assert raw["data.kind"] == "majority_pair"

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("model.depth = 3\n")
        with pytest.raises(ConfigError, match="model.depth"):
            parse_config_file(str(p))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config_file("/nonexistent/x.cfg")

    def test_bad_value_type(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("model.width = wide\n")
        rc = main(["gradcheck", "--config", str(p)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error")


class TestCommandChain:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("run")
        (d / "run.cfg").write_text(TINY_CONFIG)
        return d

    def _run(self, argv, capsys):
        rc = main(argv)
        out = capsys.readouterr()
        assert rc == 0, out.err
        return json.loads(out.out.strip().splitlines()[-1])

    def test_full_chain(self, workdir, capsys):
        cfg = str(workdir / "run.cfg")
        t_dir = str(workdir / "teacher")
        p_dir = str(workdir / "prune")
        f_dir = str(workdir / "finetune")
        e_dir = str(workdir / "extract")

        r = self._run(["train-teacher", "--config", cfg, "--out", t_dir], capsys)
        assert r["val_accuracy"] > 0.5
        assert os.path.exists(os.path.join(t_dir, "teacher.ckpt"))
        assert os.path.exists(os.path.join(t_dir, "dataset.bin"))

        r = self._run(["prune", "--config", cfg, "--out", p_dir,
                       "--teacher", os.path.join(t_dir, "teacher.ckpt"),
                       "--dataset", os.path.join(t_dir, "dataset.bin")], capsys)
        assert 0.0 <= r["s_e"] <= 1.0
        metrics = [json.loads(l) for l in
                   open(os.path.join(p_dir, "prune.metrics.jsonl"))]
        assert all(np.isfinite(m["loss_total"]) for m in metrics)

        r = self._run(["finetune", "--config", cfg, "--out", f_dir,
                       "--teacher", os.path.join(t_dir, "teacher.ckpt"),
                       "--student", os.path.join(p_dir, "pruned.ckpt"),
                       "--dataset", os.path.join(t_dir, "dataset.bin")], capsys)
        assert 0.0 <= r["val_accuracy"] <= 1.0

        r = self._run(["extract", "--config", cfg, "--out", e_dir,
                       "--student", os.path.join(f_dir, "finetuned.ckpt")], capsys)
        assert r["params"] > 0
        report = json.load(open(os.path.join(e_dir, "dense.json")))
        assert report["params"] == r["params"]

        r = self._run(["eval", "--config", cfg,
                       "--dense", os.path.join(e_dir, "dense.ckpt"),
                       "--dataset", os.path.join(t_dir, "dataset.bin")], capsys)
        assert 0.0 <= r["accuracy"] <= 1.0
        assert r["params"] == report["params"]

        a_dir = str(workdir / "analysis")
        r = self._run(["analyze", "--config", cfg, "--out", a_dir,
                       "--student", os.path.join(f_dir, "finetuned.ckpt"),
                       "--dataset", os.path.join(t_dir, "dataset.bin")], capsys)
        for fname in r["written"]:
            assert os.path.exists(os.path.join(a_dir, fname))
        js = json.load(open(os.path.join(a_dir, "head_divergence.json")))
        mat = np.array(js["matrix"])
        np.testing.assert_array_equal(mat, mat.T)

    def test_rerun_replaces_metrics(self, workdir, capsys):
        """A rerun replaces its own stage's log and keeps the other stages'
        logs in the same --out."""
        cfg = str(workdir / "run.cfg")
        out = str(workdir / "shared_out")
        self._run(["train-teacher", "--config", cfg, "--out", out], capsys)
        with open(os.path.join(out, "teacher.metrics.jsonl")) as f:
            teacher_log = f.read()
        runs = []
        for _ in range(2):
            self._run(["prune", "--config", cfg, "--out", out,
                       "--teacher", os.path.join(out, "teacher.ckpt"),
                       "--dataset", os.path.join(out, "dataset.bin")], capsys)
            with open(os.path.join(out, "prune.metrics.jsonl")) as f:
                runs.append([json.loads(l) for l in f])
        assert runs[1] == runs[0]
        steps = [m["step"] for m in runs[1] if "val_accuracy" not in m]
        assert steps == list(range(len(steps)))
        with open(os.path.join(out, "teacher.metrics.jsonl")) as f:
            assert f.read() == teacher_log
        assert teacher_log and not os.path.exists(os.path.join(out, "metrics.jsonl"))

    def test_eval_teacher_smoke(self, workdir, capsys):
        cfg = str(workdir / "run.cfg")
        t_dir = str(workdir / "teacher")
        r = self._run(["eval", "--config", cfg,
                       "--teacher", os.path.join(t_dir, "teacher.ckpt"),
                       "--dataset", os.path.join(t_dir, "dataset.bin")], capsys)
        assert r["accuracy"] > 0.5 and r["params"] > 0 and r["flops"] > 0

    def test_prune_without_teacher_fails(self, workdir, capsys):
        cfg = str(workdir / "run.cfg")
        rc = main(["prune", "--config", cfg, "--out", str(workdir / "x")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_gradcheck_command(self, workdir, capsys):
        cfg_small = workdir / "small.cfg"
        cfg_small.write_text(TINY_CONFIG.replace("model.width = 16", "model.width = 8")
                             .replace("model.ffn_dim = 24", "model.ffn_dim = 8"))
        rc = main(["gradcheck", "--config", str(cfg_small)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert out.count("PASS") == 5


class TestReproducibility:
    def test_same_seed_same_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(TINY_CONFIG)
        accs, params = [], []
        for name in ("a", "b"):
            t_dir = str(tmp_path / f"t_{name}")
            p_dir = str(tmp_path / f"p_{name}")
            e_dir = str(tmp_path / f"e_{name}")
            main(["train-teacher", "--config", str(cfg), "--out", t_dir])
            main(["prune", "--config", str(cfg), "--out", p_dir,
                  "--teacher", os.path.join(t_dir, "teacher.ckpt")])
            main(["extract", "--config", str(cfg), "--out", e_dir,
                  "--student", os.path.join(p_dir, "pruned.ckpt")])
            capsys.readouterr()
            rep = json.load(open(os.path.join(e_dir, "dense.json")))
            params.append(rep["params"])
            a = load_tensors(os.path.join(p_dir, "pruned.ckpt"))
            accs.append(a)
        assert params[0] == params[1]
        assert set(accs[0]) == set(accs[1])
        for k in accs[0]:
            np.testing.assert_array_equal(accs[0][k], accs[1][k])
