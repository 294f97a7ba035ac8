"""CLI and format tests: checkpoint round trips, config validation, and the
full command chain end to end on a tiny model."""

import functools
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vibprune import cli
from vibprune.checkpoint import load_tensors, save_tensors
from vibprune.cli import Settings, main, model_tensors, parse_config_file
from vibprune.errors import ConfigError, FormatError
from vibprune.extract import extract_dense, sparsity_report
from vibprune.model import build_teacher
from vibprune.pipeline import binarize, make_student

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


@functools.lru_cache(maxsize=None)
def _good_checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "good.ckpt")
        save_tensors({"a.weight": np.arange(6, dtype=np.float32).reshape(2, 3),
                      "b": np.float32(2.5).reshape(())}, path)
        with open(path, "rb") as f:
            return f.read()


@st.composite
def _damaged_checkpoints(draw):
    """A good checkpoint with a few bytes overwritten, then cut anywhere."""
    data = bytearray(_good_checkpoint())
    for i, b in draw(st.lists(st.tuples(st.integers(0, len(data) - 1),
                                        st.integers(0, 255)), max_size=4)):
        data[i] = b
    return bytes(data[:draw(st.integers(0, len(data)))])


class TestDamagedCheckpoint:
    """Any damage to a checkpoint's bytes is a FormatError; a file that
    cannot be read is a ConfigError."""

    # offsets in the good checkpoint: magic 0, version 4, count 8, then the
    # first tensor's name length 12, name "a.weight" 14, ndim 22, dims 23
    @pytest.mark.parametrize("damage", [
        lambda b: b[:6],                                # header cut short
        lambda b: b[:13],                               # inside a name length
        lambda b: b[:25],                               # inside the dims
        lambda b: b[:14] + b"\xff" + b[15:],            # a name byte not UTF-8
    ], ids=["short-header", "cut-name-length", "cut-dims", "name-not-utf8"])
    def test_probe_is_format_error(self, tmp_path, damage):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(damage(_good_checkpoint()))
        with pytest.raises(FormatError):
            load_tensors(str(p))

    def test_missing_path_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_tensors(str(tmp_path / "missing.ckpt"))

    @given(data=st.one_of(_damaged_checkpoints(), st.binary(max_size=80),
                          st.binary(max_size=80).map(lambda b: b"VIBP" + b)))
    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_bytes_load_or_format_error(self, tmp_path, data):
        p = tmp_path / "fuzz.ckpt"
        p.write_bytes(data)
        try:
            load_tensors(str(p))
        except FormatError:
            pass


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
        # a threshold just under the gates' initial log alpha (about 4.6), so
        # that the two short prune epochs leave units to cut
        (d / "run.cfg").write_text(TINY_CONFIG + "prune.tau = 4.59\n")
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
        assert r["params"] > 0 and r["sparsity_params"] > 0
        report = json.load(open(os.path.join(e_dir, "dense.json")))
        assert report["params"] == r["params"]

        r = self._run(["eval", "--config", cfg,
                       "--dense", os.path.join(e_dir, "dense.ckpt"),
                       "--dataset", os.path.join(t_dir, "dataset.bin")], capsys)
        assert 0.0 <= r["accuracy"] <= 1.0
        assert r["params"] == report["params"]

        # the binarized student counts the arrays it keeps, as the dense model does
        r = self._run(["eval", "--config", cfg,
                       "--student", os.path.join(f_dir, "finetuned.ckpt"),
                       "--dataset", os.path.join(t_dir, "dataset.bin")], capsys)
        assert (r["params"], r["flops"]) == (report["params"], report["flops"])

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


def _drop_structure(rep):
    del rep["structure"]


def _head_out_of_range(rep):
    rep["structure"]["heads"][1][-1] = 2        # the config has 2 heads


def _width_one_short(rep):
    rep["structure"]["width"].pop()


class TestBadDenseReport:
    """A bad dense.json beside a good dense checkpoint: one categorized
    stderr line and exit 1, never a traceback."""

    @pytest.fixture(scope="class")
    def dense_dir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("dense")
        (d / "run.cfg").write_text(TINY_CONFIG)
        settings = Settings(parse_config_file(str(d / "run.cfg")), None)
        cfgm = settings.model_config()
        s = make_student(build_teacher(cfgm, 0), settings.run_config())
        s.gates.heads[0].mu.data[0] = 0.0
        binarize(s, 0.0)
        dense = extract_dense(s)
        save_tensors(dense.arrays, str(d / "dense.ckpt"))
        (d / "dense.json").write_text(json.dumps(sparsity_report(dense, 12)))
        return d

    @pytest.mark.parametrize("probe, category", [
        ("missing", "config error"),
        (_drop_structure, "format error"),
        (_head_out_of_range, "format error"),
        ("{not json", "format error"),
        (_width_one_short, "format error"),
    ], ids=["missing", "no-structure", "head-out-of-range", "not-json",
            "width-one-short"])
    def test_one_categorized_line(self, dense_dir, tmp_path, capsys, probe, category):
        cfg = str(dense_dir / "run.cfg")
        good = ["eval", "--config", cfg, "--dense", str(dense_dir / "dense.ckpt")]
        assert main(good) == 0
        capsys.readouterr()
        report = tmp_path / "dense.json"
        if callable(probe):
            rep = json.loads((dense_dir / "dense.json").read_text())
            probe(rep)
            report.write_text(json.dumps(rep))
        elif probe != "missing":
            report.write_text(probe)
        rc = main(good + ["--dense-report", str(report)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(category) and err.count("\n") == 1, err
        assert "Traceback" not in err


    def test_missing_checkpoint(self, dense_dir, tmp_path, capsys):
        rc = main(["eval", "--config", str(dense_dir / "run.cfg"),
                   "--dense", str(tmp_path / "missing.ckpt"),
                   "--dense-report", str(dense_dir / "dense.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error") and err.count("\n") == 1, err


class TestBadDataset:
    def test_label_outside_classes(self, cfg_path, tmp_path, capsys):
        from vibprune.data import generate, save_dataset

        ds = generate(Settings(parse_config_file(cfg_path), None).task_spec())
        ds.labels[0] = 7                      # a train label; num_classes is 2
        path = str(tmp_path / "dataset.bin")
        save_dataset(ds, path)
        rc = main(["train-teacher", "--config", cfg_path, "--out",
                   str(tmp_path / "t"), "--dataset", path])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("data error") and err.count("\n") == 1, err
        assert "Traceback" not in err


class TestMalformedSettings:
    """A malformed setting, in the config or a flag: exit 1 and one stderr
    line of the category that names it, never a traceback."""

    @pytest.fixture(scope="class")
    def teacher_ckpt(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("teacher")
        (d / "run.cfg").write_text(TINY_CONFIG)
        cfgm = Settings(parse_config_file(str(d / "run.cfg")), None).model_config()
        save_tensors(model_tensors(build_teacher(cfgm, 0)), str(d / "teacher.ckpt"))
        return str(d / "teacher.ckpt")

    @pytest.mark.parametrize("key, value, command, category", [
        ("train.batch_size", "0", "train-teacher", "contract error"),
        ("train.batch_size", "0", "prune", "contract error"),
        ("train.batch_size", "-1", "train-teacher", "config error"),
        ("train.batch_size", "-1", "prune", "config error"),
        ("train.epochs_prune", "0", "prune", "contract error"),
        ("analyze.tokens", "a,b", "analyze", "config error"),
        ("analyze.tokens", "", "analyze", "config error"),
        ("analyze.tokens", "70000", "analyze", "config error"),
        ("gradcheck.batch", "0", "gradcheck", "config error"),
        ("gradcheck.seq", "0", "gradcheck", "config error"),
        ("run.seed", "-1", "train-teacher", "config error"),
        ("data.seed", "-1", "train-teacher", "config error"),
        ("--seed", "-2", "train-teacher", "config error"),
        ("--seed", "-2", "gradcheck", "config error"),
        ("prune.seq_ref", "-3", "eval", "config error"),
        ("prune.seq_ref", "0", "eval", "contract error"),
        ("train.warmup_frac", "nan", "prune", "contract error"),
        ("prune.eta", "2", "train-teacher", "contract error"),
        ("prune.metric", "foo", "train-teacher", "contract error"),
        ("train.lr_weights", "-1", "train-teacher", "contract error"),
        ("train.lr_gates", "-5", "prune", "contract error"),
        ("train.lambda_lr", "-1", "prune", "contract error"),
    ])
    def test_one_categorized_line(self, teacher_ckpt, tmp_path, capsys, key, value,
                                  command, category):
        cfg = tmp_path / "run.cfg"
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if key.startswith("--"):
            cfg.write_text(TINY_CONFIG)
            argv += [key, value]
        else:
            cfg.write_text(TINY_CONFIG + f"{key} = {value}\n")
        if command in ("prune", "eval", "analyze"):
            argv += ["--teacher", teacher_ckpt]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(category + ":") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_metrics_log_closed_when_a_phase_fails(tmp_path, monkeypatch, capsys):
    opened = []

    class Recording(cli.MetricsWriter):
        def __init__(self, path):
            super().__init__(path)
            opened.append(self)

    monkeypatch.setattr(cli, "MetricsWriter", Recording)
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(TINY_CONFIG + "train.lr_weights = nan\n")
    rc = main(["train-teacher", "--config", str(cfg), "--out", str(tmp_path / "t")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("numeric") and err.count("\n") == 1, err
    assert opened and all(w.f.closed for w in opened)


def test_teacher_divergence_names_the_step(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(TINY_CONFIG + "train.lr_weights = nan\n")
    rc = main(["train-teacher", "--config", str(cfg), "--out", str(tmp_path / "t")])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1, err
    assert err.startswith("numeric divergence: teacher training diverged at step 1: "), err


@pytest.mark.parametrize("command, label", [("prune", "pruning"),
                                            ("finetune", "finetune")])
def test_student_divergence_names_the_step(tmp_path, capsys, command, label):
    (tmp_path / "run.cfg").write_text(TINY_CONFIG)
    settings = Settings(parse_config_file(str(tmp_path / "run.cfg")), None)
    teacher = build_teacher(settings.model_config(), 0)
    student = make_student(teacher, settings.run_config())
    save_tensors(model_tensors(teacher), str(tmp_path / "teacher.ckpt"))
    save_tensors(model_tensors(student), str(tmp_path / "student.ckpt"))
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(TINY_CONFIG + "train.lr_weights = nan\n")
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--teacher", str(tmp_path / "teacher.ckpt"),
               "--student", str(tmp_path / "student.ckpt")])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1, err
    assert err.startswith(f"numeric divergence: {label} diverged at step 1: "), err


def test_readme_config_table_lists_every_key():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as f:
        text = f.read()
    table = text.split("### Config keys", 1)[1].split("\n#", 1)[0]
    keys = re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \|", table, re.M)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(cli._SCHEMA)


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
