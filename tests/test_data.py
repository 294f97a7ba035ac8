"""Synthetic task generators: label rules, determinism, balance, file format."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibprune.data import (
    CLS_TOKEN,
    SEP_TOKEN,
    Dataset,
    TaskSpec,
    generate,
    load_dataset,
    majority_label,
    parity_label,
    save_dataset,
    signal_features,
    signal_score,
)
from vibprune.errors import ConfigError, ContractError, FormatError


def small_spec(kind, **kw):
    defaults = dict(vocab=16, seq=14, n_train=80, n_val=20, n_test=20, seed=3)
    defaults.update(kw)
    return TaskSpec(kind, **defaults)


class TestRules:
    def test_majority_rule(self):
        spec = small_spec("majority_pair")
        payload = np.array([2, 2, 2, 2, 2, 3, 3, 3, 7, 9, 11, 6])  # 5 A vs 3 B
        assert majority_label(payload, spec) == 1
        assert majority_label(payload[[5, 6, 7, 0, 1, 2]], spec) is None  # 3 vs 3

    def test_parity_rule(self):
        spec = small_spec("marked_parity")
        # markers at 0 and 4; bits: 1 then 0 -> parity 1
        payload = np.array([2, 4, 9, 9, 2, 3, 9, 9, 9, 9, 9, 9])
        assert parity_label(payload, spec) == 1
        payload[5] = 4  # second bit becomes 1 -> parity 0
        assert parity_label(payload, spec) == 0

    def test_parity_rejects_missing_markers(self):
        spec = small_spec("marked_parity")
        assert parity_label(np.full(12, 9), spec) is None

    def test_parity_edge_cases(self):
        spec = small_spec("marked_parity")
        # a marker followed by a filler token
        assert parity_label(np.array([2, 4, 9, 2, 9, 9]), spec) is None
        # two adjacent markers: the first one's bit is the second marker
        assert parity_label(np.array([2, 2, 4, 9, 9, 9]), spec) is None
        # a marker in the last slot has no bit
        assert parity_label(np.array([2, 4, 9, 9, 9, 2]), spec) is None
        assert parity_label(np.array([2, 4, 9, 9, 9, 9]), spec) == 1
        assert parity_label(np.array([], dtype=int), spec) is None

    @given(payload=st.lists(st.sampled_from([2, 3, 4, 9]), max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_rules_match_their_numpy_form(self, payload):
        p = np.array(payload, dtype=int)
        spec = small_spec("marked_parity")
        marker_pos = np.flatnonzero(p == spec.marker_token)
        bits = p[marker_pos[marker_pos + 1 < p.size] + 1]
        want = None
        if marker_pos.size and marker_pos.max() + 1 < p.size and np.isin(
                bits, [spec.bit0_token, spec.bit1_token]).all():
            want = int((bits == spec.bit1_token).sum() % 2)
        assert parity_label(p, spec) == want
        spec = small_spec("majority_pair")
        na, nb = (p == spec.token_a).sum(), (p == spec.token_b).sum()
        assert majority_label(p, spec) == (None if na == nb else int(na > nb))

    def test_signal_rank_k_sufficiency(self):
        # the label is recomputable from the k-dim feature sum alone
        spec = small_spec("signal_dims", signal_k=4)
        ds = generate(spec)
        phi, w = signal_features(spec)
        payloads = ds.tokens[:, 1:-1].astype(int)
        scores = np.array([signal_score(p, phi, w) for p in payloads])
        np.testing.assert_array_equal((scores > 0).astype(int), ds.labels)


class TestGeneration:
    @pytest.mark.parametrize("kind", ["majority_pair", "marked_parity", "signal_dims"])
    def test_deterministic(self, kind):
        a = generate(small_spec(kind))
        b = generate(small_spec(kind))
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("kind", ["majority_pair", "marked_parity", "signal_dims"])
    def test_balanced_within_one_percent(self, kind):
        ds = generate(small_spec(kind, n_train=400, n_val=100, n_test=100))
        for split in ("train", "val", "test"):
            _, labels = ds.split(split)
            assert abs(labels.mean() - 0.5) <= 0.01

    @pytest.mark.parametrize("kind,tokens,labels", [
        ("majority_pair", "15d861fe090fd18076bc1e93ca44943d929b0b825360d535be0641f26261e566",
         "87c26359d2d96e6e9408ab14af084f18c4f1bc300eb09ce66dc7d9b8c798d1fc"),
        ("marked_parity", "ae7efdcdc23fc0a648099f0ad47f2e8c820c31852c9480360963420ece3c8162",
         "34c07e13977af716a8196c02d217d8f62c422544ff213cd7531f005a3859f638"),
        ("signal_dims", "49c731f7cf3ef9720fdc5967c31e48c42b7269c88b4934941916d1901f25c0f1",
         "885511fc322641c89e617df4af46873e100128a2f6893a5bf29268b2b8789089"),
    ])
    def test_pinned_digests(self, kind, tokens, labels):
        # a change to the RNG stream or to a label rule changes every dataset
        ds = generate(TaskSpec(kind, seed=11, n_train=300, n_val=40, n_test=40))
        assert hashlib.sha256(ds.tokens.astype("<u2").tobytes()).hexdigest() == tokens
        assert hashlib.sha256(ds.labels.astype("u1").tobytes()).hexdigest() == labels

    def test_framing_tokens(self):
        ds = generate(small_spec("majority_pair"))
        assert (ds.tokens[:, 0] == CLS_TOKEN).all()
        assert (ds.tokens[:, -1] == SEP_TOKEN).all()
        assert (ds.tokens[:, 1:-1] >= 2).all()

    def test_labels_recomputable(self):
        spec = small_spec("majority_pair")
        ds = generate(spec)
        for row, lab in zip(ds.tokens[:50], ds.labels[:50]):
            assert majority_label(row[1:-1].astype(int), spec) == lab

    def test_every_sequence_has_markers(self):
        spec = small_spec("marked_parity")
        ds = generate(spec)
        assert (ds.tokens[:, 1:-1] == spec.marker_token).sum(axis=1).min() >= 1
        for row, lab in zip(ds.tokens[:50], ds.labels[:50]):
            assert parity_label(row[1:-1].astype(int), spec) == lab

    def test_seq_too_short_rejected(self):
        with pytest.raises(ContractError):
            small_spec("marked_parity", seq=6, n_markers=4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            small_spec("sorting")

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_split_sizes(self, seed):
        ds = generate(small_spec("majority_pair", seed=seed, n_train=40,
                                 n_val=10, n_test=10))
        assert ds.tokens.shape == (60, 14)
        for name, n in (("train", 40), ("val", 10), ("test", 10)):
            t, l = ds.split(name)
            assert len(t) == len(l) == n


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        ds = generate(small_spec("marked_parity"))
        path = str(tmp_path / "d.bin")
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.tokens, ds.tokens)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.spec.kind == "marked_parity"
        assert back.spec.seq == ds.spec.seq

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_dataset(str(path))

    @pytest.fixture()
    def saved(self, tmp_path):
        """A 28-example dataset file's bytes and a path to write damage to."""
        path = tmp_path / "d.bin"
        save_dataset(generate(small_spec("majority_pair", n_train=20, n_val=4,
                                         n_test=4)), str(path))
        return path.read_bytes(), path

    def _damaged(self, saved, damage):
        data, path = saved
        path.write_bytes(damage(bytearray(data)))
        return str(path)

    # header offsets: magic 0, version 4, kind 8, vocab 9, seq 11,
    # n_train 13, n_val 17, n_test 21, seed 25
    def _kind_out_of_range(b):
        b[8] = 9
        return bytes(b)

    def _one_val_example(b):
        b[13], b[17] = 23, 1    # 23 + 1 + 4: the total, and so the size, holds
        return bytes(b)

    @pytest.mark.parametrize("damage", [
        lambda b: bytes(b[:-7]),            # labels cut short
        lambda b: bytes(b) + b"\x00",       # one byte too many
        lambda b: bytes(b[:20]),            # header cut short
        _kind_out_of_range,
        _one_val_example,
    ], ids=["labels-cut-short", "one-byte-too-many", "short-header",
            "kind-out-of-range", "one-val-example"])
    def test_damaged_file_is_format_error(self, saved, damage):
        with pytest.raises(FormatError):
            load_dataset(self._damaged(saved, damage))

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_dataset(str(tmp_path / "missing.bin"))

