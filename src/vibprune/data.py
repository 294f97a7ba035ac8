"""Synthetic sequence-classification tasks with planted redundancy.

Every sequence is framed as [CLS] payload... [SEP]. Labels are exact
functions of the tokens, classes are balanced per split by rejection
sampling, and everything is deterministic per seed.

kinds:
  majority_pair  label = 1 when token A outnumbers token B (ties rejected)
  marked_parity  label = XOR of the bit tokens right after each marker
  signal_dims    label = sign of a fixed rank-k linear functional of the
                 summed token features, so width k suffices to solve it
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataError, FormatError

CLS_TOKEN = 0
SEP_TOKEN = 1

_KINDS = ("majority_pair", "marked_parity", "signal_dims")
_DATASET_MAGIC = b"VIBD"
_DATASET_VERSION = 1
# magic, version, kind, vocab, seq, n_train, n_val, n_test, seed
_DATASET_HEADER = struct.Struct("<4sIBHHIIIQ")


@dataclass
class TaskSpec:
    kind: str
    vocab: int = 16
    seq: int = 18
    n_train: int = 1600
    n_val: int = 200
    n_test: int = 200
    seed: int = 0
    # majority_pair
    token_a: int = 2
    token_b: int = 3
    # marked_parity
    marker_token: int = 2
    bit0_token: int = 3
    bit1_token: int = 4
    n_markers: int = 3
    # signal_dims
    signal_k: int = 8
    signal_margin: float = 0.5

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ContractError(f"TaskSpec: unknown kind '{self.kind}'")
        if self.seq < 4:
            raise ContractError("TaskSpec: seq must be >= 4 (CLS + payload + SEP)")
        if self.vocab < 6:
            raise ContractError("TaskSpec: vocab must be >= 6")
        if self.kind == "marked_parity":
            if self.n_markers < 1:
                raise ContractError("TaskSpec: need at least one marker")
            if self.payload_len < 2 * self.n_markers:
                raise ContractError(
                    f"TaskSpec: seq too short for {self.n_markers} marker/bit pairs"
                )
        if min(self.n_train, self.n_val, self.n_test) < 2:
            raise ContractError("TaskSpec: splits must have >= 2 examples")

    @property
    def payload_len(self) -> int:
        return self.seq - 2

    @property
    def filler_range(self) -> tuple:
        # tokens reserved so far: CLS, SEP and the kind-specific ones
        lo = {"majority_pair": 4, "marked_parity": 5, "signal_dims": 2}[self.kind]
        if self.vocab <= lo:
            raise ContractError("TaskSpec: vocab leaves no filler tokens")
        return lo, self.vocab


@dataclass
class Dataset:
    spec: TaskSpec
    tokens: np.ndarray    # (N, seq) uint16
    labels: np.ndarray    # (N,) uint8

    def split(self, name: str):
        s = self.spec
        bounds = {
            "train": (0, s.n_train),
            "val": (s.n_train, s.n_train + s.n_val),
            "test": (s.n_train + s.n_val, s.n_train + s.n_val + s.n_test),
        }
        if name not in bounds:
            raise DataError(f"unknown split '{name}'")
        a, b = bounds[name]
        return self.tokens[a:b], self.labels[a:b]


# -- label rules (exposed for tests) ----------------------------------------


def majority_label(payload: np.ndarray, spec: TaskSpec):
    p = payload.tolist()
    na, nb = p.count(spec.token_a), p.count(spec.token_b)
    if na == nb:
        return None
    return int(na > nb)


def parity_label(payload: np.ndarray, spec: TaskSpec):
    p, m = payload.tolist(), spec.marker_token
    bits = [b for a, b in zip(p, p[1:]) if a == m]
    ones = bits.count(spec.bit1_token)
    if not bits or p[-1] == m or ones + bits.count(spec.bit0_token) < len(bits):
        return None
    return ones % 2


def signal_features(spec: TaskSpec):
    """Fixed token feature map (vocab, k) and weight vector (k,)."""
    rng = np.random.default_rng(spec.seed ^ 0x5EED)
    phi = rng.normal(0.0, 1.0, size=(spec.vocab, spec.signal_k))
    w = rng.normal(0.0, 1.0, size=spec.signal_k)
    w /= np.linalg.norm(w)
    return phi, w


def signal_score(payload: np.ndarray, phi: np.ndarray, w: np.ndarray) -> float:
    return float(phi[payload].sum(axis=0) @ w)


# -- generation ---------------------------------------------------------------


def _draw_payload(spec: TaskSpec, rng, signal=None) -> tuple:
    lo, hi = spec.filler_range
    p = spec.payload_len
    if spec.kind == "majority_pair":
        payload = rng.integers(lo, hi, size=p)
        ab = rng.random(p) < 0.5
        payload[ab] = np.where(rng.random(int(ab.sum())) < 0.5, spec.token_a,
                               spec.token_b)
        return payload, majority_label(payload, spec)
    if spec.kind == "marked_parity":
        payload = rng.integers(lo, hi, size=p)
        # markers occupy even slots so marker/bit pairs never collide
        slots = rng.choice(p // 2, size=spec.n_markers, replace=False)
        bits = rng.integers(0, 2, size=spec.n_markers)
        payload[2 * slots] = spec.marker_token
        payload[2 * slots + 1] = np.where(bits == 1, spec.bit1_token, spec.bit0_token)
        return payload, parity_label(payload, spec)
    phi, w = signal
    payload = rng.integers(lo, hi, size=p)
    score = signal_score(payload, phi, w)
    if abs(score) < spec.signal_margin * np.sqrt(p):
        return payload, None
    return payload, int(score > 0)


def generate(spec: TaskSpec) -> Dataset:
    """Deterministic class-balanced dataset with an 80/10/10-style split."""
    signal = signal_features(spec) if spec.kind == "signal_dims" else None
    rng = np.random.default_rng(spec.seed)
    all_tokens, all_labels = [], []
    for size in (spec.n_train, spec.n_val, spec.n_test):
        quota = {0: (size + 1) // 2, 1: size - (size + 1) // 2}
        rows, labs = [], []
        guard = 0
        while quota[0] > 0 or quota[1] > 0:
            guard += 1
            if guard > 1000 * size:
                raise ContractError("generate: rejection sampling is not converging")
            payload, label = _draw_payload(spec, rng, signal)
            if label is None or quota[label] == 0:
                continue
            quota[label] -= 1
            rows.append(payload)
            labs.append(label)
        order = rng.permutation(size)
        rows = np.asarray(rows)[order]
        labs = np.asarray(labs)[order]
        framed = np.empty((size, spec.seq), dtype=np.uint16)
        framed[:, 0] = CLS_TOKEN
        framed[:, 1:-1] = rows
        framed[:, -1] = SEP_TOKEN
        all_tokens.append(framed)
        all_labels.append(labs.astype(np.uint8))
    return Dataset(spec, np.concatenate(all_tokens), np.concatenate(all_labels))


# -- binary file format -------------------------------------------------------


def save_dataset(ds: Dataset, path: str) -> None:
    s = ds.spec
    with open(path, "wb") as f:
        f.write(_DATASET_HEADER.pack(_DATASET_MAGIC, _DATASET_VERSION,
                                     _KINDS.index(s.kind), s.vocab, s.seq,
                                     s.n_train, s.n_val, s.n_test, s.seed))
        f.write(ds.tokens.astype("<u2").tobytes())
        f.write(ds.labels.astype("u1").tobytes())


def load_dataset(path: str) -> Dataset:
    """The dataset `save_dataset` wrote. A file that cannot be read is a
    ConfigError; a damaged one, or one whose size is not the size its header
    implies, is a FormatError."""
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read dataset {path}: {e.strerror}")
    if buf[:4] != _DATASET_MAGIC:
        raise FormatError(f"{path}: bad dataset magic")
    head = _DATASET_HEADER.size
    if len(buf) < head:
        raise FormatError(f"{path}: truncated header")
    _, version, kind_id, vocab, seq, n_train, n_val, n_test, seed = \
        _DATASET_HEADER.unpack_from(buf)
    if version != _DATASET_VERSION:
        raise FormatError(f"{path}: unsupported dataset version {version}")
    if kind_id >= len(_KINDS):
        raise FormatError(f"{path}: unknown task kind {kind_id}")
    n = n_train + n_val + n_test
    size = head + n * (2 * seq + 1)     # uint16 tokens, then uint8 labels
    if len(buf) != size:
        raise FormatError(f"{path}: {len(buf)} bytes, its header implies {size}")
    try:
        spec = TaskSpec(kind=_KINDS[kind_id], vocab=vocab, seq=seq, n_train=n_train,
                        n_val=n_val, n_test=n_test, seed=seed)
    except ContractError as e:
        raise FormatError(f"{path}: {e.detail}")
    tokens = np.frombuffer(buf, "<u2", n * seq, head).reshape(n, seq)
    labels = np.frombuffer(buf, "u1", n, head + 2 * n * seq)
    return Dataset(spec, tokens.copy(), labels.copy())
