"""Named-tensor binary checkpoint: magic "VIBP", little-endian throughout.

Layout: magic (4 bytes) | version u32 | tensor count u32 | per tensor:
name length u16, UTF-8 name, ndim u8, dims u32 each, raw float32 payload.
Round trips are bit-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ConfigError, FormatError

MAGIC = b"VIBP"
VERSION = 1


def save_tensors(tensors: dict, path: str) -> None:
    names = sorted(tensors)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(names)))
        for name in names:
            arr = np.ascontiguousarray(tensors[name], dtype="<f4")
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(arr.tobytes())


def load_tensors(path: str) -> dict:
    """The named tensors `save_tensors` wrote. A file that cannot be read is
    a ConfigError; damaged bytes are a FormatError."""
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read checkpoint {path}: {e.strerror}")
    if buf[:4] != MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    pos = 4

    def take(n, what):
        nonlocal pos
        if pos + n > len(buf):
            raise FormatError(f"{path}: truncated {what}")
        pos += n
        return buf[pos - n:pos]

    def unpack(fmt, what):
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    version, count = unpack("<II", "header")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    out = {}
    for _ in range(count):
        (nlen,) = unpack("<H", "tensor name length")
        try:
            name = take(nlen, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: a tensor name is not UTF-8")
        (ndim,) = unpack("<B", f"dims of '{name}'")
        dims = unpack(f"<{ndim}I", f"dims of '{name}'")
        payload = take(4 * math.prod(dims), f"payload for '{name}'")
        if name in out:
            raise FormatError(f"{path}: duplicate tensor name '{name}'")
        try:
            out[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        except ValueError as e:
            raise FormatError(f"{path}: tensor '{name}': {e}")
    return out
