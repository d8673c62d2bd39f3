"""FDQ1 checkpoint files: named float32 tensors, bit-exact round trip.

Layout, all integers little-endian:

    magic   4 bytes  b"FDQ1"
    version u32      currently 1
    count   u64      number of manifest entries
    entry*  count times:
        name_len u64, name (UTF-8), rank u64, dims u64 * rank
    payload count times, manifest order: raw f32, C order

A manifest entry with name ``__type__/<tag>`` and dims [0] carries a
checkpoint type tag instead of data; `Checkpointed.load` requires a file's
tags to be exactly its class's one, which `Checkpointed.save` writes first.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import CheckpointError

MAGIC = b"FDQ1"
VERSION = 1
TYPE_PREFIX = "__type__/"


def save_tensors(path, named):
    """Write an ordered {name: float32 array} mapping to path."""
    items = list(named.items())
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    blob += struct.pack("<Q", len(items))
    payloads = []
    for name, arr in items:
        # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
        arr = np.asarray(arr, dtype=np.float32)
        encoded = name.encode("utf-8")
        blob += struct.pack("<Q", len(encoded))
        blob += encoded
        blob += struct.pack("<Q", arr.ndim)
        for dim in arr.shape:
            blob += struct.pack("<Q", dim)
        payloads.append(arr)
    for arr in payloads:
        blob += arr.tobytes(order="C")
    Path(path).write_bytes(bytes(blob))


def load_tensors(path):
    """Read a checkpoint back into an ordered {name: float32 array} dict."""
    raw = Path(path).read_bytes()
    view = memoryview(raw)
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(raw):
            raise CheckpointError(f"{path}: truncated while reading {what}")
        piece = view[pos:pos + n]
        pos += n
        return piece

    if bytes(take(4, "magic")) != MAGIC:
        raise CheckpointError(f"{path}: bad magic; not an FDQ1 checkpoint")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    (count,) = struct.unpack("<Q", take(8, "count"))
    shapes = []
    for k in range(count):
        (name_len,) = struct.unpack("<Q", take(8, f"entry {k} name length"))
        try:
            name = bytes(take(name_len, f"entry {k} name")).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(
                f"{path}: entry {k} name is not UTF-8") from exc
        (rank,) = struct.unpack("<Q", take(8, f"entry {k} rank"))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, f"entry {k} dims"))
        shapes.append((name, dims))
    out = {}
    for name, dims in shapes:
        data = np.frombuffer(take(4 * math.prod(dims), f"tensor {name}"),
                             dtype="<f4")
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: tensor {name} is not finite")
        out[name] = data.reshape(dims).astype(np.float32, copy=True)
    if pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - pos} trailing bytes")
    return out


class Checkpointed:
    """Parameter format and save/load of a model whose Tensor dict is self.p.

    A subclass sets TYPE_TAG and defines meta(), the hyperparameter list
    stored as the "meta" entry; from_meta(meta, params) rebuilds the model,
    by default as cls(*meta, params=params) over ints.  load refuses a file
    whose type tags are not exactly its own, and from_named a stored meta
    or a set of tensor names that the model it builds does not reproduce.
    """

    def params(self):
        return list(self.p.values())

    def to_named(self):
        named = {name: t.data for name, t in self.p.items()}
        named["meta"] = np.array(self.meta(), dtype=np.float32)
        return named

    @classmethod
    def from_meta(cls, meta, params):
        return cls(*map(int, meta), params=params)

    @classmethod
    def from_named(cls, named):
        named = dict(named)
        stored = named.pop("meta")
        if stored.ndim != 1:
            raise ValueError(f"meta of shape {stored.shape} is not a list")
        model = cls.from_meta([float(x) for x in stored], {
            name: Tensor(arr) for name, arr in named.items()})
        want = model.to_named()
        if not np.array_equal(want.pop("meta"), stored):
            raise ValueError(f"meta {stored} does not describe its model")
        if set(want) != set(named):
            raise ValueError(f"tensors {sorted(set(want) ^ set(named))} "
                             f"do not match the model")
        return model

    def save(self, path):
        save_tensors(path, {TYPE_PREFIX + self.TYPE_TAG: np.zeros(0),
                            **self.to_named()})

    @classmethod
    def load(cls, path):
        """The model at path; a file whose tensors make none, or whose type
        tags are not exactly [TYPE_TAG], is a CheckpointError."""
        named = load_tensors(path)
        tags = [k.removeprefix(TYPE_PREFIX) for k in named
                if k.startswith(TYPE_PREFIX)]
        if tags != [cls.TYPE_TAG]:
            raise CheckpointError(
                f"{path}: type tags {tags}, want {[cls.TYPE_TAG]}")
        del named[TYPE_PREFIX + cls.TYPE_TAG]
        try:
            return cls.from_named(named)
        except (LookupError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"{path}: not a {cls.TYPE_TAG} model ({exc!r})") from exc
