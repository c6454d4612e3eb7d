"""Binary parameter persistence with integrity checking.

Layout (all integers little-endian):

    magic   4 bytes  b"HLNT"
    version u32      currently 1
    kind    u16 length + utf8 model kind
    meta    u32 length + utf8 JSON: the params class's header fields
    count   u32 number of arrays
    arrays  repeated: name (u16+utf8), ndim u8, shape (u64 each),
            float64 little-endian payload
    digest  8 bytes  BLAKE2b-64 of everything above

Every kind takes one path, shaped by its params class (`models.PARAMS`): the
kind is the class's `kind`, the meta its header fields and the arrays its
`to_dict()`. Loading verifies the digest before touching the payload, checks
each header field against the class's rule before use, checks the array names
(each stored once) and shapes against the `layout` of the header, and
rebuilds the params; `load_checkpoint` returns the pair (kind, params).
A human-readable sidecar (`<path>.meta.txt`) summarizes the contents; it is
informational only.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from . import models as md
from .errors import ArgumentError, CorruptionError, DimensionError, VersionError

MAGIC = b"HLNT"
VERSION = 1


def _check_layout(kind: str, expected: dict, arrays: dict, path) -> None:
    if set(arrays) != set(expected):
        raise CorruptionError(f"{path}: {kind} checkpoint holds arrays {sorted(arrays)}, "
                              f"expected {sorted(expected)}")
    for name, shape in expected.items():
        got = arrays[name].shape
        if len(got) != len(shape) or any(e not in (None, g) for e, g in zip(shape, got)):
            raise CorruptionError(f"{path}: array {name} has shape {got}, expected {shape}")


def _write_body(out, params) -> None:
    """Write everything the digest covers to `out(chunk)`, one chunk at a
    time; each array's payload goes out as a view of its buffer."""
    meta = json.dumps(md.header(params), sort_keys=True).encode()
    kind_b = params.kind.encode()
    for chunk in (MAGIC, struct.pack("<I", VERSION), struct.pack("<H", len(kind_b)),
                  kind_b, struct.pack("<I", len(meta)), meta):
        out(chunk)
    arrays = params.to_dict()
    out(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        name_b = name.encode()
        out(struct.pack("<H", len(name_b)))
        out(name_b)
        out(struct.pack("<B", arr.ndim))
        out(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        out(arr.reshape(-1).data)


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside `path` that replaces `path` in one rename
    when the block exits cleanly: a write that fails midway leaves the
    previous file as it was and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)     # gone already once replaced


def save_checkpoint(path, params) -> None:
    """Write the checkpoint, its body hashed as it streams out, and then its
    sidecar, each through `atomic_open`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = hashlib.blake2b(digest_size=8)
    with atomic_open(path, "wb") as f:

        def out(chunk):
            digest.update(chunk)
            f.write(chunk)

        _write_body(out, params)
        f.write(digest.digest())
    total, items = md.param_count(params)
    lines = [f"model: {params.kind}"]
    lines += [f"{k}: {v}" for k, v in sorted(md.header(params).items())]
    lines.append(f"parameters: {total}")
    lines += [f"  {name}: {count}" for name, count in sorted(items.items())]
    with atomic_open(str(path) + ".meta.txt") as f:
        f.write("\n".join(lines) + "\n")


def load_checkpoint(path):
    """Returns (kind, params); raises CorruptionError / VersionError."""
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 4 + 8:
        raise CorruptionError(f"{path}: truncated checkpoint")
    body, digest = raw[:-8], raw[-8:]
    if hashlib.blake2b(body, digest_size=8).digest() != digest:
        raise CorruptionError(f"{path}: checksum mismatch")
    view = memoryview(body)
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(view):
            raise CorruptionError(f"{path}: unexpected end of data")
        out = view[off:off + n]
        off += n
        return out

    if bytes(take(4)) != MAGIC:
        raise CorruptionError(f"{path}: bad magic; not a checkpoint")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise VersionError(
            f"{path}: format version {version} needs migration (supported: {VERSION})")
    (kind_len,) = struct.unpack("<H", take(2))
    kind = bytes(take(kind_len)).decode(errors="replace")
    (meta_len,) = struct.unpack("<I", take(4))
    try:
        meta = json.loads(bytes(take(meta_len)).decode())
    except ValueError as err:
        raise CorruptionError(f"{path}: unreadable metadata ({err})")
    if not isinstance(meta, dict):
        raise CorruptionError(f"{path}: metadata is not a JSON object")
    (count,) = struct.unpack("<I", take(4))
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len))
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        # exact: an element count past int64 reads as the end of the data
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        try:    # a name not UTF-8, or an extent numpy cannot hold
            key, arr = name.decode(), data.reshape(shape).astype(np.float64)
        except ValueError as err:
            raise CorruptionError(f"{path}: unreadable array record {name!r} ({err})")
        if key in arrays:
            raise CorruptionError(f"{path}: array {key!r} is stored twice")
        arrays[key] = arr
    if off != len(view):
        raise CorruptionError(f"{path}: trailing bytes after payload")
    if kind not in md.PARAMS:
        raise CorruptionError(f"{path}: unknown model kind {kind!r}")
    cls = md.PARAMS[kind]
    try:    # a header field of the wrong type, or one no model takes
        for key, rule in cls.HEADER.items():
            md.check(f"{cls.__name__} field {key!r}", rule, meta.get(key))
        header = {key: meta[key] for key in cls.HEADER}
        _check_layout(kind, cls.layout(**header), arrays, path)
        return kind, md.rebuild(kind, header, arrays)
    except (ArgumentError, DimensionError) as err:
        raise CorruptionError(f"{path}: {err}") from err
