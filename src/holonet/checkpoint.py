"""Binary parameter persistence with integrity checking.

Layout (all integers little-endian):

    magic   4 bytes  b"HLNT"
    version u32      currently 1
    kind    u16 length + utf8 model kind
    meta    u32 length + utf8 JSON (dims, vocab, structural fields)
    count   u32 number of arrays
    arrays  repeated: name (u16+utf8), ndim u8, shape (u64 each),
            float64 little-endian payload
    digest  8 bytes  BLAKE2b-64 of everything above

Loading verifies the digest before touching the payload, checks the array
names and shapes against the kind and meta, and reconstructs the parameter
dataclass for the stored kind. A human-readable sidecar
(`<path>.meta.txt`) summarizes the contents; it is informational only.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from . import models as md
from .errors import ArgumentError, CorruptionError, VersionError

MAGIC = b"HLNT"
VERSION = 1


def _meta_for(kind: str, params) -> dict:
    if kind == md.HOLONOMIC:
        return {"n": params.n, "vocab": params.vocab}
    if kind in (md.RNN, md.NORMALIZED_RNN):
        return {"n": params.n, "vocab": params.vocab}
    if kind == md.TRANSFORMER:
        return {"d_model": params.d_model, "n_layers": params.n_layers,
                "n_heads": params.n_heads, "d_ff": params.d_ff,
                "vocab": params.vocab, "pos_mode": params.pos_mode,
                "max_len": params.max_len, "pool": params.pool}
    raise ArgumentError(f"unknown model kind: {kind}")


def _layout(kind: str, meta: dict, path) -> dict:
    """Array name -> shape a checkpoint of `kind` must hold. None matches any
    extent: meta does not record the readout's query and class counts."""

    def dim(key, least=0):
        value = meta.get(key)
        if type(value) is not int or value < least:
            raise CorruptionError(f"{path}: metadata field {key!r} is {value!r}")
        return value

    if kind in (md.HOLONOMIC, md.RNN, md.NORMALIZED_RNN):
        n, vocab = dim("n"), dim("vocab")
        if kind == md.HOLONOMIC:
            shapes = {"generators": (vocab, n, n), "h0": (n,)}
        else:
            shapes = {"w_rec": (n, n), "w_in": (vocab, n), "bias": (n,)}
        shapes["readout"] = (None, None, n)
        return shapes
    if kind == md.TRANSFORMER:
        dim("n_heads", least=1)
        for key in ("pos_mode", "pool"):
            if not isinstance(meta.get(key), str):
                raise CorruptionError(
                    f"{path}: metadata field {key!r} is {meta.get(key)!r}")
        d, d_ff = dim("d_model"), dim("d_ff")
        shapes = {"embed": (dim("vocab"), d), "ln_f_g": (d,), "ln_f_b": (d,),
                  "readout": (None, None, d)}
        if meta.get("pos_mode") == "learned":
            shapes["pos"] = (dim("max_len"), d)
        for i in range(dim("n_layers")):
            pre = f"layer{i}."
            for name in ("wq", "wk", "wv", "wo"):
                shapes[pre + name] = (d, d)
            for name in ("bq", "bk", "bv", "bo", "ln1_g", "ln1_b", "ln2_g", "ln2_b", "b2"):
                shapes[pre + name] = (d,)
            shapes.update({pre + "w1": (d, d_ff), pre + "b1": (d_ff,),
                           pre + "w2": (d_ff, d)})
        return shapes
    raise ArgumentError(f"unknown model kind: {kind}")


def _check_layout(kind: str, meta: dict, arrays: dict, path) -> None:
    expected = _layout(kind, meta, path)
    missing = sorted(set(expected) - set(arrays))
    extra = sorted(set(arrays) - set(expected))
    if missing or extra:
        raise CorruptionError(
            f"{path}: {kind} checkpoint lacks arrays {missing} or has "
            f"unexpected arrays {extra}")
    for name, shape in expected.items():
        got = arrays[name].shape
        if len(got) != len(shape) or any(e is not None and e != g
                                         for e, g in zip(shape, got)):
            raise CorruptionError(
                f"{path}: array {name} has shape {got}, expected {shape}")


def _rebuild(kind: str, meta: dict, arrays: dict):
    if kind == md.HOLONOMIC:
        return md.HolonomicParams(meta["n"], meta["vocab"], arrays["generators"],
                                  arrays["h0"], arrays["readout"])
    if kind in (md.RNN, md.NORMALIZED_RNN):
        return md.RnnParams(meta["n"], meta["vocab"], arrays["w_rec"],
                            arrays["w_in"], arrays["bias"], arrays["readout"])
    if kind == md.TRANSFORMER:
        return md.TransformerParams(meta["d_model"], meta["n_layers"],
                                    meta["n_heads"], meta["d_ff"], meta["vocab"],
                                    meta["pos_mode"], meta["max_len"],
                                    meta["pool"], arrays)
    raise ArgumentError(f"unknown model kind: {kind}")


def save_checkpoint(path, kind: str, params) -> None:
    if kind not in md.MODEL_KINDS:
        raise ArgumentError(f"unknown model kind: {kind}")
    path = Path(path)
    meta = json.dumps(_meta_for(kind, params), sort_keys=True).encode()
    kind_b = kind.encode()
    chunks = [MAGIC, struct.pack("<I", VERSION),
              struct.pack("<H", len(kind_b)), kind_b,
              struct.pack("<I", len(meta)), meta]
    arrays = params.to_dict()
    chunks.append(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        name_b = name.encode()
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.tobytes())
    body = b"".join(chunks)
    digest = hashlib.blake2b(body, digest_size=8).digest()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(body + digest)
    total, items = md.param_count(params)
    lines = [f"model: {kind}"]
    lines += [f"{k}: {v}" for k, v in sorted(_meta_for(kind, params).items())]
    lines.append(f"parameters: {total}")
    lines += [f"  {name}: {count}" for name, count in sorted(items.items())]
    Path(str(path) + ".meta.txt").write_text("\n".join(lines) + "\n")


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
        name = bytes(take(name_len)).decode()
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        size = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(take(8 * size), dtype="<f8").reshape(shape)
        arrays[name] = data.astype(np.float64)
    if off != len(view):
        raise CorruptionError(f"{path}: trailing bytes after payload")
    _check_layout(kind, meta, arrays, path)
    return kind, _rebuild(kind, meta, arrays)
