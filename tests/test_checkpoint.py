import dataclasses
import hashlib
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holonet
from holonet import cli
from holonet import models as md
from holonet.checkpoint import load_checkpoint, save_checkpoint
from holonet.errors import CorruptionError, VersionError
from holonet.tensor_core import RngState


def all_kinds():
    yield md.init_holonomic(RngState(0), 6, 6, 6)
    yield md.init_rnn(RngState(1), 6, 45, 10, n_queries=10)
    yield md.init_rnn(RngState(2), 6, 6, 6, normalized=True)
    for pos_mode in ("learned", "sinusoidal"):
        yield md.init_transformer(
            RngState(3), d_model=8, n_layers=2, n_heads=2, d_ff=12, vocab=6,
            n_classes=6, pos_mode=pos_mode, max_len=16)


@pytest.mark.parametrize("index", range(5))
def test_round_trip_every_kind(tmp_path, index):
    params = list(all_kinds())[index]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    kind, loaded = load_checkpoint(path)
    assert kind == params.kind and type(loaded) is type(params)
    for name, arr in params.to_dict().items():
        assert np.array_equal(loaded.to_dict()[name], arr), name


@dataclasses.dataclass
class WithoutH0(md.HolonomicParams):
    def to_dict(self):
        return {"generators": self.generators, "readout": self.readout}


def save_without_h0(path):
    p = md.init_holonomic(RngState(4), 6, 6, 6)
    save_checkpoint(path, WithoutH0(p.n, p.vocab, p.generators, p.h0, p.readout))


def save_wrong_shape(path):
    p = md.init_holonomic(RngState(5), 6, 6, 6)
    p.h0 = np.ones(7)
    save_checkpoint(path, p)


@pytest.mark.parametrize("write", [save_without_h0, save_wrong_shape])
def test_checksum_valid_but_malformed_checkpoint_is_corrupt(tmp_path, write):
    path = tmp_path / "model.ckpt"
    write(path)
    with pytest.raises(CorruptionError):
        load_checkpoint(path)
    config = tmp_path / "sweep.ini"
    config.write_text(f"[noise]\ncheckpoint = {path}\n")
    code = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


def test_transformer_checkpoint_with_stray_positional_table_is_corrupt(tmp_path):
    p = md.init_transformer(RngState(6), d_model=8, n_layers=1, n_heads=2, d_ff=12,
                            vocab=6, n_classes=6, pos_mode="sinusoidal")
    p.weights["pos"] = np.zeros((64, 8))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, p)
    with pytest.raises(CorruptionError):
        load_checkpoint(path)
    config = tmp_path / "massgap.ini"
    config.write_text(f"[massgap]\ncheckpoint = {path}\n")
    code = cli.main(["massgap", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("field, value", [
    ("n_heads", 0), ("pool", None), ("vocab", "6"), ("n_heads", "2"), ("pos_mode", 1),
    ("n_heads", 3), ("pos_mode", "spiral"), ("kind", "lstm")])
def test_checkpoint_with_bad_metadata_is_corrupt(tmp_path, monkeypatch, field, value):
    # a header field of the wrong type, one no model takes (d_model = 8 over 3
    # heads, an unknown positional mode), or an unknown model kind
    p = md.init_transformer(RngState(7), d_model=8, n_layers=1, n_heads=2, d_ff=12,
                            vocab=6, n_classes=6)
    path = tmp_path / "model.ckpt"
    if field == "kind":
        monkeypatch.setattr(p, "kind", value)
    else:
        meta = md.header(p)
        meta[field] = value
        monkeypatch.setattr(md, "header", lambda params: meta)
    save_checkpoint(path, p)
    with pytest.raises(CorruptionError):
        load_checkpoint(path)
    config = tmp_path / "genlen.ini"
    config.write_text(f"[genlen]\ncheckpoint = {path}\nlengths = 5\n")
    code = cli.main(["genlen", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


def tiny_model(kind: str, pos_mode: str | None):
    """A hand-built model of `kind`: its arrays, in name order, count up from
    0 in steps of 1/4, and each readout has 2 queries of 2 classes."""
    header = {"n": 2, "vocab": 3} if kind != md.TRANSFORMER else {
        "d_model": 4, "n_layers": 1, "n_heads": 2, "d_ff": 3, "vocab": 3,
        "pos_mode": pos_mode, "max_len": 5, "pool": "final"}
    shapes = md.PARAMS[kind].layout(**header)
    arrays, start = {}, 0
    for name in sorted(shapes):
        shape = tuple(2 if e is None else e for e in shapes[name])
        size = math.prod(shape)
        arrays[name] = np.arange(start, start + size, dtype=np.float64).reshape(shape) / 4
        start += size
    return md.rebuild(kind, header, arrays)


# SHA-256 of the checkpoint and the sidecar text of each tiny model in format
# version 1: any change to the bytes written must change VERSION
PINNED_FORMAT = {
    (md.HOLONOMIC, None): (
        "9b907b34f549d79629ab6466c973003a9ddd0cbf79491efb50445bcb309d13bd",
        "model: holonomic\nn: 2\nvocab: 3\nparameters: 22\n  generators: 12\n  h0: 2\n"
        "  readout: 8\n"),
    (md.RNN, None): (
        "683d3257b438b155d21e67fdc17f292c816ab444654f35f59957c236335d4c33",
        "model: rnn\nn: 2\nvocab: 3\nparameters: 20\n  bias: 2\n  readout: 8\n  w_in: 6\n"
        "  w_rec: 4\n"),
    (md.NORMALIZED_RNN, None): (
        "0df1789a82d4d05546d4537ec93d2f39c5317e9183287f6fe3e0df7b43e5eeb2",
        "model: normalized-rnn\nn: 2\nvocab: 3\nparameters: 20\n  bias: 2\n  readout: 8\n"
        "  w_in: 6\n  w_rec: 4\n"),
    (md.TRANSFORMER, "learned"): (
        "5f9b1ca9d54229927caf65f19803fc275bf07437301c4fefa7dc0763a28dd4a1",
        "model: transformer\nd_ff: 3\nd_model: 4\nmax_len: 5\nn_heads: 2\nn_layers: 1\n"
        "pool: final\npos_mode: learned\nvocab: 3\nparameters: 183\n  embed: 12\n"
        "  layer0: 127\n  ln_f_b: 4\n  ln_f_g: 4\n  pos: 20\n  readout: 16\n"),
    (md.TRANSFORMER, "sinusoidal"): (
        "ba67bb20c437c2cec2610c8e677958e7e7306c6fcef48d3b49fda6f2f1121fe9",
        "model: transformer\nd_ff: 3\nd_model: 4\nmax_len: 5\nn_heads: 2\nn_layers: 1\n"
        "pool: final\npos_mode: sinusoidal\nvocab: 3\nparameters: 163\n  embed: 12\n"
        "  layer0: 127\n  ln_f_b: 4\n  ln_f_g: 4\n  readout: 16\n"),
}


@pytest.mark.parametrize("kind, pos_mode", list(PINNED_FORMAT))
def test_the_on_disk_format_is_pinned(tmp_path, kind, pos_mode):
    params = tiny_model(kind, pos_mode)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    digest, sidecar = PINNED_FORMAT[kind, pos_mode]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert Path(f"{path}.meta.txt").read_text() == sidecar
    loaded_kind, loaded = load_checkpoint(path)
    assert loaded_kind == kind and md.header(loaded) == md.header(params)


def signed(edit):
    """A change to a checkpoint's body with its digest recomputed, so that
    the check under test is the one that refuses the file."""
    def apply(raw: bytes) -> bytes:
        body = edit(raw[:-8])
        return body + hashlib.blake2b(body, digest_size=8).digest()
    return apply


def with_meta(meta: bytes):
    """The body with `meta` in place of its metadata text."""
    def edit(body: bytes) -> bytes:
        (kind_len,) = struct.unpack_from("<H", body, 8)
        at = 10 + kind_len      # magic, version, kind (u16 length + text)
        (meta_len,) = struct.unpack_from("<I", body, at)
        return body[:at] + struct.pack("<I", len(meta)) + meta + body[at + 4 + meta_len:]
    return signed(edit)


# each malformed file: the edit of its bytes, the error and its message
REFUSALS = {
    "shorter-than-16-bytes": (lambda raw: raw[:15], CorruptionError, "truncated"),
    "payload-byte-flipped": (lambda raw: raw[:-9] + bytes([raw[-9] ^ 1]) + raw[-8:],
                             CorruptionError, "checksum mismatch"),
    "wrong-magic": (signed(lambda body: b"HLNX" + body[4:]), CorruptionError, "bad magic"),
    "version-2": (signed(lambda body: body[:4] + struct.pack("<I", 2) + body[8:]),
                  VersionError, "format version 2 needs migration"),
    "metadata-not-json": (with_meta(b"{n: 6"), CorruptionError, "unreadable metadata"),
    "metadata-a-list": (with_meta(b"[6, 6]"), CorruptionError, "not a JSON object"),
    "cut-inside-an-array": (signed(lambda body: body[:-4]), CorruptionError,
                            "unexpected end of data"),
    "byte-after-the-last-array": (signed(lambda body: body + b"\0"), CorruptionError,
                                  "trailing bytes"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_load_checkpoint_refuses_each_malformed_file(tmp_path, case):
    edit, error, message = REFUSALS[case]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, md.init_holonomic(RngState(8), 6, 6, 6))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(error, match=message):
        load_checkpoint(path)


def test_sweep_on_a_checkpoint_of_another_version_exits_2_without_a_traceback(
        tmp_path, capsys):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, md.init_holonomic(RngState(8), 6, 6, 6))
    path.write_bytes(REFUSALS["version-2"][0](path.read_bytes()))
    config = tmp_path / "sweep.ini"
    config.write_text(f"[noise]\ncheckpoint = {path}\n")
    code = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"error (config/input): {path}: format version 2 "
                                       "needs migration (supported: 1)\n")


def rewrite_h0_record(path, record: bytes) -> None:
    """Replace the h0 record (name, ndim, shape) of a saved n = 6 holonomic
    checkpoint, keeping its payload, and re-sign the body: the digest is
    valid, so only the parser can refuse the file."""
    body = path.read_bytes()[:-8]
    old = struct.pack("<H", 2) + b"h0" + struct.pack("<BQ", 1, 6)
    assert body.count(old) == 1
    body = body.replace(old, record)
    path.write_bytes(body + hashlib.blake2b(body, digest_size=8).digest())


@pytest.mark.parametrize("record", [
    struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<BQ", 1, 6),
    struct.pack("<H", 2) + b"h0" + struct.pack("<B2Q", 2, 2 ** 32, 2 ** 32),
    struct.pack("<H", 2) + b"h0" + struct.pack("<B2Q", 2, 2 ** 63, 0),
], ids=["name-not-utf8", "count-past-int64", "extent-past-int64"])
def test_checkpoint_with_unreadable_array_record_is_corrupt(tmp_path, record):
    # a 2^64-element shape wraps to 0 in int64 arithmetic, and an extent of
    # 2^63 exceeds the largest array numpy can describe
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, md.init_holonomic(RngState(8), 6, 6, 6))
    rewrite_h0_record(path, record)
    with pytest.raises(CorruptionError):
        load_checkpoint(path)
    config = tmp_path / "genlen.ini"
    config.write_text(f"[genlen]\ncheckpoint = {path}\nlengths = 5\n")
    code = cli.main(["genlen", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


def test_checkpoint_with_an_array_stored_twice_is_corrupt(tmp_path):
    # a second, re-signed h0 record of sevens after the saved ones: the
    # layout's set of names still matches, so only the parser can refuse it
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, md.init_holonomic(RngState(8), 6, 6, 6))
    body = bytearray(path.read_bytes()[:-8])
    # magic, version, kind (u16 length + text), meta (u32 length + text), count
    (kind_len,) = struct.unpack_from("<H", body, 8)
    (meta_len,) = struct.unpack_from("<I", body, 10 + kind_len)
    count_at = 14 + kind_len + meta_len
    assert struct.unpack_from("<I", body, count_at) == (3,)
    struct.pack_into("<I", body, count_at, 4)
    body += struct.pack("<H", 2) + b"h0" + struct.pack("<BQ", 1, 6) \
        + np.full(6, 7.0).astype("<f8").tobytes()
    path.write_bytes(bytes(body) + hashlib.blake2b(bytes(body), digest_size=8).digest())
    with pytest.raises(CorruptionError, match="stored twice"):
        load_checkpoint(path)
    config = tmp_path / "horizon.ini"
    config.write_text(f"[horizon]\nt_max = 5\npoints = 2\ncheckpoint = {path}\n")
    code = cli.main(["horizon", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


def run_under_file_limit(script: str, limit: int) -> None:
    """Run `script` in a fresh interpreter whose files may not grow past
    `limit` bytes, so a write past it fails midway (EFBIG), as on a full
    disk; the script must fail so."""
    prelude = f"""
import resource, signal
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, hard))
"""
    src = str(Path(holonet.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", prelude + script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert run.returncode != 0 and "File too large" in run.stderr, run.stderr


def snapshot(directory: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


def test_a_write_failing_midway_keeps_the_previous_checkpoint(tmp_path):
    pytest.importorskip("resource")
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, md.init_holonomic(RngState(8), 6, 6, 6))
    before = snapshot(tmp_path)
    # the next save may not grow a file past half a checkpoint
    run_under_file_limit(f"""
from holonet import models as md
from holonet.checkpoint import save_checkpoint
from holonet.tensor_core import RngState
save_checkpoint({str(path)!r}, md.init_holonomic(RngState(9), 6, 6, 6))
""", len(before["model.ckpt"]) // 2)
    assert snapshot(tmp_path) == before
    load_checkpoint(path)
    assert sorted(before) == ["model.ckpt", "model.ckpt.meta.txt"]


def test_a_sidecar_write_failing_midway_keeps_the_previous_sidecar(tmp_path):
    pytest.importorskip("resource")
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, md.init_holonomic(RngState(8), 6, 6, 6))
    before = snapshot(tmp_path)
    # the same body again, then a sidecar itemizing past the file limit
    run_under_file_limit(f"""
from holonet import models as md
from holonet.checkpoint import save_checkpoint
from holonet.tensor_core import RngState
md.param_count = lambda params: (1, {{"x" * 100000: 1}})
save_checkpoint({str(path)!r}, md.init_holonomic(RngState(8), 6, 6, 6))
""", len(before["model.ckpt"]) + 1000)
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("artifact", ["config.snapshot", "curve.csv", "summary.txt"])
def test_a_run_artifact_write_failing_midway_keeps_the_previous_files(tmp_path, artifact):
    # write_run writes the snapshot, the curve and the summary in that order;
    # the rerun writes the same files before `artifact`, and `artifact` past
    # the file limit
    pytest.importorskip("resource")
    cfg = dataclasses.replace(cli.RunConfig(), out=str(tmp_path))
    rows = [{"step": i, "loss": 1.0 / (i + 1)} for i in range(3)]
    run = cli.write_run(cfg, "train", {"curve.csv": rows}, {"converged": False})
    before = snapshot(run)
    limit = len(before["config.snapshot"]) + 1000
    if artifact == "config.snapshot":
        limit = 16
    many = artifact == "curve.csv"
    long = artifact == "summary.txt"
    run_under_file_limit(f"""
import dataclasses
from holonet import cli
cfg = dataclasses.replace(cli.RunConfig(), out={str(tmp_path)!r})
rows = [{{"step": i, "loss": 1.0 / (i + 1)}} for i in range({limit} if {many} else 3)]
summary = {{"note": "x" * {limit}}} if {long} else {{"converged": False}}
cli.write_run(cfg, "train", {{"curve.csv": rows}}, summary)
""", limit)
    assert snapshot(run) == before
    assert sorted(before) == ["config.snapshot", "curve.csv", "summary.txt"]
