import dataclasses
import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holonet
from holonet import checkpoint, cli
from holonet import models as md
from holonet.checkpoint import load_checkpoint, save_checkpoint
from holonet.errors import CorruptionError
from holonet.tensor_core import RngState


def all_kinds():
    yield md.HOLONOMIC, md.init_holonomic(RngState(0), 6, 6, 6)
    yield md.RNN, md.init_rnn(RngState(1), 6, 45, 10, n_queries=10)
    yield md.NORMALIZED_RNN, md.init_rnn(RngState(2), 6, 6, 6)
    for pos_mode in ("learned", "sinusoidal"):
        yield md.TRANSFORMER, md.init_transformer(
            RngState(3), d_model=8, n_layers=2, n_heads=2, d_ff=12, vocab=6,
            n_classes=6, pos_mode=pos_mode, max_len=16)


@pytest.mark.parametrize("index", range(5))
def test_round_trip_every_kind(tmp_path, index):
    kind, params = list(all_kinds())[index]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, kind, params)
    loaded_kind, loaded = load_checkpoint(path)
    assert loaded_kind == kind
    for name, arr in params.to_dict().items():
        assert np.array_equal(loaded.to_dict()[name], arr), name


@dataclasses.dataclass
class WithoutH0(md.HolonomicParams):
    def to_dict(self):
        return {"generators": self.generators, "readout": self.readout}


def save_without_h0(path):
    p = md.init_holonomic(RngState(4), 6, 6, 6)
    save_checkpoint(path, md.HOLONOMIC,
                    WithoutH0(p.n, p.vocab, p.generators, p.h0, p.readout))


def save_wrong_shape(path):
    p = md.init_holonomic(RngState(5), 6, 6, 6)
    p.h0 = np.ones(7)
    save_checkpoint(path, md.HOLONOMIC, p)


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
    save_checkpoint(path, md.TRANSFORMER, p)
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


@pytest.mark.parametrize("field, value", [("n_heads", 0), ("pool", None), ("vocab", "6")])
def test_checkpoint_with_bad_metadata_is_corrupt(tmp_path, monkeypatch, field, value):
    p = md.init_transformer(RngState(7), d_model=8, n_layers=1, n_heads=2, d_ff=12,
                            vocab=6, n_classes=6)
    meta = checkpoint._meta_for(md.TRANSFORMER, p)
    meta[field] = value
    monkeypatch.setattr(checkpoint, "_meta_for", lambda kind, params: meta)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, md.TRANSFORMER, p)
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


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
    save_checkpoint(path, md.HOLONOMIC, md.init_holonomic(RngState(8), 6, 6, 6))
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
    save_checkpoint(path, md.HOLONOMIC, md.init_holonomic(RngState(8), 6, 6, 6))
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
    save_checkpoint(path, md.HOLONOMIC, md.init_holonomic(RngState(8), 6, 6, 6))
    before = snapshot(tmp_path)
    # the next save may not grow a file past half a checkpoint
    run_under_file_limit(f"""
from holonet import models as md
from holonet.checkpoint import save_checkpoint
from holonet.tensor_core import RngState
save_checkpoint({str(path)!r}, md.HOLONOMIC, md.init_holonomic(RngState(9), 6, 6, 6))
""", len(before["model.ckpt"]) // 2)
    assert snapshot(tmp_path) == before
    load_checkpoint(path)
    assert sorted(before) == ["model.ckpt", "model.ckpt.meta.txt"]


def test_a_sidecar_write_failing_midway_keeps_the_previous_sidecar(tmp_path):
    pytest.importorskip("resource")
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, md.HOLONOMIC, md.init_holonomic(RngState(8), 6, 6, 6))
    before = snapshot(tmp_path)
    # the same body again, then a sidecar itemizing past the file limit
    run_under_file_limit(f"""
from holonet import models as md
from holonet.checkpoint import save_checkpoint
from holonet.tensor_core import RngState
md.param_count = lambda params: (1, {{"x" * 100000: 1}})
save_checkpoint({str(path)!r}, md.HOLONOMIC, md.init_holonomic(RngState(8), 6, 6, 6))
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
