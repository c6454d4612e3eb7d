import dataclasses

import numpy as np
import pytest

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
