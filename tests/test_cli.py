import csv
import math

import pytest

from holonet import cli
from holonet import experiments as ex
from holonet import models as md
from holonet.checkpoint import save_checkpoint
from holonet.errors import NumericError
from holonet.group_tasks import Curriculum
from holonet.tensor_core import RngState

TINY_TRAIN = """[model]
kind = {kind}
n = 8
[curriculum]
l_max = 2
[train]
steps = 3
batch = 4
lr = {lr}
eval_interval = 1
gate_episodes = 8
val_episodes = 8
"""


def run_train(tmp_path, kind=md.HOLONOMIC, lr=1e-3):
    config = tmp_path / "train.ini"
    config.write_text(TINY_TRAIN.format(kind=kind, lr=lr))
    out = tmp_path / "out"
    return cli.main(["train", "--config", str(config), "--out", str(out)]), out


def test_train_curve_logs_finite_pre_clip_gradient_norm(tmp_path):
    code, out = run_train(tmp_path)
    assert code in (cli.EXIT_OK, cli.EXIT_NONCONVERGENCE)
    with open(out / "train" / "seed0" / "curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["step", "max_len", "loss", "grad_norm", "accuracy"]
    assert len(rows) == 3
    assert all(math.isfinite(float(r["grad_norm"])) and float(r["grad_norm"]) > 0
               for r in rows)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_exits_numeric(tmp_path):
    code, out = run_train(tmp_path, lr=1e300)
    assert code == cli.EXIT_NUMERIC


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", [md.HOLONOMIC, md.TRANSFORMER])
def test_train_raises_on_non_finite_loss_or_gradient(kind):
    # the holonomic run overflows its gradient norm, the transformer its loss
    cfg = ex.TrainConfig(steps=3, batch=4, lr=1e300, eval_interval=10)
    with pytest.raises(NumericError):
        ex.train(ex.ModelConfig(kind=kind, n=8, layers=1, heads=2), ex.TaskConfig(),
                 Curriculum(kind="stepwise", l_min=1, l_max=2), cfg, RngState(7))


@pytest.mark.parametrize("command", ["sweep", "genlen", "massgap"])
def test_non_finite_operators_exit_numeric(tmp_path, command):
    # finite generators so large that exp(M - M^T) overflows: evaluation must
    # stop with exit 3 instead of scoring NaN logits as class 0
    params = md.init_holonomic(RngState(8), 8, 6, 6)
    params.generators *= 1e300
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(ckpt, md.HOLONOMIC, params)
    config = tmp_path / "probe.ini"
    config.write_text(f"[noise]\npoints = 2\nepisodes = 4\ncheckpoint = {ckpt}\n"
                      f"[genlen]\nlengths = 5\nepisodes = 4\ncheckpoint = {ckpt}\n"
                      f"[massgap]\nepisodes_per_class = 2\ncheckpoint = {ckpt}\n")
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_NUMERIC
