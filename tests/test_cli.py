import csv
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from holonet import cli
from holonet import experiments as ex
from holonet import models as md
from holonet.checkpoint import save_checkpoint
from holonet.config import parse_config
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


@pytest.mark.parametrize("command", ["sweep", "genlen", "horizon", "massgap"])
def test_non_finite_operators_exit_numeric(tmp_path, command):
    # finite generators so large that exp(M - M^T) overflows: evaluation must
    # stop with exit 3 instead of scoring NaN logits as class 0
    params = md.init_holonomic(RngState(8), 8, 6, 6)
    params.generators *= 1e300
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(ckpt, params)
    config = tmp_path / "probe.ini"
    config.write_text(f"[noise]\npoints = 2\nepisodes = 4\ncheckpoint = {ckpt}\n"
                      f"[genlen]\nlengths = 5\nepisodes = 4\ncheckpoint = {ckpt}\n"
                      f"[horizon]\nt_max = 5\npoints = 2\ncheckpoint = {ckpt}\n"
                      f"[massgap]\nepisodes_per_class = 2\ncheckpoint = {ckpt}\n")
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_NUMERIC


def test_horizon_of_a_briefly_trained_rnn_exits_ok_and_its_methods_agree(tmp_path):
    # two steps leave w_rec near its orthogonal init, so J(1)'s top two
    # singular values nearly tie: a power iteration there did not converge
    ckpt = tmp_path / "out" / "train" / "seed0" / "model.ckpt"
    config = tmp_path / "rnn.ini"
    config.write_text(f"[model]\nkind = rnn\n[train]\nsteps = 2\n"
                      f"[horizon]\nt_max = 500\ncheckpoint = {ckpt}\n")
    argv = ["--config", str(config), "--out", str(tmp_path / "out")]
    assert cli.main(["train", *argv]) in (cli.EXIT_OK, cli.EXIT_NONCONVERGENCE)
    assert cli.main(["horizon", *argv]) == cli.EXIT_OK
    run = tmp_path / "out" / "horizon" / "seed0"
    curves = [[float(r["J"]) for r in csv.DictReader((run / name).read_text().splitlines())]
              for name in ("curve.csv", "curve_autodiff.csv")]
    assert len(curves[0]) == len(curves[1]) > 1 and curves[0][0] <= 1.0
    # J and the largest gap are both written in full precision
    assert all(abs(a / b - 1.0) <= 1e-9 for a, b in zip(*curves))
    assert cli.read_summary(run / "summary.txt")["method_disagreement_max"] <= 1e-12


def test_a_rerun_leaves_no_curve_of_the_run_it_replaces(tmp_path):
    ckpt = tmp_path / "tiny.ckpt"
    save_checkpoint(ckpt, md.init_holonomic(RngState(8), 8, 6, 6))
    config = tmp_path / "horizon.ini"
    out = tmp_path / "out"
    for method in ("both", "operator-norm"):
        config.write_text(f"[horizon]\nt_max = 5\npoints = 2\nmethod = {method}\n"
                          f"checkpoint = {ckpt}\n")
        assert cli.main(["horizon", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    run = out / "horizon" / "seed0"
    assert sorted(p.name for p in run.iterdir()) == ["config.snapshot", "curve.csv",
                                                     "summary.txt"]


# A tiny S3 model (n = 8, trained to l_max = 2) swept at length 2: every
# value the sweep writes except the resampled bands
PINNED_SWEEP_CURVE = [
    ("0.0", "1.0"), ("0.25", "0.96875"), ("0.5", "0.859375"), ("0.75", "0.59375"),
    ("1.0", "0.546875"), ("1.25", "0.46875"), ("1.5", "0.234375"), ("1.75", "0.328125"),
    ("2.0", "0.3125")]
PINNED_SWEEP_SUMMARY = {"Tc": 0.08000000000000007,
                        "Tc_ci": [0.03200000000000003, 0.27285714285714285],
                        "censored": None}


def test_sweep_of_a_tiny_checkpoint_writes_its_pinned_values(tmp_path):
    config = tmp_path / "tiny.ini"
    out = tmp_path / "out"
    config.write_text("[model]\nn = 8\n[curriculum]\nl_max = 2\n"
                      "[noise]\nlength = 2\npoints = 9\nt_max = 2.0\nepisodes = 64\n"
                      f"checkpoint = {out / 'train' / 'seed0' / 'model.ckpt'}\n")
    for command in ("train", "sweep"):
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    with open(out / "sweep" / "seed0" / "curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["T"], r["acc_mean"]) for r in rows] == PINNED_SWEEP_CURVE
    assert all(r["episodes"] == "64" for r in rows)
    summary = cli.read_summary(out / "sweep" / "seed0" / "summary.txt")
    assert {key: summary[key] for key in PINNED_SWEEP_SUMMARY} == PINNED_SWEEP_SUMMARY
    # every level's band holds its mean; the perfect level's is the point 1
    for r in rows:
        assert float(r["acc_lo"]) <= float(r["acc_mean"]) <= float(r["acc_hi"]), r
    assert (rows[0]["acc_lo"], rows[0]["acc_hi"]) == ("1.0", "1.0")


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "preset"])
def test_cli_import_pins_blas_to_one_thread_unless_set(preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, holonet.cli; print(*(os.environ[v] for v in %r))" % (BLAS_VARS,)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == [preset or "1", "1", "1"]


@pytest.mark.parametrize("kind", [md.HOLONOMIC, md.TRANSFORMER])
def test_genlen_summary_states_accuracy_range_and_lengths_below_chance(tmp_path, kind):
    if kind == md.HOLONOMIC:
        params = md.init_holonomic(RngState(9), 8, 6, 6)
    else:   # a learned table of 8 positions cannot score L = 20
        params = md.init_transformer(RngState(9), 8, 1, 2, 8, 6, 6, max_len=8)
    ckpt = tmp_path / "tiny.ckpt"
    save_checkpoint(ckpt, params)
    config = tmp_path / "genlen.ini"
    config.write_text(f"[genlen]\nlengths = 1,3,20\nepisodes = 24\ncheckpoint = {ckpt}\n")
    out = tmp_path / "out"
    assert cli.main(["genlen", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    run = out / "genlen" / "seed0"
    with open(run / "curve.csv") as fh:
        rows = {int(r["L"]): r for r in csv.DictReader(fh)}
    acc = {n: float(r["acc"]) for n, r in rows.items()}
    summary = cli.read_summary(run / "summary.txt")
    scored = [a for a in acc.values() if not math.isnan(a)]
    assert summary["acc_min"] == min(scored)
    assert summary["acc_max"] == max(scored)
    assert summary["below_chance"] == [n for n, a in acc.items() if a <= 1 / 6]
    assert (rows[20]["note"] == "capacity-exceeded") == (kind == md.TRANSFORMER)
    assert np.isnan(acc[20]) == (kind == md.TRANSFORMER)


def test_genlen_below_chance_takes_the_binding_baseline_per_length(tmp_path):
    # 4-variable binding: the token-blind baseline is 0.5 at L = 1, ~0.28 at
    # L = 3 and ~0.25 at L = 20, not 1/4 everywhere
    task = ex.TaskConfig(kind=ex.BINDING, variables=4)
    ckpt = tmp_path / "tiny.ckpt"
    save_checkpoint(ckpt, md.init_holonomic(RngState(2), 8, 6, 4, 4))
    config = tmp_path / "genlen.ini"
    config.write_text(f"[task]\nkind = binding\nvariables = 4\n[model]\nn = 8\n"
                      f"[genlen]\nlengths = 1,3,20\nepisodes = 48\ncheckpoint = {ckpt}\n")
    out = tmp_path / "out"
    assert cli.main(["genlen", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    run = out / "genlen" / "seed0"
    with open(run / "curve.csv") as fh:
        acc = {int(r["L"]): float(r["acc"]) for r in csv.DictReader(fh)}
    below = [n for n, a in acc.items() if a <= task.trivial_accuracy(n)]
    assert cli.read_summary(run / "summary.txt")["below_chance"] == below
    # this random model beats 1/4 at L = 1 and L = 3 but not their baselines
    # 0.5 and ~0.28 there
    assert acc[1] > 0.25 and acc[3] > 0.25 and below == [1, 3, 20]


def binding_sweep_config(tmp_path, noise=""):
    """A sweep config over a random 10-variable binding checkpoint."""
    ckpt = tmp_path / "binding.ckpt"
    save_checkpoint(ckpt, md.init_holonomic(RngState(3), 10, 45, 10, 10))
    config = tmp_path / "sweep.ini"
    config.write_text(f"[task]\nkind = binding\n[model]\nn = 10\n"
                      f"[noise]\npoints = 2\nepisodes = 8\ncheckpoint = {ckpt}\n{noise}")
    return config


def test_binding_sweep_summary_states_its_chance_baseline(tmp_path):
    out = tmp_path / "out"
    config = binding_sweep_config(tmp_path)
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    chance = cli.read_summary(out / "sweep" / "seed0" / "summary.txt")["chance"]
    # v = 10 at the default [noise] length 5: 1/10 + 9/10 (7/9)^5
    assert chance == pytest.approx(0.1 + 0.9 * (7 / 9) ** 5, abs=1e-6)
    assert round(chance, 2) == 0.36


@pytest.mark.parametrize("threshold", [0.3, ex.TaskConfig(ex.BINDING).trivial_accuracy(5)],
                         ids=["below", "at"])
def test_sweep_threshold_not_above_chance_exits_config(tmp_path, threshold):
    config = binding_sweep_config(tmp_path, f"threshold = {threshold!r}\n")
    code = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


def test_scaling_sweeps_at_the_configured_noise_length(tmp_path, monkeypatch):
    lengths = []
    real_sweep = ex.noise_sweep

    def spy(params, task, grid, episodes, rng, length=5, **kw):
        lengths.append(length)
        return real_sweep(params, task, grid, episodes, rng, length, **kw)

    def converged(model_cfg, task, curriculum, train_cfg, rng):
        params = md.init_holonomic(rng, model_cfg.n, task.vocab, task.n_classes)
        return ex.TrainResult(params, True, 1, 1.0)

    monkeypatch.setattr(ex, "noise_sweep", spy)
    monkeypatch.setattr(ex, "train", converged)
    config = tmp_path / "scaling.ini"
    config.write_text("[noise]\nlength = 7\npoints = 2\nepisodes = 8\n"
                      "[scaling]\nwidths = 8\n")
    code = cli.main(["scaling", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert lengths == [7]


def test_scaling_trains_every_width_with_the_configured_model(tmp_path, monkeypatch):
    # every [model] key reaches training; only n changes from width to width
    seen = []

    def not_converged(model_cfg, task, curriculum, train_cfg, rng):
        seen.append(model_cfg)
        return ex.TrainResult(model_cfg.build(rng, task), False, 1, 0.0)

    monkeypatch.setattr(ex, "train", not_converged)
    text = ("[model]\nkind = transformer\nn = 12\nlayers = 1\nheads = 2\nd_ff = 10\n"
            "positional = sinusoidal\nmax_len = 20\npool = mean\ngen_scale = 0.3\n"
            "[scaling]\nwidths = 8,16\n")
    config = tmp_path / "scaling.ini"
    config.write_text(text)
    code = cli.main(["scaling", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    model = parse_config(text).model
    assert seen == [dataclasses.replace(model, n=8), dataclasses.replace(model, n=16)]
    # a width that did not converge keeps its row, with no T_c, and no fit
    run = tmp_path / "out" / "scaling" / "seed0"
    with open(run / "curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["N"], r["converged"]) for r in rows] == [("8", "False"), ("16", "False")]
    assert all(math.isnan(float(r[k])) for r in rows for k in ("Tc", "Tc_lo", "Tc_hi"))
    summary = cli.read_summary(run / "summary.txt")
    assert summary["excluded"] == [8, 16] and summary["fit"].startswith("refused")
    assert math.isnan(summary["alpha"])


def test_no_subcommand_takes_workers_on_the_command_line():
    # `[run] workers` stays a config key; the flag changed nothing
    parser = cli.build_arg_parser()
    for command in cli._COMMANDS:
        with pytest.raises(SystemExit) as err:
            parser.parse_args([command, "--workers", "2"])
        assert err.value.code == 2


@pytest.mark.parametrize("argv", [[], ["sweeps"], ["train", "genlen"], ["--seed", "1"]],
                         ids=["none", "unknown", "two", "options-only"])
def test_a_missing_or_unknown_command_exits_2(argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2


EVERY_RUN = """[model]
n = 8
[curriculum]
l_max = 2
[train]
steps = 3
batch = 4
eval_interval = 1
gate_episodes = 8
val_episodes = 8
[noise]
points = 2
episodes = 8
checkpoint = {ckpt}
[scaling]
widths = 8,16
[genlen]
lengths = 1,3
episodes = 8
checkpoint = {ckpt}
[horizon]
t_max = 5
points = 3
checkpoint = {ckpt}
[massgap]
episodes_per_class = 4
checkpoint = {ckpt}
[pca]
episodes = 24
checkpoints = {ckpt},{ckpt}
tags = a,b
[bench]
lengths = 8
n = 8
"""
RUNS = ("train", "sweep", "scaling", "genlen", "horizon", "massgap", "pca", "scan-bench")


def same_data(a, b) -> bool:
    """Equal as data, keys in order: NaN equals NaN, and a float only a float."""
    if isinstance(a, dict):
        return type(b) is dict and list(a) == list(b) and all(same_data(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return type(b) is list and len(a) == len(b) and all(map(same_data, a, b))
    if isinstance(a, float):
        return isinstance(b, float) and (a == b or math.isnan(a) and math.isnan(b))
    return type(a) is type(b) and a == b


def test_every_run_reads_back_the_summary_it_wrote_and_report_lists_it(
        tmp_path, monkeypatch, capsys):
    given = {}
    real_write_run = cli.write_run

    def spy(cfg, experiment, curves, summary):
        given[experiment] = summary
        return real_write_run(cfg, experiment, curves, summary)

    monkeypatch.setattr(cli, "write_run", spy)
    out = tmp_path / "out"
    config = tmp_path / "every.ini"
    config.write_text(EVERY_RUN.format(ckpt=out / "train" / "seed0" / "model.ckpt"))
    for command in RUNS:
        code = cli.main([command, "--config", str(config), "--out", str(out)])
        assert code in ((cli.EXIT_OK, cli.EXIT_NONCONVERGENCE) if command == "train"
                        else (cli.EXIT_OK,)), command
    assert sorted(given) == sorted(RUNS)
    for command in RUNS:
        summary = cli.read_summary(out / command / "seed0" / "summary.txt")
        assert (summary.pop("experiment"), list(summary)[0]) == (command, "written")
        del summary["written"]
        assert same_data(given[command], summary), command
    # a width that did not train leaves no T_c to fit: NaN survives the trip
    assert math.isnan(cli.read_summary(out / "scaling" / "seed0" / "summary.txt")["alpha"])
    capsys.readouterr()
    assert cli.main(["report", "--out", str(out)]) == cli.EXIT_OK
    report = capsys.readouterr().out
    assert report == (out / "report.md").read_text()
    for command in RUNS:
        assert f"## {command}\n### seed0\n    experiment: \"{command}\"\n" in report
    assert "curve_autodiff.csv: 3 rows (t,J)" in report


def test_report_on_a_summary_in_the_old_text_format_exits_config(tmp_path):
    run = tmp_path / "genlen" / "seed0"
    run.mkdir(parents=True)
    (run / "summary.txt").write_text("experiment: genlen\nmodel: holonomic\nbelow_chance: none\n")
    assert cli.main(["report", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
