import configparser
from dataclasses import fields, is_dataclass

import pytest

from holonet import cli
from holonet.config import RunConfig, parse_config, render_config
from holonet.errors import ConfigError

# Every (section, key) the INI grammar accepts, with its rendered default.
DEFAULT_SNAPSHOT = {
    "run": {"experiment": "train", "seed": "0", "out": "results", "workers": "1",
            "precision": "64"},
    "model": {"kind": "holonomic", "n": "32", "layers": "3", "heads": "8", "d_ff": "0",
              "positional": "learned", "max_len": "64", "pool": "final",
              "gen_scale": "0.0"},
    "task": {"kind": "s3", "variables": "10"},
    "curriculum": {"kind": "stepwise", "l_min": "1", "l_max": "5", "ramp_start": "1",
                   "ramp_fraction": "0.7", "max_bias": "0.5", "gate_threshold": "1.0"},
    "train": {"steps": "3000", "batch": "64", "lr": "0.001", "beta1": "0.9",
              "beta2": "0.999", "eps": "1e-08", "clip": "1.0", "eval_interval": "25",
              "gate_episodes": "256", "val_episodes": "512", "target_accuracy": "1.0",
              "lr_schedule": "constant", "lr_floor": "0.0001", "early_stop": "True",
              "save": ""},
    "noise": {"t_max": "2.0", "points": "41", "episodes": "512", "threshold": "0.99",
              "length": "5", "checkpoint": ""},
    "scaling": {"widths": "8,16,32,64,128"},
    "genlen": {"lengths": "50,100,200,500,1000,2000,5000", "episodes": "512",
               "checkpoint": ""},
    "horizon": {"t_max": "5000", "points": "24", "method": "both", "fit_min_t": "5",
                "checkpoint": ""},
    "massgap": {"episodes_per_class": "200", "length": "5", "checkpoint": ""},
    "pca": {"temperature": "0.0", "episodes": "1200", "length": "5", "checkpoints": "",
            "tags": ""},
    "bench": {"lengths": "256,1024,4096,16384", "n": "32", "vocab": "6"},
}

# Every key set away from its default (S3 keeps its task kind), written as
# render_config writes it.
S3_EVERY_KEY = {
    "run": {"experiment": "sweep", "seed": "7", "out": "elsewhere", "workers": "2",
            "precision": "32"},
    "model": {"kind": "transformer", "n": "16", "layers": "2", "heads": "4", "d_ff": "24",
              "positional": "sinusoidal", "max_len": "32", "pool": "mean",
              "gen_scale": "0.5"},
    "task": {"kind": "s3", "variables": "4"},
    "curriculum": {"kind": "ramp", "l_min": "2", "l_max": "8", "ramp_start": "3",
                   "ramp_fraction": "0.5", "max_bias": "0.25", "gate_threshold": "0.9"},
    "train": {"steps": "10", "batch": "8", "lr": "0.01", "beta1": "0.8", "beta2": "0.99",
              "eps": "1e-06", "clip": "2.0", "eval_interval": "5", "gate_episodes": "16",
              "val_episodes": "32", "target_accuracy": "0.95", "lr_schedule": "cosine",
              "lr_floor": "1e-05", "early_stop": "False", "save": "s3.npz"},
    "noise": {"t_max": "1.5", "points": "5", "episodes": "16", "threshold": "0.9",
              "length": "4", "checkpoint": "a.npz"},
    "scaling": {"widths": "4,8"},
    "genlen": {"lengths": "10,20", "episodes": "8", "checkpoint": "b.npz"},
    "horizon": {"t_max": "100", "points": "6", "method": "autodiff", "fit_min_t": "2",
                "checkpoint": "c.npz"},
    "massgap": {"episodes_per_class": "10", "length": "3", "checkpoint": "d.npz"},
    "pca": {"temperature": "0.5", "episodes": "60", "length": "4",
            "checkpoints": "e.npz,f.npz", "tags": "low,high"},
    "bench": {"lengths": "64,128", "n": "8", "vocab": "4"},
}

BINDING_EVERY_KEY = {
    "run": {"experiment": "genlen", "seed": "9", "out": "binding", "workers": "3",
            "precision": "32"},
    "model": {"kind": "normalized-rnn", "n": "12", "layers": "1", "heads": "2",
              "d_ff": "16", "positional": "sinusoidal", "max_len": "40", "pool": "mean",
              "gen_scale": "0.25"},
    "task": {"kind": "binding", "variables": "4"},
    "curriculum": {"kind": "ramp", "l_min": "3", "l_max": "12", "ramp_start": "4",
                   "ramp_fraction": "0.6", "max_bias": "0.4", "gate_threshold": "0.8"},
    "train": {"steps": "20", "batch": "16", "lr": "0.002", "beta1": "0.85",
              "beta2": "0.995", "eps": "1e-07", "clip": "0.5", "eval_interval": "10",
              "gate_episodes": "64", "val_episodes": "128", "target_accuracy": "0.9",
              "lr_schedule": "cosine", "lr_floor": "2e-05", "early_stop": "False",
              "save": "binding.npz"},
    "noise": {"t_max": "0.5", "points": "3", "episodes": "32", "threshold": "0.8",
              "length": "6", "checkpoint": "g.npz"},
    "scaling": {"widths": "12"},
    "genlen": {"lengths": "20,30,40", "episodes": "16", "checkpoint": "h.npz"},
    "horizon": {"t_max": "50", "points": "4", "method": "operator-norm",
                "fit_min_t": "3", "checkpoint": "i.npz"},
    "massgap": {"episodes_per_class": "20", "length": "7", "checkpoint": "j.npz"},
    "pca": {"temperature": "0.25", "episodes": "40", "length": "6",
            "checkpoints": "k.npz", "tags": "only"},
    "bench": {"lengths": "32", "n": "4", "vocab": "3"},
}


def as_ini(snapshot: dict) -> str:
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in snapshot.items())


def triples(text: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return {s: dict(parser.items(s)) for s in parser.sections()}


def test_default_render_writes_every_accepted_key():
    assert sum(len(keys) for keys in DEFAULT_SNAPSHOT.values()) == 64
    assert triples(render_config(RunConfig())) == DEFAULT_SNAPSHOT


def test_each_key_alone_parses_to_the_default_config():
    for section, keys in DEFAULT_SNAPSHOT.items():
        for key, value in keys.items():
            assert parse_config(f"[{section}]\n{key} = {value}\n") == RunConfig(), (section, key)


def test_keys_outside_the_accepted_set_are_rejected():
    cfg = RunConfig()
    specs = [cfg] + [getattr(cfg, f.name) for f in fields(cfg)
                     if is_dataclass(getattr(cfg, f.name))]
    names = {f.name for spec in specs for f in fields(spec)}
    names |= {key for keys in DEFAULT_SNAPSHOT.values() for key in keys}
    for section, keys in DEFAULT_SNAPSHOT.items():
        for key in sorted(names - set(keys)):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(f"[{section}]\n{key} = 1\n")


@pytest.mark.parametrize("snapshot", [DEFAULT_SNAPSHOT, S3_EVERY_KEY, BINDING_EVERY_KEY],
                         ids=["default", "s3", "binding"])
def test_render_parse_round_trip(snapshot):
    if snapshot is not DEFAULT_SNAPSHOT:
        differ = {(s, k) for s, keys in snapshot.items() for k, v in keys.items()
                  if v != DEFAULT_SNAPSHOT[s][k]}
        assert len(differ) >= 63
    cfg = parse_config(as_ini(snapshot))
    assert triples(render_config(cfg)) == snapshot
    assert parse_config(render_config(cfg)) == cfg


def test_binding_round_trip_keeps_its_fields():
    cfg = parse_config(as_ini(BINDING_EVERY_KEY))
    assert cfg.task.variables == 4 and cfg.model.pos_mode == "sinusoidal"
    assert cfg.curriculum.ramp_start == 4 and cfg.curriculum.max_len == 4
    assert cfg.save == "binding.npz" and cfg.sweep.points == 3
    assert cfg.genlen.lengths == (20, 30, 40) and cfg.pca.tags == ("only",)
    assert cfg.train.early_stop is False and cfg.train.eps == 1e-7


@pytest.mark.parametrize("text,expected", [
    ("[task]\nkind = binding\n", ("ramp", 5, 50, 10)),
    ("[task]\nkind = binding\n[curriculum]\nl_max = 20\n", ("ramp", 5, 20, 10)),
    # the default ramp_start follows an l_max below it
    ("[task]\nkind = binding\n[curriculum]\nl_max = 8\n", ("ramp", 5, 8, 8)),
    ("[task]\nkind = s3\n", ("stepwise", 1, 5, 1)),
], ids=["binding", "binding-l_max", "binding-l_max-below-ramp_start", "s3"])
def test_curriculum_defaults_follow_the_task(text, expected):
    c = parse_config(text).curriculum
    assert (c.kind, c.l_min, c.l_max, c.ramp_start) == expected


BAD_CONFIGS = {
    "unknown-section": "[runs]\nseed = 1\n",
    "unknown-key": "[run]\nseeds = 1\n",
    "curriculum-max_len": "[curriculum]\nmax_len = 3\n",
    "curriculum-progress": "[curriculum]\nprogress = 0.5\n",
    "run-save": "[run]\nsave = x.npz\n",
    "model-pos_mode": "[model]\npos_mode = learned\n",
    "bad-int": "[train]\nsteps = ten\n",
    "bad-float": "[train]\nlr = fast\n",
    "bad-bool": "[train]\nearly_stop = maybe\n",
    "bad-tuple": "[genlen]\nlengths = 10,x\n",
    "noise-site": "[noise]\nsite = auto\n",
    "ramp-start-below-l_min": "[task]\nkind = binding\n[curriculum]\nramp_start = 2\n",
    "ramp-start-above-l_max": "[task]\nkind = binding\n[curriculum]\nramp_start = 80\n",
    "ramp-fraction-zero": "[curriculum]\nramp_fraction = 0\n",
    "ramp-fraction-above-one": "[curriculum]\nramp_fraction = 1.5\n",
}


@pytest.mark.parametrize("text", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
def test_bad_config_raises_and_exits_config(tmp_path, text):
    with pytest.raises(ConfigError):
        parse_config(text)
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 5\n",
                                  "[DEFAULT]\nseed = 5\n[model]\nn = 8\n"],
                         ids=["alone", "with-section"])
def test_default_section_is_rejected(text):
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        parse_config(text)


@pytest.mark.parametrize("command,text,message", [
    ("train", "[train]\neval_interval = 0\n", "eval_interval"),
    ("train", "[train]\neval_interval = -1\n", "eval_interval"),
    ("sweep", "[noise]\npoints = 1\n", "points"),
    ("train", "[train]\nlr_schedule = cosin\n", "lr_schedule"),
    ("horizon", "[horizon]\npoints = 0\n", "points"),
    ("horizon", "[horizon]\nt_max = 0\n", "t_max"),
    ("genlen", "[genlen]\nlengths =\n", "lengths"),
    ("scaling", "[scaling]\nwidths =\n", "widths"),
    # each below once ended in a traceback, or in a header-only curve
    ("train", "[model]\nn = 0\n", r"\[model\] n "),
    ("train", "[model]\nn = -1\n", r"\[model\] n "),
    ("train", "[model]\nkind = transformer\nheads = 0\n", r"\[model\] heads"),
    ("train", "[model]\nkind = transformer\nlayers = 0\n", r"\[model\] layers"),
    ("train", "[model]\nkind = transformer\nd_ff = -4\n", r"\[model\] d_ff"),
    ("train", "[train]\nbatch = -1\n", r"\[train\] batch"),
    ("train", "[train]\nsteps = 0\n", r"\[train\] steps"),
    ("scan-bench", "[bench]\nn = 0\n", r"\[bench\] n "),
    ("scan-bench", "[bench]\nvocab = 0\n", r"\[bench\] vocab"),
    ("scan-bench", "[bench]\nlengths =\n", r"\[bench\] lengths"),
    # each below once failed only after the work began, naming no key
    ("scaling", "[noise]\nt_max = 0\n", r"\[noise\] t_max"),
    ("sweep", "[noise]\nepisodes = 0\n", r"\[noise\] episodes"),
    ("sweep", "[noise]\nlength = 0\n", r"\[noise\] length"),
    ("genlen", "[genlen]\nepisodes = 0\n", r"\[genlen\] episodes"),
    ("genlen", "[genlen]\nlengths = 5,0\n", r"\[genlen\] lengths"),
    ("massgap", "[massgap]\nepisodes_per_class = 0\n", r"\[massgap\] episodes_per_class"),
    ("massgap", "[massgap]\nlength = 0\n", r"\[massgap\] length"),
    ("pca", "[pca]\nlength = 0\n", r"\[pca\] length"),
    ("pca", "[pca]\nepisodes = 1\n", r"\[pca\] episodes"),
    ("scaling", "[scaling]\nwidths = 8,0\n", r"\[scaling\] widths"),   # was a traceback
    ("scan-bench", "[bench]\nlengths = 0\n", r"\[bench\] lengths"),
], ids=["eval-interval-zero", "eval-interval-negative", "one-point", "lr-schedule",
        "horizon-no-points", "horizon-zero-t-max", "genlen-no-lengths",
        "scaling-no-widths", "model-n-zero", "model-n-negative", "transformer-heads-zero",
        "transformer-layers-zero", "transformer-d-ff-negative",
        "batch-negative", "steps-zero", "bench-n-zero", "bench-vocab-zero",
        "bench-no-lengths", "noise-zero-t-max", "noise-no-episodes", "noise-zero-length",
        "genlen-no-episodes", "genlen-zero-length", "massgap-no-episodes",
        "massgap-zero-length", "pca-zero-length", "pca-one-episode", "scaling-zero-width",
        "bench-zero-length"])
def test_counts_and_schedule_are_validated(tmp_path, command, text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
