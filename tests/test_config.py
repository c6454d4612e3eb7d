import configparser
import importlib.util
import math
import re
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from holonet import cli, config
from holonet import models as md
from holonet.config import EXPERIMENTS, RunConfig, parse_config, render_config
from holonet.errors import ArgumentError, ConfigError

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

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
    assert cfg.task.variables == 4 and cfg.model.positional == "sinusoidal"
    assert cfg.curriculum.ramp_start == 4 and cfg.curriculum.top(0, 0) == 4
    assert cfg.train.save == "binding.npz" and cfg.sweep.points == 3
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


# keys whose value may be any string or boolean: paths, names and one switch
UNRULED = {("run", "out"), ("train", "save"), ("train", "early_stop"),
           ("noise", "checkpoint"), ("genlen", "checkpoint"), ("horizon", "checkpoint"),
           ("massgap", "checkpoint"), ("pca", "checkpoints"), ("pca", "tags")}


def test_every_other_key_has_a_rule():
    unruled = {(section, key) for section, keys in config._KEYS.items()
               for key, (_, _, rule) in keys.items() if rule is None}
    assert unruled == UNRULED


def ini_number(value: float) -> str:
    return str(int(value)) if value == int(value) else str(value)


def violations(rule) -> list[str]:
    """INI values that break `rule` (the forms of `models.check`), one for
    each way to break it."""
    if isinstance(rule, (list, set)):
        (entry,) = rule
        bad = ["", *violations(entry)]
        return bad + [f"{entry},{entry}"] if isinstance(rule, set) else bad
    if isinstance(rule, tuple):
        return [str(max(rule) + 1)] if all(type(v) is int for v in rule) else ["nope"]
    if isinstance(rule, int):
        return [str(rule - 1)]
    lo, hi = (float(end) for end in rule[1:-1].split(","))
    bad = []
    if math.isfinite(lo):
        bad.append(ini_number(lo if rule[0] == "(" else lo - 1))
    if math.isfinite(hi):
        bad.append(ini_number(hi if rule[-1] == ")" else hi + 1))
    return bad


@pytest.mark.parametrize("rule,value", [
    (1, True), ("[0, 1]", False), ("(0, inf)", math.nan), ("(0, inf)", math.inf),
    ("[0, 1]", "0.5"), (0, 2.0), (("a", "b"), "c"), ([1], [1]), ([1], ()), ({1}, (2, 2))])
def test_check_refuses_values_of_the_wrong_kind(rule, value):
    with pytest.raises(ArgumentError, match="x must be"):
        md.check("x", rule, value)


RULE_VIOLATIONS = [(section, key, value) for section, keys in config._KEYS.items()
                   for key, (_, _, rule) in keys.items() if rule is not None
                   for value in violations(rule)]


def refused_before_compute(tmp_path, monkeypatch, command: str, text: str) -> int:
    """`holonet <command>`'s exit code on `text`, with every command's body
    replaced by a failing one: a config refused before any compute exits 2."""
    def compute(cfg):
        raise AssertionError(f"{command} started with a config that should be refused")
    monkeypatch.setattr(cli, "_COMMANDS", {name: compute for name in cli._COMMANDS})
    path = tmp_path / "bad.ini"
    path.write_text(text)
    return cli.main([command, "--config", str(path), "--out", str(tmp_path)])


@pytest.mark.parametrize("section,key,value", RULE_VIOLATIONS,
                         ids=[f"{s}-{k}-{v or 'empty'}" for s, k, v in RULE_VIOLATIONS])
def test_each_rule_refuses_a_value_naming_its_key(tmp_path, monkeypatch, section, key,
                                                  value):
    text = f"[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} ")):
        parse_config(text)
    assert refused_before_compute(tmp_path, monkeypatch, "train", text) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command,text,message", [
    ("pca", "[pca]\ncheckpoints = a.ckpt,b.ckpt\ntags = a,a\n", r"\[pca\] tags"),
    ("scaling", "[scaling]\nwidths = 8,16,8\n", r"\[scaling\] widths"),
    ("scaling", "[task]\nkind = binding\n[scaling]\nwidths = 4,8,16\n",
     r"\[scaling\] widths entry 4 .*\[task\] variables"),
    ("scaling", "[model]\nkind = transformer\nmax_len = 4\n",
     r"\[model\] max_len = 4.*\[curriculum\] l_max = 5"),
    ("train", "[model]\nkind = transformer\nn = 30\n", r"\[model\] n = 30 .*\[model\] heads"),
    ("scaling", "[model]\nkind = transformer\nn = 8\nheads = 4\n[scaling]\nwidths = 8,10\n",
     r"\[scaling\] widths entry 10 .*\[model\] heads"),
    # the default lr_floor of 1e-4 lies above this lr: the schedule would rise
    ("train", "[train]\nlr = 1e-5\nlr_schedule = cosine\n",
     r"\[train\] lr_floor = 0.0001 lies above \[train\] lr = 1e-05"),
    ("scaling", "[train]\nlr = 0.01\nlr_schedule = cosine\nlr_floor = 0.02\n",
     r"\[train\] lr_floor = 0.02 lies above"),
], ids=["pca-duplicate-tags", "scaling-duplicate-widths", "scaling-width-below-variables",
        "scaling-learned-table", "transformer-heads", "scaling-transformer-heads",
        "train-cosine-floor-above-lr", "scaling-cosine-floor-above-lr"])
def test_cross_field_checks_cover_every_trained_model(tmp_path, monkeypatch, command, text,
                                                      message):
    with pytest.raises(ConfigError, match=message):
        parse_config(f"[run]\nexperiment = {command}\n{text}")
    assert refused_before_compute(tmp_path, monkeypatch, command, text) == cli.EXIT_CONFIG


def test_genlen_past_length_50_needs_64_bit_inference(tmp_path, monkeypatch):
    # the one guard of genlen's precision: length_generalization_eval trusts it
    run = "[run]\nexperiment = genlen\nprecision = 32\n"
    assert parse_config(run + "[genlen]\nlengths = 20,50\n").precision == 32
    with pytest.raises(ConfigError, match="genlen beyond L=50 requires precision = 64"):
        parse_config(run + "[genlen]\nlengths = 50,51\n")
    assert refused_before_compute(tmp_path, monkeypatch, "genlen",
                                  "[run]\nprecision = 32\n[genlen]\nlengths = 51\n") \
        == cli.EXIT_CONFIG


@pytest.mark.parametrize("task", ["s3", "binding"])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_default_config_holds_for_every_experiment_and_task(experiment, task):
    text = f"[run]\nexperiment = {experiment}\n[task]\nkind = {task}\n"
    assert parse_config(text).experiment == experiment


def benchmark_workloads(monkeypatch):
    """perfbench/workloads.py, loaded from its file beside the modules it
    imports; its dataclasses look their module up while loading."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("benchmark_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
def test_the_benchmark_configs_stay_valid(tmp_path, monkeypatch, tiny):
    wl = benchmark_workloads(monkeypatch)
    runs = [(wl.S3_TINY if tiny else wl.S3_DEFAULT, "train")]
    runs += [(wl.BINDING.format(kind=kind, n=n, steps=steps), "train")
             for kind, n, steps in (wl.BINDING_TINY if tiny else wl.BINDING_MODELS)]
    probe = (wl.PROBE_TINY if tiny else wl.PROBE).format(ckpt=tmp_path / "model.ckpt")
    runs += [(probe, command) for command in wl.PROBES]
    for text, command in runs:
        assert f"experiment = {command}\n" in wl.resolved_config(text, command, 0, tmp_path)
    wl.ScanLong(0, tiny, tmp_path).setup()
