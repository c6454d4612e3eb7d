"""Run-configuration parsing and validation.

Grammar: INI-style sections of `key = value` pairs (configparser syntax,
`#`/`;` comments). Unknown sections or keys are hard errors; every field has
a documented default, so a minimal config like

    [run]
    experiment = train

describes a complete S3 holonomic training run (N=32, stepwise curriculum to
L=5). A few defaults follow [task] kind (`_TASK_DEFAULTS`): the curriculum,
and for binding the [scaling] widths and the transformer's [model] pool.
All randomness derives from [run] seed.

The keys are derived from the dataclasses: each section fills one RunConfig
attribute (`_SECTIONS`), and each field of that attribute's dataclass is a
key, parsed by its type hint. A new setting is added to its dataclass only.
One field is an exception: `RunConfig.save` is read and written under [train].

Each key's rule sits on its field as `Annotated` metadata, such as
`lr: Annotated[float, "(0, inf)"]`, in the form that `models.check` reads
for config keys and checkpoint headers alike (an int bound, a tuple of
choices, an interval string, or a list or set of one rule for a tuple).
Paths, the pca tags and `early_stop` have none. A value is checked as it is
read and by `validate_config`, each error naming the key as the file writes
it. The other checks there relate keys: n >= [task] variables for binding
and n divisible by [model] heads for a transformer, for [model] n and each
[scaling] widths entry of a scaling run; a learned positional table as long
as [curriculum] l_max when training; a cosine schedule's [train] lr_floor at
most [train] lr when training; a [noise] threshold above chance; 64-bit
genlen past L = 50; and distinct [pca] tags, one per checkpoint.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields, is_dataclass
from typing import Annotated, get_args, get_origin, get_type_hints

from . import models as md
from .errors import ArgumentError, ConfigError
from .experiments import ModelConfig, TrainConfig
from .group_tasks import BINDING, S3, Curriculum, TaskConfig

EXPERIMENTS = ("train", "sweep", "scaling", "genlen", "horizon", "massgap",
               "pca", "scan-bench", "verify", "report")


@dataclass(frozen=True)
class SweepSpec:
    t_max: Annotated[float, "(0, inf)"] = 2.0
    points: Annotated[int, 2] = 41
    episodes: Annotated[int, 1] = 512
    threshold: Annotated[float, "(0, 1]"] = 0.99
    length: Annotated[int, 1] = 5
    checkpoint: str = ""

    def grid(self):
        return [i * self.t_max / (self.points - 1) for i in range(self.points)]


@dataclass(frozen=True)
class ScalingSpec:
    widths: Annotated[tuple[int, ...], {1}] = (8, 16, 32, 64, 128)


@dataclass(frozen=True)
class GenlenSpec:
    lengths: Annotated[tuple[int, ...], [1]] = (50, 100, 200, 500, 1000, 2000, 5000)
    episodes: Annotated[int, 1] = 512
    checkpoint: str = ""


@dataclass(frozen=True)
class HorizonSpec:
    t_max: Annotated[int, 1] = 5000
    points: Annotated[int, 1] = 24
    method: Annotated[str, ("autodiff", "operator-norm", "both")] = "both"
    fit_min_t: Annotated[int, 1] = 5
    checkpoint: str = ""

    def grid(self):
        import numpy as np
        g = np.unique(np.geomspace(1, self.t_max, self.points).astype(int))
        return [int(t) for t in g]


@dataclass(frozen=True)
class MassGapSpec:
    episodes_per_class: Annotated[int, 1] = 200
    length: Annotated[int, 1] = 5
    checkpoint: str = ""


@dataclass(frozen=True)
class PcaSpec:
    temperature: Annotated[float, "[0, inf)"] = 0.0
    episodes: Annotated[int, 2] = 1200
    length: Annotated[int, 1] = 5
    checkpoints: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class BenchSpec:
    lengths: Annotated[tuple[int, ...], [1]] = (256, 1024, 4096, 16384)
    n: Annotated[int, 1] = 32
    vocab: Annotated[int, 1] = 6


# Section defaults by task kind, where the config leaves them unset; a
# default ramp_start is capped at the resolved l_max. Binding's widths are at
# least its default 10 variables, and its transformer pools by the mean.
_TASK_DEFAULTS = {
    S3: {"curriculum": {"kind": "stepwise", "l_min": 1, "l_max": 5}},
    BINDING: {"curriculum": {"kind": "ramp", "l_min": 5, "l_max": 50, "ramp_start": 10},
              "scaling": {"widths": (16, 32, 64, 128)},
              "model": {"pool": "mean"}},
}


@dataclass(frozen=True)
class RunConfig:
    experiment: Annotated[str, EXPERIMENTS] = "train"
    seed: Annotated[int, f"[0, {2 ** 64})"] = 0
    out: str = "results"
    workers: Annotated[int, 1] = 1
    precision: Annotated[int, (32, 64)] = 64
    model: ModelConfig = ModelConfig()
    task: TaskConfig = TaskConfig()
    curriculum: Curriculum = Curriculum(**_TASK_DEFAULTS[S3]["curriculum"])
    train: TrainConfig = TrainConfig()
    save: str = ""
    sweep: SweepSpec = SweepSpec()
    scaling: ScalingSpec = ScalingSpec()
    genlen: GenlenSpec = GenlenSpec()
    horizon: HorizonSpec = HorizonSpec()
    massgap: MassGapSpec = MassGapSpec()
    pca: PcaSpec = PcaSpec()
    bench: BenchSpec = BenchSpec()


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# INI section -> the RunConfig attribute it fills ("" for RunConfig's own
# fields); a key is named as its field unless _RENAMED says otherwise.
# RunConfig.save lives under [train] (_MOVED).
_SECTIONS = {"run": "", "model": "model", "task": "task", "curriculum": "curriculum",
             "train": "train", "noise": "sweep", "scaling": "scaling",
             "genlen": "genlen", "horizon": "horizon", "massgap": "massgap",
             "pca": "pca", "bench": "bench"}
_RENAMED = {("model", "pos_mode"): "positional"}
_MOVED = {"save": "train"}
_SPECS = get_type_hints(RunConfig)   # field -> type; a section's type is its dataclass


def _parser(hint):
    if hint is bool:
        return _parse_bool
    if get_origin(hint) is tuple:
        cast = get_args(hint)[0]
        return lambda text: tuple(cast(p.strip()) for p in text.split(",") if p.strip())
    return hint


def _key_table() -> dict:
    """section -> INI key -> (RunConfig attribute, field name, parser, rule):
    the rule is the Annotated metadata of the field's type (None: none)."""
    table = {section: {} for section in _SECTIONS}
    for section, attr in _SECTIONS.items():
        cls = _SPECS[attr] if attr else RunConfig
        hints = get_type_hints(cls, include_extras=True)
        for f in fields(cls):
            hint, rule = get_args(hints[f.name]) if get_origin(hints[f.name]) is Annotated \
                else (hints[f.name], None)
            if is_dataclass(hint) or (not attr and f.name in _MOVED):
                continue
            key = _RENAMED.get((section, f.name), f.name)
            table[section][key] = (attr, f.name, _parser(hint), rule)
    for name, section in _MOVED.items():
        table[section][name] = ("", name, _parser(_SPECS[name]), None)
    return table


_KEYS = _key_table()


def parse_config(text: str) -> RunConfig:
    """Parse and validate the INI config text into a fully-defaulted RunConfig.
    Each value meets its key's rule as it is read, before any spec is built."""
    if not text.strip():
        raise ConfigError("empty configuration")
    # default_section="" makes [DEFAULT] an ordinary, and so unknown, section
    # instead of defaults merged into every other section.
    parser = configparser.ConfigParser(strict=True, interpolation=None, default_section="",
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"parse error: {err}") from err
    values = {attr: {} for attr in _SECTIONS.values()}
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            attr, name, cast, rule = _KEYS[section][key]
            try:
                values[attr][name] = cast(raw)
            except ConfigError:
                raise
            except (TypeError, ValueError) as err:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {raw!r} ({err})") from err
            if rule is not None:
                md.check(f"[{section}] {key}", rule, values[attr][name], ConfigError)
    ramp_set = "ramp_start" in values["curriculum"]
    for attr, defaults in _TASK_DEFAULTS[values["task"].get("kind", S3)].items():
        values[attr] = {**defaults, **values[attr]}
    curriculum = values["curriculum"]
    if "ramp_start" in curriculum and not ramp_set:
        curriculum["ramp_start"] = min(curriculum["ramp_start"], curriculum["l_max"])
    specs = {}
    for section, attr in _SECTIONS.items():
        if attr:
            try:
                specs[attr] = _SPECS[attr](**values[attr])
            except ArgumentError as err:
                raise ConfigError(f"invalid [{section}] settings: {err}") from err
    cfg = RunConfig(**values[""], **specs)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Every key's rule, then the constraints that relate two or more keys."""
    for section, keys in _KEYS.items():
        for key, (attr, name, _, rule) in keys.items():
            if rule is not None:
                md.check(f"[{section}] {key}", rule,
                         getattr(getattr(cfg, attr) if attr else cfg, name), ConfigError)
    model, task = cfg.model, cfg.task
    # the state dimensions: [model] n, and each width a scaling run trains
    widths = [(f"[model] n = {model.n}", model.n)]
    if cfg.experiment == "scaling":
        widths += [(f"[scaling] widths entry {n}", n) for n in cfg.scaling.widths]
    for named, n in widths:
        if task.kind == BINDING and n < task.variables:
            raise ConfigError(f"{named} violates the faithfulness condition n >= "
                              f"[task] variables ({task.variables}) for the binding task")
        if model.kind == md.TRANSFORMER and n % model.heads:
            raise ConfigError(f"{named} is not divisible by [model] heads ({model.heads})")
    if model.kind == md.TRANSFORMER and model.pos_mode == "learned" \
            and cfg.experiment in ("train", "scaling") \
            and model.max_len < cfg.curriculum.l_max:
        raise ConfigError(
            f"learned positional table ([model] max_len = {model.max_len}) smaller "
            f"than [curriculum] l_max = {cfg.curriculum.l_max}")
    # a T_c threshold at or below the token-blind accuracy would measure nothing
    if cfg.experiment in ("sweep", "scaling"):
        chance = task.trivial_accuracy(cfg.sweep.length)
        if cfg.sweep.threshold <= chance:
            raise ConfigError(f"[noise] threshold must lie in ({chance:.6g}, 1], above "
                              f"the trivial accuracy at [noise] length {cfg.sweep.length}")
    # a cosine schedule decays from lr to lr_floor; a floor above lr would rise
    if cfg.experiment in ("train", "scaling") and cfg.train.lr_schedule == "cosine" \
            and cfg.train.lr_floor > cfg.train.lr:
        raise ConfigError(f"[train] lr_floor = {cfg.train.lr_floor} lies above [train] lr = "
                          f"{cfg.train.lr}: the cosine schedule would rise")
    if cfg.experiment == "genlen" and cfg.precision != 64 \
            and any(length > 50 for length in cfg.genlen.lengths):
        raise ConfigError("genlen beyond L=50 requires precision = 64")
    # tags name the checkpoints one to one
    tags = cfg.pca.tags
    if tags and (len(tags) != len(cfg.pca.checkpoints) or len(set(tags)) != len(tags)):
        raise ConfigError("[pca] tags must be distinct, one per [pca] checkpoints entry")


def render_config(cfg: RunConfig) -> str:
    """Serialize the resolved config back to INI text (the run snapshot)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _KEYS.items():
        parser[section] = {}
        for key, (attr, name, _, _) in keys.items():
            value = getattr(getattr(cfg, attr) if attr else cfg, name)
            parser[section][key] = ",".join(map(str, value)) if isinstance(value, tuple) \
                else str(value)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
