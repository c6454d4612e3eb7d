"""Run-configuration parsing and validation.

Grammar: INI-style sections of `key = value` pairs (configparser syntax,
`#`/`;` comments). Unknown sections or keys are hard errors; every field has
a documented default, so a minimal config like

    [run]
    experiment = train

describes a complete S3 holonomic training run (N=32, stepwise curriculum to
L=5). All randomness derives from [run] seed. Cross-field constraints are
checked before any compute: the binding task requires a state dimension of
at least the variable count, and learned positional tables must cover the
curriculum's maximum length.

The keys are derived from the dataclasses: each section fills one RunConfig
attribute (`_SECTIONS`), and each field of that attribute's dataclass is a
key, parsed by its type hint. A new setting is added to its dataclass only.
Two fields are exceptions: `Curriculum.max_len` and `Curriculum.progress`
are training state and are rejected as keys, and `RunConfig.save` is read
and written under [train].
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from . import models as md
from .errors import ArgumentError, ConfigError
from .experiments import BINDING, S3, ModelConfig, TaskConfig, TrainConfig
from .group_tasks import Curriculum

EXPERIMENTS = ("train", "sweep", "scaling", "genlen", "horizon", "massgap",
               "pca", "scan-bench", "verify", "report")


@dataclass(frozen=True)
class SweepSpec:
    t_max: float = 2.0
    points: int = 41
    episodes: int = 512
    threshold: float = 0.99
    length: int = 5
    checkpoint: str = ""

    def grid(self):
        return [i * self.t_max / (self.points - 1) for i in range(self.points)]


@dataclass(frozen=True)
class ScalingSpec:
    widths: tuple[int, ...] = (8, 16, 32, 64, 128)


@dataclass(frozen=True)
class GenlenSpec:
    lengths: tuple[int, ...] = (50, 100, 200, 500, 1000, 2000, 5000)
    episodes: int = 512
    checkpoint: str = ""


@dataclass(frozen=True)
class HorizonSpec:
    t_max: int = 5000
    points: int = 24
    method: str = "both"   # autodiff | operator-norm | both
    fit_min_t: int = 5
    checkpoint: str = ""

    def grid(self):
        import numpy as np
        g = np.unique(np.geomspace(1, self.t_max, self.points).astype(int))
        return [int(t) for t in g]


@dataclass(frozen=True)
class MassGapSpec:
    episodes_per_class: int = 200
    length: int = 5
    checkpoint: str = ""


@dataclass(frozen=True)
class PcaSpec:
    temperature: float = 0.0
    episodes: int = 1200
    length: int = 5
    checkpoints: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class BenchSpec:
    lengths: tuple[int, ...] = (256, 1024, 4096, 16384)
    n: int = 32
    vocab: int = 6


# Curriculum defaults by task kind, where the config leaves them unset; a
# default ramp_start is capped at the resolved l_max.
_CURRICULUM_DEFAULTS = {
    S3: {"kind": "stepwise", "l_min": 1, "l_max": 5},
    BINDING: {"kind": "ramp", "l_min": 5, "l_max": 50, "ramp_start": 10},
}


@dataclass(frozen=True)
class RunConfig:
    experiment: str = "train"
    seed: int = 0
    out: str = "results"
    workers: int = 1
    precision: int = 64
    model: ModelConfig = ModelConfig()
    task: TaskConfig = TaskConfig()
    curriculum: Curriculum = Curriculum(**_CURRICULUM_DEFAULTS[S3])
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
# Exceptions: Curriculum.max_len and .progress are training state, not
# settings (_STATE); RunConfig.save lives under [train] (_MOVED).
_SECTIONS = {"run": "", "model": "model", "task": "task", "curriculum": "curriculum",
             "train": "train", "noise": "sweep", "scaling": "scaling",
             "genlen": "genlen", "horizon": "horizon", "massgap": "massgap",
             "pca": "pca", "bench": "bench"}
_RENAMED = {("model", "pos_mode"): "positional"}
_STATE = {("curriculum", "max_len"), ("curriculum", "progress")}
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
    """section -> INI key -> (RunConfig attribute, field name, parser)."""
    table = {section: {} for section in _SECTIONS}
    for section, attr in _SECTIONS.items():
        cls = _SPECS[attr] if attr else RunConfig
        hints = get_type_hints(cls)
        for f in fields(cls):
            if (section, f.name) in _STATE or is_dataclass(hints[f.name]) \
                    or (not attr and f.name in _MOVED):
                continue
            key = _RENAMED.get((section, f.name), f.name)
            table[section][key] = (attr, f.name, _parser(hints[f.name]))
    for name, section in _MOVED.items():
        table[section][name] = ("", name, _parser(_SPECS[name]))
    return table


_KEYS = _key_table()


def parse_config(text: str) -> RunConfig:
    """Parse and validate the INI config text into a fully-defaulted RunConfig."""
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
            attr, name, cast = _KEYS[section][key]
            try:
                values[attr][name] = cast(raw)
            except ConfigError:
                raise
            except (TypeError, ValueError) as err:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {raw!r} ({err})") from err
    task_kind = values["task"].get("kind", S3)
    defaults = _CURRICULUM_DEFAULTS.get(task_kind, _CURRICULUM_DEFAULTS[S3])
    curriculum = {**defaults, **values["curriculum"]}
    if "ramp_start" in defaults and "ramp_start" not in values["curriculum"]:
        curriculum["ramp_start"] = min(defaults["ramp_start"], curriculum["l_max"])
    values["curriculum"] = curriculum
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
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{cfg.experiment}'; "
                          f"expected one of {', '.join(EXPERIMENTS)}")
    if cfg.precision not in (32, 64):
        raise ConfigError("precision must be 32 or 64")
    if cfg.seed < 0 or cfg.seed >= 2 ** 64:
        raise ConfigError("seed must fit in 64 bits")
    if cfg.model.kind not in md.PARAMS:
        raise ConfigError(f"unknown model kind '{cfg.model.kind}'")
    counts = {"[run] workers": cfg.workers, "[model] n": cfg.model.n,
              "[train] steps": cfg.train.steps, "[train] batch": cfg.train.batch,
              "[train] eval_interval": cfg.train.eval_interval,
              "[noise] episodes": cfg.sweep.episodes, "[noise] length": cfg.sweep.length,
              "[genlen] episodes": cfg.genlen.episodes,
              "each [genlen] lengths entry": min(cfg.genlen.lengths, default=1),
              "[horizon] t_max": cfg.horizon.t_max, "[horizon] points": cfg.horizon.points,
              "[massgap] episodes_per_class": cfg.massgap.episodes_per_class,
              "[massgap] length": cfg.massgap.length, "[pca] length": cfg.pca.length,
              "each [scaling] widths entry": min(cfg.scaling.widths, default=1),
              "[bench] n": cfg.bench.n, "[bench] vocab": cfg.bench.vocab,
              "each [bench] lengths entry": min(cfg.bench.lengths, default=1)}
    if cfg.model.kind == md.TRANSFORMER:
        counts["[model] heads"] = cfg.model.heads
        counts["[model] layers"] = cfg.model.layers
        if cfg.model.d_ff < 0:
            raise ConfigError(f"[model] d_ff must be >= 0 (0: 2 n), got {cfg.model.d_ff}")
    for key, value in counts.items():
        if value < 1:
            raise ConfigError(f"{key} must be >= 1, got {value}")
    for key, value in {"[noise] points": cfg.sweep.points,
                       "[pca] episodes": cfg.pca.episodes}.items():
        if value < 2:
            raise ConfigError(f"{key} must be >= 2, got {value}")
    if not cfg.sweep.t_max > 0:
        raise ConfigError(f"[noise] t_max must be > 0, got {cfg.sweep.t_max}")
    if cfg.task.kind not in (S3, BINDING):
        raise ConfigError(f"unknown task kind '{cfg.task.kind}'")
    if cfg.task.kind == BINDING and cfg.task.variables < 2:
        raise ConfigError("binding task needs at least 2 variables")
    if cfg.task.kind == BINDING and cfg.model.n < cfg.task.variables:
        raise ConfigError(
            f"state dimension n={cfg.model.n} violates the faithfulness "
            f"condition n >= variables ({cfg.task.variables}) for the "
            "binding task")
    if cfg.model.kind == md.TRANSFORMER and cfg.model.pos_mode == "learned" \
            and cfg.experiment == "train" \
            and cfg.model.max_len < cfg.curriculum.l_max:
        raise ConfigError(
            f"learned positional table (max_len={cfg.model.max_len}) smaller "
            f"than curriculum maximum length {cfg.curriculum.l_max}")
    if cfg.train.lr_schedule not in ("constant", "cosine"):
        raise ConfigError("train lr_schedule must be constant or cosine")
    # a T_c threshold at or below the token-blind accuracy would measure nothing
    chance = cfg.task.trivial_accuracy(cfg.sweep.length) \
        if cfg.experiment in ("sweep", "scaling") else 0.0
    if not chance < cfg.sweep.threshold <= 1:
        raise ConfigError(f"sweep threshold must lie in ({chance:.6g}, 1], above the "
                          f"trivial accuracy at [noise] length {cfg.sweep.length}")
    if cfg.horizon.method not in ("autodiff", "operator-norm", "both"):
        raise ConfigError("horizon method must be autodiff, operator-norm or both")
    lists = {"[genlen] lengths": cfg.genlen.lengths, "[scaling] widths": cfg.scaling.widths,
             "[bench] lengths": cfg.bench.lengths}
    for key, value in lists.items():
        if not value:
            raise ConfigError(f"{key} must not be empty")
    if cfg.experiment == "genlen" and cfg.precision != 64 \
            and any(length > 50 for length in cfg.genlen.lengths):
        raise ConfigError("genlen beyond L=50 requires precision = 64")
    if cfg.pca.checkpoints and cfg.pca.tags \
            and len(cfg.pca.checkpoints) != len(cfg.pca.tags):
        raise ConfigError("pca checkpoints and tags must have equal length")


def render_config(cfg: RunConfig) -> str:
    """Serialize the resolved config back to INI text (the run snapshot)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _KEYS.items():
        parser[section] = {}
        for key, (attr, name, _) in keys.items():
            value = getattr(getattr(cfg, attr) if attr else cfg, name)
            parser[section][key] = ",".join(map(str, value)) if isinstance(value, tuple) \
                else str(value)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
