"""Command-line entry point.

Commands: train, sweep, scaling, genlen, horizon, massgap, pca,
scan-bench, report, verify, each with the same options. Every run reads one
INI config (see config.py for the grammar), optionally overridden by
--seed/--out/--precision, and exits 0 on success, 2 on configuration errors
(and on an unknown command or option), 3 on numeric failures, 4 on training
non-convergence.

A run is data: each command hands `write_run` raw rows and a summary dict,
and it writes `config.snapshot`, the curve CSVs and `summary.txt` under
`<out>/<experiment>/seed<seed>/`, numbers in full precision. `summary.txt`
holds one `key: value` line per entry, the value in JSON (NaN as `NaN`,
None as `null`), and `read_summary` returns the dict that was written.

The models' matrices are small (n <= 128), so BLAS runs one thread unless
the environment says otherwise: parallel runs then do not oversubscribe the
cores.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")   # read when numpy loads, just below

import numpy as np  # noqa: E402

from . import experiments as ex
from . import models as md
from . import scan_engine as se
from .checkpoint import atomic_open, load_checkpoint, save_checkpoint
from .config import RunConfig, parse_config, render_config, validate_config
from .errors import (
    ConfigError,
    ConvergenceError,
    CorruptionError,
    HolonetError,
    NumericError,
)
from .tensor_core import RngState

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NONCONVERGENCE = 4


class NonConvergence(Exception):
    pass


# ------------------------------------------------------------------ run dirs


def run_dir(cfg: RunConfig, experiment: str) -> Path:
    d = Path(cfg.out) / experiment / f"seed{cfg.seed}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def write_run(cfg: RunConfig, experiment: str, curves: dict[str, list[dict]],
              summary: dict) -> Path:
    """Config snapshot, curves and summary, in that order, each replaced whole
    (`atomic_open`). `curves` maps a file name to its rows; a CSV's header is
    its first row's keys."""
    d = run_dir(cfg, experiment)
    with atomic_open(d / "config.snapshot") as fh:
        fh.write(render_config(cfg))
    for name, rows in curves.items():
        with atomic_open(d / name, newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    for stale in d.glob("*.csv"):   # written by the run this one replaces
        if stale.name not in curves:
            stale.unlink()
    entries = {"experiment": experiment,
               "written": time.strftime("%Y-%m-%d %H:%M:%S"), **summary}
    with atomic_open(d / "summary.txt") as fh:
        fh.writelines(f"{key}: {json.dumps(value)}\n" for key, value in entries.items())
    return d


def read_summary(path) -> dict:
    """A `summary.txt` as the dict written, `experiment` and `written` first."""
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(": ")
        try:
            out[key] = json.loads(value)
        except ValueError as err:   # a summary in the text format before JSON values
            raise CorruptionError(f"{path}: not a `key: JSON` line: {line!r}") from err
    return out


def _load_params(path: str):
    if not path:
        raise ConfigError("no checkpoint path configured")
    if not Path(path).exists():
        raise ConfigError(f"checkpoint not found: {path}")
    return load_checkpoint(path)[1]


# ------------------------------------------------------------------ commands


def cmd_train(cfg: RunConfig) -> int:
    rng = RngState(cfg.seed).child(0)
    result = ex.train(cfg.model, cfg.task, cfg.curriculum, cfg.train, rng)
    ckpt = Path(cfg.save) if cfg.save else run_dir(cfg, "train") / "model.ckpt"
    save_checkpoint(ckpt, result.params)
    total, items = md.param_count(result.params)
    write_run(cfg, "train", {"curve.csv": result.log}, {
        "model": cfg.model.kind, "task": cfg.task.kind,
        "converged": result.converged, "steps_used": result.steps_used,
        "final_accuracy": result.final_accuracy, "checkpoint": str(ckpt),
        "parameters": total, "parameters_per_component": dict(sorted(items.items()))})
    if not result.converged:
        raise NonConvergence(
            f"training ended at accuracy {result.final_accuracy:.4f} "
            f"< {cfg.train.target_accuracy} after {result.steps_used} steps")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    """Accuracy per noise level and T_c. Each level's band (acc_lo, acc_hi)
    and T_c's CI come from one paired resample of the episodes, the same
    indices at every level, so the levels' bands are correlated."""
    params = _load_params(cfg.sweep.checkpoint)
    rng = RngState(cfg.seed).child(1)
    sweep = ex.noise_sweep(params, cfg.task, cfg.sweep.grid(),
                           cfg.sweep.episodes, rng, cfg.sweep.length)
    tc = ex.estimate_tc(sweep, cfg.sweep.threshold, rng.child(99))
    rows = [{"T": t, "acc_mean": m, "acc_lo": lo, "acc_hi": hi, "episodes": sweep.episodes}
            for t, m, lo, hi in zip(sweep.grid, sweep.acc_mean, tc.acc_lo, tc.acc_hi)]
    write_run(cfg, "sweep", {"curve.csv": rows}, {
        "model": params.kind, "threshold": cfg.sweep.threshold,
        "chance": cfg.task.trivial_accuracy(cfg.sweep.length),
        "Tc": tc.value, "Tc_ci": [tc.lo, tc.hi], "censored": tc.censored})
    return EXIT_OK


def cmd_scaling(cfg: RunConfig) -> int:
    rng = RngState(cfg.seed).child(2)
    rows = ex.finite_size_scan(cfg.scaling.widths, cfg.task, cfg.curriculum,
                               cfg.train, cfg.sweep.grid(),
                               cfg.sweep.episodes, rng, cfg.sweep.threshold,
                               cfg.model, cfg.sweep.length)
    points = [(r["N"], r["Tc"]) for r in rows if r["converged"]]
    fitted = len(points) >= 3
    nan = float("nan")
    fit = ex.fit_log_scaling(points) if fitted else ex.ScalingFit(nan, nan, nan)
    write_run(cfg, "scaling", {"curve.csv": rows}, {
        "widths": list(cfg.scaling.widths),
        "excluded": [r["N"] for r in rows if not r["converged"]],
        "fit": "ok" if fitted else "refused: fewer than 3 converged widths",
        "alpha": fit.alpha, "beta": fit.beta, "r_squared": fit.r_squared})
    return EXIT_OK


def cmd_genlen(cfg: RunConfig) -> int:
    """Accuracy per configured length. The lengths are prefixes of one batch
    of episodes at the longest length, so the rows of curve.csv share their
    episodes: they are correlated, not independent samples."""
    params = _load_params(cfg.genlen.checkpoint)
    rng = RngState(cfg.seed).child(3)
    rows = ex.length_generalization_eval(params, cfg.task,
                                         cfg.genlen.lengths,
                                         cfg.genlen.episodes, cfg.precision, rng)
    scored = [r["acc"] for r in rows if not np.isnan(r["acc"])]
    write_run(cfg, "genlen", {"curve.csv": rows}, {
        "model": params.kind, "acc_min": min(scored, default=float("nan")),
        "acc_max": max(scored, default=float("nan")),
        "below_chance": [r["L"] for r in rows   # NaN compares False
                         if r["acc"] <= cfg.task.trivial_accuracy(r["L"])]})
    return EXIT_OK


def cmd_horizon(cfg: RunConfig) -> int:
    params = _load_params(cfg.horizon.checkpoint)
    rng = RngState(cfg.seed).child(4)
    grid = cfg.horizon.grid()
    methods = (["operator-norm", "autodiff"] if cfg.horizon.method == "both"
               else [cfg.horizon.method])
    curves = [ex.jacobian_horizon(params, grid, m, rng, cfg.horizon.fit_min_t)
              for m in methods]
    primary = curves[0]
    summary = {"model": params.kind, "method": methods[0], "lambda_max": primary.lambda_max,
               "fit_r_squared": primary.fit_r_squared, "fit_note": primary.note or None}
    if len(curves) == 2:
        summary["method_disagreement_max"] = float(
            np.max(np.abs(primary.j_values - curves[1].j_values)))
    files = {name: [{"t": int(t), "J": j} for t, j in zip(c.t_grid, c.j_values)]
             for name, c in zip(["curve.csv", "curve_autodiff.csv"], curves)}
    write_run(cfg, "horizon", files, summary)
    return EXIT_OK


def cmd_massgap(cfg: RunConfig) -> int:
    params = _load_params(cfg.massgap.checkpoint)
    rng = RngState(cfg.seed).child(5)
    result = ex.mass_gap(params, cfg.task, rng,
                         cfg.massgap.episodes_per_class, cfg.massgap.length)
    rows = [{"class_a": a, "class_b": b, "geodesic": g} for a, b, g in result.geodesics]
    write_run(cfg, "massgap", {"curve.csv": rows}, {
        "model": params.kind, "classes": len(result.centroids), "delta": result.delta,
        "counts": {str(k): v for k, v in sorted(result.counts.items())}})
    return EXIT_OK


def cmd_pca(cfg: RunConfig) -> int:
    if not cfg.pca.checkpoints:
        raise ConfigError("pca needs at least one checkpoint")
    tags = cfg.pca.tags or tuple(f"model{i}" for i in range(len(cfg.pca.checkpoints)))
    entries = [(tag, _load_params(path)) for tag, path in zip(tags, cfg.pca.checkpoints)]
    rng = RngState(cfg.seed).child(6)
    snap = ex.pca_snapshot(entries, cfg.task, cfg.pca.temperature,
                           cfg.pca.episodes, rng, cfg.pca.length)
    rows = [{"model": tag, "class": int(label), "k2_x": p2[0], "k2_y": p2[1],
             "k3_x": p3[0], "k3_y": p3[1], "k3_z": p3[2]}
            for tag in tags
            for label, p2, p3 in zip(snap[tag]["labels"], snap[tag]["k2"], snap[tag]["k3"])]
    write_run(cfg, "pca", {"curve.csv": rows}, {
        "temperature": cfg.pca.temperature,
        "silhouette": {tag: snap[tag]["silhouette"] for tag in tags},
        "notes": {tag: snap[tag]["note"] for tag in tags if "note" in snap[tag]}})
    return EXIT_OK


def cmd_scan_bench(cfg: RunConfig) -> int:
    rng = RngState(cfg.seed).child(7)
    params = md.init_holonomic(rng.child(0), cfg.bench.n, cfg.bench.vocab, 6)
    rows = se.bench_scan(params, cfg.bench.lengths, cfg.workers, rng.child(1),
                         se.ScanPlan(precision=cfg.precision))
    write_run(cfg, "scan-bench", {"curve.csv": rows},
              {"n": cfg.bench.n, "workers": cfg.workers})
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    root = Path(cfg.out)
    if not root.exists():
        raise ConfigError(f"no results directory at {root}")
    lines = ["# Run report", ""]
    for exp_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        runs = sorted(p for p in exp_dir.iterdir() if (p / "summary.txt").exists())
        if not runs:
            continue
        lines.append(f"## {exp_dir.name}")
        for run in runs:
            lines.append(f"### {run.name}")
            summary = read_summary(run / "summary.txt")
            del summary["written"]
            lines += [f"    {key}: {json.dumps(value)}" for key, value in summary.items()]
            for curve in sorted(run.glob("*.csv")):
                body = curve.read_text().splitlines()
                lines.append(f"    {curve.name}: {len(body) - 1} rows ({body[0]})")
            lines.append("")
    report = "\n".join(lines) + "\n"
    with atomic_open(root / "report.md") as fh:
        fh.write(report)
    sys.stdout.write(report)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    from .verify import run_verification
    ok = run_verification(seed=cfg.seed, stream=sys.stdout)
    if not ok:
        raise NumericError("verification suite reported failures")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "sweep": cmd_sweep,
    "scaling": cmd_scaling,
    "genlen": cmd_genlen,
    "horizon": cmd_horizon,
    "massgap": cmd_massgap,
    "pca": cmd_pca,
    "scan-bench": cmd_scan_bench,
    "report": cmd_report,
    "verify": cmd_verify,
}


def build_arg_parser() -> argparse.ArgumentParser:
    """One parser: every command takes the same four options."""
    parser = argparse.ArgumentParser(
        prog="holonet",
        description="gauge-constrained sequence models: training and experiments")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", type=str, default="",
                        help="path to an INI run configuration")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--precision", type=int, default=None, choices=(32, 64))
    return parser


def _resolve_config(args) -> RunConfig:
    if args.config and not Path(args.config).exists():
        raise ConfigError(f"config file not found: {args.config}")
    cfg = parse_config(Path(args.config).read_text()) if args.config else RunConfig()
    overrides = {name: getattr(args, name) for name in ("seed", "out", "precision")
                 if getattr(args, name) is not None}
    cfg = replace(cfg, experiment=args.command, **overrides)
    validate_config(cfg)
    return cfg


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except (NumericError, ConvergenceError) as err:
        print(f"error (numeric): {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except HolonetError as err:     # every other package error: config or input
        print(f"error (config/input): {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergence as err:
        print(f"error (non-convergence): {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
