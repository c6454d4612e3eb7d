"""Command-line entry point.

Subcommands: train, sweep, scaling, genlen, horizon, massgap, pca,
scan-bench, report, verify. Every run reads one INI config (see config.py
for the grammar), optionally overridden by --seed/--out/--workers/
--precision, writes `config.snapshot`, `curve.csv` and `summary.txt` under
`<out>/<experiment>/seed<seed>/`, and exits 0 on success, 2 on
configuration errors, 3 on numeric failures, 4 on training
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments as ex
from . import models as md
from . import scan_engine as se
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, parse_config, render_config
from .errors import (
    ArgumentError,
    CapacityError,
    ConfigError,
    ConvergenceError,
    CorruptionError,
    DimensionError,
    NumericError,
    VersionError,
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


def write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_run(cfg: RunConfig, experiment: str, header: list[str],
              rows: list[dict], summary_lines: list[str]) -> Path:
    d = run_dir(cfg, experiment)
    (d / "config.snapshot").write_text(render_config(cfg))
    write_csv(d / "curve.csv", header, rows)
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    (d / "summary.txt").write_text(
        "\n".join([f"experiment: {experiment}", f"written: {stamp}"]
                  + summary_lines) + "\n")
    return d


def _load_params(path: str, expect_kind: str | None = None):
    if not path:
        raise ConfigError("no checkpoint path configured")
    if not Path(path).exists():
        raise ConfigError(f"checkpoint not found: {path}")
    kind, params = load_checkpoint(path)
    if expect_kind and kind != expect_kind:
        raise ConfigError(f"checkpoint holds a {kind} model, expected {expect_kind}")
    return kind, params


# ------------------------------------------------------------------ commands


def cmd_train(cfg: RunConfig) -> int:
    rng = RngState(cfg.seed).child(0)
    result = ex.train(cfg.model, cfg.task, cfg.curriculum, cfg.train, rng)
    rows = [{"step": r["step"], "max_len": r["max_len"],
             "loss": f"{r['loss']:.6f}", "grad_norm": f"{r['grad_norm']:.6f}",
             "accuracy": f"{r['accuracy']:.6f}"}
            for r in result.log]
    d = run_dir(cfg, "train")
    ckpt = Path(cfg.save) if cfg.save else d / "model.ckpt"
    save_checkpoint(ckpt, cfg.model.kind, result.params)
    total, items = md.param_count(result.params)
    summary = [
        f"model: {cfg.model.kind}",
        f"task: {cfg.task.kind}",
        f"converged: {result.converged}",
        f"steps_used: {result.steps_used}",
        f"final_accuracy: {result.final_accuracy:.6f}",
        f"checkpoint: {ckpt}",
        f"parameters: {total}",
    ] + [f"  {k}: {v}" for k, v in sorted(items.items())]
    write_run(cfg, "train", ["step", "max_len", "loss", "grad_norm", "accuracy"],
              rows, summary)
    if not result.converged:
        raise NonConvergence(
            f"training ended at accuracy {result.final_accuracy:.4f} "
            f"< {cfg.train.target_accuracy} after {result.steps_used} steps")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    kind, params = _load_params(cfg.sweep.checkpoint)
    rng = RngState(cfg.seed).child(1)
    site = None if cfg.sweep.site == "auto" else cfg.sweep.site
    sweep = ex.noise_sweep(kind, params, cfg.task, cfg.sweep.grid(),
                           cfg.sweep.episodes, rng, cfg.sweep.length, site)
    tc = ex.estimate_tc(sweep, cfg.sweep.threshold, rng.child(99))
    rows = [{"T": f"{t:.6f}", "acc_mean": f"{m:.6f}", "acc_lo": f"{lo:.6f}",
             "acc_hi": f"{hi:.6f}", "episodes": sweep.episodes}
            for t, m, lo, hi in zip(sweep.grid, sweep.acc_mean,
                                    sweep.acc_lo, sweep.acc_hi)]
    summary = [
        f"model: {kind}",
        f"threshold: {cfg.sweep.threshold}",
        f"Tc: {tc.value:.6f}",
        f"Tc_ci: [{tc.lo:.6f}, {tc.hi:.6f}]",
        f"censored: {tc.censored or 'no'}",
    ]
    write_run(cfg, "sweep", ["T", "acc_mean", "acc_lo", "acc_hi", "episodes"],
              rows, summary)
    return EXIT_OK


def cmd_scaling(cfg: RunConfig) -> int:
    rng = RngState(cfg.seed).child(2)
    results = ex.finite_size_scan(cfg.scaling.widths, cfg.task, cfg.curriculum,
                                  cfg.train, cfg.sweep.grid(),
                                  cfg.sweep.episodes, rng, cfg.sweep.threshold,
                                  cfg.model.kind)
    rows = []
    points = []
    flagged = []
    for r in results:
        if r["converged"]:
            tc = r["tc"]
            rows.append({"N": r["N"], "Tc": f"{tc.value:.6f}",
                         "Tc_lo": f"{tc.lo:.6f}", "Tc_hi": f"{tc.hi:.6f}"})
            points.append((r["N"], tc.value))
        else:
            flagged.append(r["N"])
    summary = [f"widths: {','.join(str(n) for n in cfg.scaling.widths)}"]
    if flagged:
        summary.append(f"excluded (non-converged): {flagged}")
    if len(points) >= 3:
        fit = ex.fit_log_scaling(points)
        summary += [f"alpha: {fit.alpha:.6f}", f"beta: {fit.beta:.6f}",
                    f"r_squared: {fit.r_squared:.6f}"]
    else:
        summary.append("fit refused: fewer than 3 converged widths")
    write_run(cfg, "scaling", ["N", "Tc", "Tc_lo", "Tc_hi"], rows, summary)
    return EXIT_OK


def cmd_genlen(cfg: RunConfig) -> int:
    kind, params = _load_params(cfg.genlen.checkpoint)
    rng = RngState(cfg.seed).child(3)
    rows = ex.length_generalization_eval(kind, params, cfg.task,
                                         cfg.genlen.lengths,
                                         cfg.genlen.episodes, cfg.precision, rng)
    out_rows = [{"L": r["L"],
                 "acc": "nan" if np.isnan(r["acc"]) else f"{r['acc']:.6f}",
                 "episodes": r["episodes"], "precision": r["precision"]}
                for r in rows]
    notes = [f"L={r['L']}: {r['note']}" for r in rows if r["note"]]
    summary = [f"model: {kind}"] + (notes or ["all lengths scored"])
    write_run(cfg, "genlen", ["L", "acc", "episodes", "precision"],
              out_rows, summary)
    return EXIT_OK


def cmd_horizon(cfg: RunConfig) -> int:
    kind, params = _load_params(cfg.horizon.checkpoint)
    rng = RngState(cfg.seed).child(4)
    grid = cfg.horizon.grid()
    methods = (["operator-norm", "autodiff"] if cfg.horizon.method == "both"
               else [cfg.horizon.method])
    curves = {m: ex.jacobian_horizon(kind, params, grid, m, rng,
                                     cfg.horizon.fit_min_t) for m in methods}
    primary = curves[methods[0]]
    rows = [{"t": int(t), "J": f"{j:.9e}"}
            for t, j in zip(primary.t_grid, primary.j_values)]
    d = run_dir(cfg, "horizon")
    summary = [f"model: {kind}", f"method: {methods[0]}",
               f"lambda_max: {primary.lambda_max:.6e}",
               f"fit_r_squared: {primary.fit_r_squared:.6f}"]
    if len(methods) == 2:
        other = curves[methods[1]]
        write_csv(d / "curve_autodiff.csv", ["t", "J"],
                  [{"t": int(t), "J": f"{j:.9e}"}
                   for t, j in zip(other.t_grid, other.j_values)])
        gap = float(np.max(np.abs(primary.j_values - other.j_values)))
        summary.append(f"method_disagreement_max: {gap:.3e}")
    write_run(cfg, "horizon", ["t", "J"], rows, summary)
    return EXIT_OK


def cmd_massgap(cfg: RunConfig) -> int:
    kind, params = _load_params(cfg.massgap.checkpoint)
    rng = RngState(cfg.seed).child(5)
    result = ex.mass_gap(kind, params, cfg.task, rng,
                         cfg.massgap.episodes_per_class, cfg.massgap.length)
    labels = sorted(result.centroids)
    rows = []
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            cosang = float(np.clip(result.centroids[a] @ result.centroids[b],
                                   -1.0, 1.0))
            rows.append({"class_a": a, "class_b": b,
                         "geodesic": f"{np.arccos(cosang):.6f}"})
    summary = [f"model: {kind}", f"classes: {len(labels)}",
               f"delta: {result.delta:.6f}"] + \
              [f"  count[{k}]: {v}" for k, v in sorted(result.counts.items())]
    write_run(cfg, "massgap", ["class_a", "class_b", "geodesic"], rows, summary)
    return EXIT_OK


def cmd_pca(cfg: RunConfig) -> int:
    if not cfg.pca.checkpoints:
        raise ConfigError("pca needs at least one checkpoint")
    tags = cfg.pca.tags or tuple(f"model{i}" for i in range(len(cfg.pca.checkpoints)))
    entries = []
    for tag, path in zip(tags, cfg.pca.checkpoints):
        kind, params = _load_params(path)
        entries.append((tag, kind, params))
    rng = RngState(cfg.seed).child(6)
    snap = ex.pca_snapshot(entries, cfg.task, cfg.pca.temperature,
                           cfg.pca.episodes, rng, cfg.pca.length)
    rows = []
    summary = [f"temperature: {cfg.pca.temperature}"]
    for tag in tags:
        entry = snap[tag]
        for label, p2, p3 in zip(entry["labels"], entry["k2"], entry["k3"]):
            rows.append({"model": tag, "class": int(label),
                         "k2_x": f"{p2[0]:.6e}", "k2_y": f"{p2[1]:.6e}",
                         "k3_x": f"{p3[0]:.6e}", "k3_y": f"{p3[1]:.6e}",
                         "k3_z": f"{p3[2]:.6e}"})
        sil = entry["silhouette"]
        summary.append(f"silhouette[{tag}]: "
                       + ("undefined" if sil is None else f"{sil:.4f}"))
        if entry.get("note"):
            summary.append(f"note[{tag}]: {entry['note']}")
    write_run(cfg, "pca", ["model", "class", "k2_x", "k2_y", "k3_x", "k3_y", "k3_z"],
              rows, summary)
    return EXIT_OK


def cmd_scan_bench(cfg: RunConfig) -> int:
    rng = RngState(cfg.seed).child(7)
    params = md.init_holonomic(rng.child(0), cfg.bench.n, cfg.bench.vocab, 6)
    rows = se.bench_scan(params, cfg.bench.lengths, cfg.workers, rng.child(1),
                         se.ScanPlan(precision=cfg.precision))
    out_rows = [{"mode": r["mode"], "N": r["N"], "L": r["L"],
                 "workers": r["workers"], "wall_ms": f"{r['wall_ms']:.3f}",
                 "ortho_drift": f"{r['ortho_drift']:.3e}"} for r in rows]
    write_run(cfg, "scan-bench",
              ["mode", "N", "L", "workers", "wall_ms", "ortho_drift"],
              out_rows, [f"n: {cfg.bench.n}", f"workers: {cfg.workers}"])
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
            for raw in (run / "summary.txt").read_text().splitlines():
                if raw.startswith("written:"):
                    continue
                lines.append(f"    {raw}")
            curve = run / "curve.csv"
            if curve.exists():
                body = curve.read_text().splitlines()
                lines.append(f"    curve.csv: {max(len(body) - 1, 0)} rows "
                             f"({body[0] if body else 'empty'})")
            lines.append("")
    report = "\n".join(lines) + "\n"
    (root / "report.md").write_text(report)
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
    parser = argparse.ArgumentParser(
        prog="holonet",
        description="gauge-constrained sequence models: training and experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default="",
                       help="path to an INI run configuration")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--precision", type=int, default=None, choices=(32, 64))
    return parser


def _resolve_config(args) -> RunConfig:
    from dataclasses import replace

    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {args.config}")
        cfg = parse_config(path.read_text())
    else:
        cfg = RunConfig()
    overrides = {}
    for name in ("seed", "out", "workers", "precision"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    cfg = replace(cfg, experiment=args.command, **overrides)
    from .config import validate_config
    validate_config(cfg)
    return cfg


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, ArgumentError, DimensionError, CapacityError,
            CorruptionError, VersionError) as err:
        print(f"error (config/input): {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, ConvergenceError) as err:
        print(f"error (numeric): {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except NonConvergence as err:
        print(f"error (non-convergence): {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
