"""Correctness oracles for the benchmark's outputs.

Each check returns a list of failure messages; an empty list is a pass. Each
re-derives what it checks by a route other than the one under test: the S3
labels come from the point-tracking simulator, operators are exponentiated
through an eigendecomposition instead of the Pade ladder, and scan products
are compared with each other and with the orthogonality they must keep.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from holonet.group_tasks import naive_s3_target

ORTHO_TOL = 1e-10      # operator and holonomy orthogonality defect (Frobenius)
JACOBIAN_TOL = 1e-9    # |J(t) - 1| for orthogonal recurrences
AGREE_TOL = 1e-9       # autodiff vs operator-norm horizon; tree vs sequential


def exp_skew(generators: np.ndarray) -> np.ndarray:
    """exp(M - M^T) per stacked generator, via the Hermitian matrix i(M - M^T)."""
    a = generators - np.swapaxes(generators, -1, -2)
    w, v = np.linalg.eigh(1j * a)
    return np.real(np.einsum("kij,kj,klj->kil", v, np.exp(-1j * w), v.conj()))


def ortho_defect(mats: np.ndarray) -> float:
    """Largest ||U^T U - I||_F over a stack of square matrices."""
    mats = np.asarray(mats, dtype=np.float64).reshape((-1,) + mats.shape[-2:])
    eye = np.eye(mats.shape[-1])
    gram = np.swapaxes(mats, -1, -2) @ mats
    return float(np.max(np.linalg.norm(gram - eye, axis=(-2, -1))))


def s3_episodes(gen: np.random.Generator, count: int, length: int):
    """Fresh S3 token sequences and their labels from the naive simulator."""
    tokens = gen.integers(0, 6, size=(count, length))
    return tokens, np.array([naive_s3_target(row) for row in tokens])


def holonomic_predict(params, tokens: np.ndarray) -> np.ndarray:
    """Predicted S3 class per row of tokens (single readout)."""
    ops = exp_skew(params.generators)
    h = np.repeat(params.h0[None, :], tokens.shape[0], axis=0)
    for t in range(tokens.shape[1]):
        h = np.einsum("bij,bj->bi", ops[tokens[:, t]], h)
    return np.argmax(h @ params.readout[0].T, axis=1)


def check_s3_model(params, tokens, labels) -> list[str]:
    failures = []
    acc = float(np.mean(holonomic_predict(params, tokens) == labels))
    if acc != 1.0:
        failures.append(f"re-scored accuracy {acc:.6f} on {len(labels)} fresh "
                        f"L={tokens.shape[1]} episodes, expected 1.0")
    defect = ortho_defect(params.operators())
    if not defect < ORTHO_TOL:
        failures.append(f"operator orthogonality defect {defect:.3e} >= {ORTHO_TOL}")
    return failures


def check_exit(code, allowed, error: str | None) -> list[str]:
    if error is not None:
        return [f"exception: {error.strip().splitlines()[-1]}"]
    if code not in allowed:
        return [f"exit code {code}, expected one of {sorted(allowed)}"]
    return []


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_summary(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(":")
        if sep and not line.startswith(" "):
            out[key.strip()] = value.strip()
    return out


def check_training_health(kind: str, params, losses) -> list[str]:
    """Finite loss and parameters; holonomic operators still orthogonal."""
    failures = []
    if not losses or not all(math.isfinite(x) for x in losses):
        failures.append(f"loss not finite: {losses}")
    for name, arr in params.to_dict().items():
        if not np.all(np.isfinite(arr)):
            failures.append(f"parameter {name} not finite")
    if kind == "holonomic" and not failures:
        defect = ortho_defect(params.operators())
        if not defect < ORTHO_TOL:
            failures.append(f"operator orthogonality defect {defect:.3e}")
    return failures


def check_sweep(rows: list[dict]) -> list[str]:
    first = rows[0]
    if float(first["T"]) != 0.0 or float(first["acc_mean"]) != 1.0:
        return [f"sweep accuracy at T={first['T']} is {first['acc_mean']}, expected 1.0 at T=0"]
    return []


def check_genlen(rows: list[dict], lengths, episodes: int) -> list[str]:
    got = [(int(r["L"]), int(r["episodes"])) for r in rows]
    want = [(int(length), episodes) for length in lengths]
    return [] if got == want else [f"genlen rows {got}, expected {want}"]


def check_horizon(rows: list[dict], summary: dict) -> list[str]:
    failures = []
    worst = max(abs(float(r["J"]) - 1.0) for r in rows)
    if not worst <= JACOBIAN_TOL:
        failures.append(f"operator-norm J(t) off 1 by {worst:.3e}")
    gap = float(summary.get("method_disagreement_max", "nan"))
    if not gap < AGREE_TOL:
        failures.append(f"method_disagreement_max {gap:.3e} >= {AGREE_TOL}")
    return failures


def check_scan(sequential: np.ndarray, tree: np.ndarray) -> list[str]:
    failures = []
    gap = float(np.linalg.norm(tree - sequential))
    if not gap < AGREE_TOL:
        failures.append(f"tree and sequential products differ by {gap:.3e}")
    for mode, h in (("sequential", sequential), ("tree", tree)):
        drift = ortho_defect(h)
        if not drift < ORTHO_TOL:
            failures.append(f"{mode} orthogonality drift {drift:.3e}")
    return failures
