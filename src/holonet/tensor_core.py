"""Dense linear-algebra kernels used by every model and experiment.

Everything here is a pure function of its inputs. Matrices and vectors are
plain float64 ndarrays (float32 only as the opt-in inference precision of
`genlen` and `scan-bench`); randomness flows through :class:`RngState`, a
counter-based stream split into one child stream per batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ConvergenceError, DimensionError, NumericError

# Degree-13 diagonal Pade coefficients and its 1-norm bound for the matrix
# exponential, double precision (Higham's scaling and squaring).
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
            960960.0, 16380.0, 182.0, 1.0)
_THETA_13 = 5.371920351148152


@dataclass(frozen=True)
class RngState:
    """Immutable handle on a counter-based random stream.

    The same (seed, path) always yields the same samples; `child` derives
    statistically independent substreams, so work can be parallelized
    without sharing mutable generator state. Building a generator costs
    tens of microseconds, so callers take one stream per batch (a training
    step, an evaluation, a noise level) and draw the whole batch from its
    one generator: the same seed and call give the same bits.
    """

    seed: int
    path: tuple = ()

    def child(self, *keys: int) -> "RngState":
        return RngState(self.seed, self.path + tuple(int(k) for k in keys))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))


def _require_square(m: np.ndarray, who: str) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{who}: expected a square matrix, got shape {m.shape}")


def skew(m: np.ndarray) -> np.ndarray:
    """Skew-symmetric part generator A = M - M^T (exactly antisymmetric)."""
    m = np.asarray(m)
    _require_square(m, "skew")
    return m - m.T


def _pade13(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U, V of the degree-13 diagonal Pade approximant to exp(a)."""
    b = _PADE_13
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    return u, v


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a degree-13 Pade core:
    the independent oracle that the production kernel,
    `grad_engine.skew_exp_kernel`, and the tape's adjoint are checked against.

    For skew-symmetric input the diagonal Pade approximant is orthogonal up
    to roundoff, so exp(A) lands on SO(N) to ~1e-14 Frobenius. Raises
    NumericError on non-finite input and on a result that overflowed.
    """
    a = np.asarray(a, dtype=np.float64)
    _require_square(a, "mat_exp")
    if a.size == 0:
        return a.copy()
    if not np.all(np.isfinite(a)):
        raise NumericError("mat_exp: input contains non-finite entries")
    norm1 = float(np.max(np.sum(np.abs(a), axis=0)))
    if not np.isfinite(norm1):
        raise NumericError("mat_exp: 1-norm overflowed")
    squarings = 0 if norm1 <= _THETA_13 else int(np.ceil(np.log2(norm1 / _THETA_13)))
    u, v = _pade13(a / (2.0 ** squarings))
    # the squarings may overflow; the result check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.linalg.solve(v - u, v + u)
        for _ in range(squarings):
            e = e @ e
    if not np.all(np.isfinite(e)):
        raise NumericError("mat_exp: result is not finite (overflow while squaring)")
    return e


def mat_exp_frechet(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(A) and its Frechet derivative L(A, E).

    Uses the augmented block identity exp([[A, E], [0, A]]) =
    [[exp(A), L(A, E)], [0, exp(A)]], which stays consistent with mat_exp
    by construction.
    """
    a = np.asarray(a, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    _require_square(a, "mat_exp_frechet")
    if e.shape != a.shape:
        raise DimensionError(
            f"mat_exp_frechet: direction shape {e.shape} != matrix shape {a.shape}")
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n), dtype=np.float64)
    block[:n, :n] = a
    block[:n, n:] = e
    block[n:, n:] = a
    big = mat_exp(block)
    return big[:n, :n], big[:n, n:]


def reorthonormalize(u: np.ndarray, tol: float = 1e-13, max_iter: int = 30) -> np.ndarray:
    """Nearest orthogonal matrix to a near-orthogonal input (polar factor).

    Newton-Schulz iteration X <- X - X (X^T X - I) / 2; quadratic convergence
    inside the ||U^T U - I||_F < 0.5 basin this function requires.
    """
    u = np.asarray(u, dtype=np.float64)
    _require_square(u, "reorthonormalize")
    step = u.shape[0] + 1   # the diagonal's stride in the flat Gram matrix

    def gram_defect(x):
        # X^T X - I and its Frobenius norm, the ddot np.linalg.norm runs
        gram = x.T @ x
        flat = gram.ravel()
        flat[::step] -= 1.0
        return gram, math.sqrt(flat @ flat)

    gram, defect = gram_defect(u)
    if not np.isfinite(defect) or defect >= 0.5:
        raise ConvergenceError(
            f"reorthonormalize: input too far from orthogonal (defect {defect:.3g})",
            best=u)
    x = u
    for _ in range(max_iter):
        if defect < tol:
            return x
        x = x - 0.5 * (x @ gram)
        gram, defect = gram_defect(x)
    raise ConvergenceError(
        f"reorthonormalize: no convergence after {max_iter} iterations "
        f"(defect {defect:.3g})", best=x)


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value of a matrix, exactly, by LAPACK's SVD. The top
    two singular values of an orthogonally initialized RNN's early Jacobians
    nearly tie, which an iterative estimate resolves slowly or not at all."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"spectral_norm: expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericError("spectral_norm: input contains non-finite entries")
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def pca_project(points, k: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Top-k principal components and per-point projected coordinates.

    Components are eigenvectors of the mean-centered covariance, descending
    eigenvalue order, sign fixed so each component's largest-magnitude entry
    is positive.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ArgumentError("pca_project: need at least 2 points")
    dim = pts.shape[1]
    if not 1 <= k <= dim:
        raise ArgumentError(f"pca_project: k={k} out of range [1, {dim}]")
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / (pts.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    comps = []
    for idx in order:
        vec = eigvecs[:, idx]
        if vec[np.argmax(np.abs(vec))] < 0:
            vec = -vec
        comps.append(vec)
    basis = np.stack(comps, axis=1)
    projected = centered @ basis
    return comps, [projected[i] for i in range(pts.shape[0])]
