"""Dense linear-algebra kernels used by every model and experiment.

Everything here is a pure function of its inputs. Matrices and vectors are
plain float64 ndarrays (float32 only as an opt-in training mode elsewhere);
randomness flows through :class:`RngState`, a counter-based stream that can
be split hierarchically so parallel sweeps stay bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ConvergenceError, DimensionError, NumericError

# Pade approximant coefficients and 1-norm switch points for the matrix
# exponential, double precision (Higham's scaling-and-squaring ladder).
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0),
}
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068,
    13: 5.371920351148152,
}


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


def gaussian(rng: RngState, n: int) -> np.ndarray:
    """n i.i.d. standard normal samples, reproducible per (seed, path)."""
    if n < 1:
        raise ArgumentError(f"need n >= 1, got {n}")
    return rng.generator().standard_normal(n)


def _require_square(m: np.ndarray, who: str) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{who}: expected a square matrix, got shape {m.shape}")


def skew(m: np.ndarray) -> np.ndarray:
    """Skew-symmetric part generator A = M - M^T (exactly antisymmetric)."""
    m = np.asarray(m)
    _require_square(m, "skew")
    return m - m.T


def _pade(a: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """U, V of the degree-m diagonal Pade approximant to exp(a)."""
    b = _PADE_COEFFS[degree]
    n = a.shape[0]
    ident = np.eye(n, dtype=a.dtype)
    powers = {0: ident, 2: a @ a}
    top = 6 if degree == 13 else degree - 1
    for p in range(4, top + 1, 2):
        powers[p] = powers[p - 2] @ powers[2]
    if degree == 13:
        a2, a4, a6 = powers[2], powers[4], powers[6]
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
        return u, v
    u = b[1] * ident
    v = b[0] * ident
    for p in range(2, degree + 1, 2):
        v = v + b[p] * powers[p]
    for p in range(2, degree, 2):
        u = u + b[p + 1] * powers[p]
    return a @ u, v


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Pade core.

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
    degree = next((d for d in (3, 5, 7, 9) if norm1 <= _PADE_THETA[d]), 13)
    squarings = 0 if degree < 13 else max(0, int(np.ceil(np.log2(norm1 / _PADE_THETA[13]))))
    u, v = _pade(a / (2.0 ** squarings), degree)
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

    Newton iteration X <- (X + X^-T)/2; quadratic convergence inside the
    ||U^T U - I||_F < 0.5 basin this function requires.
    """
    u = np.asarray(u, dtype=np.float64)
    _require_square(u, "reorthonormalize")
    defect = np.linalg.norm(u.T @ u - np.eye(u.shape[0]))
    if not np.isfinite(defect) or defect >= 0.5:
        raise ConvergenceError(
            f"reorthonormalize: input too far from orthogonal (defect {defect:.3g})",
            best=u)
    x = u
    for _ in range(max_iter):
        if defect < tol:
            return x
        try:
            x = 0.5 * (x + np.linalg.inv(x).T)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError(f"reorthonormalize: singular iterate ({err})", best=x)
        defect = np.linalg.norm(x.T @ x - np.eye(x.shape[0]))
    raise ConvergenceError(
        f"reorthonormalize: no convergence after {max_iter} iterations "
        f"(defect {defect:.3g})", best=x)


def spectral_norm(m: np.ndarray, tol: float = 1e-10,
                  rng: RngState | None = None, max_iter: int = 5000) -> float:
    """Largest singular value via power iteration on M^T M.

    Deterministic: the start vector comes from `rng` (a fixed default
    stream when omitted). Raises ConvergenceError carrying the best
    estimate if the relative change never drops below `tol`.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"spectral_norm: expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericError("spectral_norm: input contains non-finite entries")
    if tol <= 0:
        raise ArgumentError(f"spectral_norm: tol must be > 0, got {tol}")
    if m.size == 0:
        return 0.0
    rng = rng or RngState(0x5eed)
    v = gaussian(rng, m.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        w = m @ v
        sigma_new = float(np.linalg.norm(w))
        if sigma_new == 0.0:
            return 0.0
        v = m.T @ w
        vnorm = np.linalg.norm(v)
        if vnorm == 0.0:
            return 0.0
        v /= vnorm
        if abs(sigma_new - sigma) <= tol * max(sigma_new, 1e-300):
            return sigma_new
        sigma = sigma_new
    raise ConvergenceError(
        f"spectral_norm: no convergence after {max_iter} iterations", best=sigma)


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
