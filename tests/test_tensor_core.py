import math

import numpy as np
import pytest

from holonet.errors import ArgumentError, ConvergenceError, DimensionError, NumericError
from holonet.tensor_core import (
    RngState,
    mat_exp,
    mat_exp_frechet,
    pca_project,
    reorthonormalize,
    skew,
    spectral_norm,
)


def taylor_exp(a, terms=50):
    """Independent oracle: plain truncated Taylor series."""
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def jacobi_svd_max(m, sweeps=60):
    """Independent oracle: largest singular value via cyclic Jacobi on M^T M."""
    a = m.T @ m
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * math.atan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off < 1e-14:
            break
    return math.sqrt(max(0.0, float(np.max(np.diag(a)))))


# ---------------------------------------------------------------- rng


def normals(rng, n):
    return rng.generator().standard_normal(n)


def test_rng_same_seed_identical():
    assert np.array_equal(normals(RngState(7), 32), normals(RngState(7), 32))


def test_rng_different_seed_differs():
    assert not np.array_equal(normals(RngState(7), 32), normals(RngState(8), 32))


def test_rng_child_streams_differ():
    rng = RngState(123)
    assert not np.array_equal(normals(rng.child(0), 16), normals(rng.child(1), 16))


# ---------------------------------------------------------------- skew


def test_skew_zero():
    assert np.array_equal(skew(np.zeros((3, 3))), np.zeros((3, 3)))


def test_skew_forced_2x2():
    a = skew(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(a, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_skew_random_antisymmetric_exact():
    m = RngState(5).generator().standard_normal((5, 5))
    a = skew(m)
    oracle = m - m.T
    assert np.array_equal(a, oracle)
    assert np.array_equal(a + a.T, np.zeros((5, 5)))


def test_skew_rejects_nonsquare():
    with pytest.raises(DimensionError):
        skew(np.zeros((2, 3)))


# ---------------------------------------------------------------- mat_exp


def test_mat_exp_zero_is_identity():
    assert np.allclose(mat_exp(np.zeros((4, 4))), np.eye(4), rtol=0, atol=1e-15)


def test_mat_exp_2d_rotation():
    theta = math.pi / 2
    a = np.array([[0.0, -theta], [theta, 0.0]])
    expected = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(mat_exp(a), expected, rtol=0, atol=1e-14)


def test_mat_exp_matches_taylor_oracle():
    m = RngState(11).generator().standard_normal((8, 8))
    a = skew(m)
    diff = np.linalg.norm(mat_exp(a) - taylor_exp(a), "fro")
    assert diff < 1e-10


def test_mat_exp_large_norm_scaling_path():
    # force the scaling-and-squaring branch
    m = 10.0 * RngState(12).generator().standard_normal((6, 6))
    a = skew(m)
    u = mat_exp(a)
    assert np.linalg.norm(u.T @ u - np.eye(6), "fro") < 1e-12


@pytest.mark.parametrize("scale", [1e300, 1e3])
def test_mat_exp_raises_when_squaring_overflows(scale):
    # finite input whose exponential (or its scaling-and-squaring) overflows
    m = RngState(13).generator().standard_normal((6, 6))
    a = scale * (skew(m) if scale > 1e100 else m)
    with pytest.raises(NumericError):
        mat_exp(a)


def test_mat_exp_rejects_nonsquare():
    with pytest.raises(DimensionError):
        mat_exp(np.zeros((3, 4)))


@pytest.mark.parametrize("n", [2, 8, 32, 128])
def test_mat_exp_skew_gives_special_orthogonal(n):
    m = RngState(100 + n).generator().standard_normal((n, n))
    u = mat_exp(skew(m))
    assert np.linalg.norm(u.T @ u - np.eye(n), "fro") < 1e-12
    sign, _ = np.linalg.slogdet(u)
    assert sign == 1.0


def test_mat_exp_inverse_property():
    for seed in range(5):
        a = skew(RngState(seed).generator().standard_normal((10, 10)))
        prod = mat_exp(a) @ mat_exp(-a)
        assert np.linalg.norm(prod - np.eye(10), "fro") < 1e-11


# ---------------------------------------------------------------- frechet


def test_frechet_at_zero_is_direction():
    e = RngState(3).generator().standard_normal((5, 5))
    expa, l = mat_exp_frechet(np.zeros((5, 5)), e)
    assert np.allclose(expa, np.eye(5), rtol=0, atol=1e-14)
    assert np.allclose(l, e, rtol=0, atol=1e-12)


def test_frechet_zero_direction():
    a = RngState(4).generator().standard_normal((5, 5))
    _, l = mat_exp_frechet(a, np.zeros((5, 5)))
    assert np.array_equal(l, np.zeros((5, 5)))


def test_frechet_matches_finite_differences():
    gen = RngState(42).generator()
    a = gen.standard_normal((4, 4))
    e = gen.standard_normal((4, 4))
    _, l = mat_exp_frechet(a, e)
    eps = 1e-6
    numeric = (mat_exp(a + eps * e) - mat_exp(a - eps * e)) / (2 * eps)
    rel = np.linalg.norm(l - numeric, "fro") / np.linalg.norm(numeric, "fro")
    assert rel < 1e-6


def test_frechet_direction_linearity():
    gen = RngState(43).generator()
    a = gen.standard_normal((5, 5))
    e1 = gen.standard_normal((5, 5))
    e2 = gen.standard_normal((5, 5))
    _, l1 = mat_exp_frechet(a, e1)
    _, l2 = mat_exp_frechet(a, e2)
    _, lmix = mat_exp_frechet(a, 2.0 * e1 - 3.0 * e2)
    assert np.linalg.norm(lmix - (2.0 * l1 - 3.0 * l2), "fro") < 1e-10


def test_frechet_shape_mismatch():
    with pytest.raises(DimensionError):
        mat_exp_frechet(np.zeros((3, 3)), np.zeros((4, 4)))


# ---------------------------------------------------------------- reorthonormalize


def test_reorthonormalize_fixed_point():
    u = mat_exp(skew(RngState(9).generator().standard_normal((6, 6))))
    assert np.linalg.norm(reorthonormalize(u) - u, "fro") < 1e-14


def test_reorthonormalize_scaled_identity():
    assert np.allclose(reorthonormalize(1.01 * np.eye(4)), np.eye(4), rtol=0, atol=1e-13)


def test_reorthonormalize_drifted_product():
    gen = RngState(10).generator()
    u = np.eye(8)
    for _ in range(10_000):
        u = u @ mat_exp(skew(0.1 * gen.standard_normal((8, 8))))
    out = reorthonormalize(u)
    assert np.linalg.norm(out.T @ out - np.eye(8), "fro") < 1e-13


def test_reorthonormalize_idempotent():
    u = mat_exp(skew(RngState(14).generator().standard_normal((7, 7))))
    drifted = u + 1e-3 * RngState(15).generator().standard_normal((7, 7))
    once = reorthonormalize(drifted)
    twice = reorthonormalize(once)
    assert np.linalg.norm(once - twice, "fro") < 1e-13


def test_reorthonormalize_is_the_polar_factor():
    # against the SVD's U V^T, from a defect of 0.3 and from one of 1e-6
    gen = RngState(16).generator()
    u = mat_exp(skew(gen.standard_normal((9, 9))))
    for size in (0.02, 1e-7):
        drifted = u + size * gen.standard_normal((9, 9))
        left, _, right = np.linalg.svd(drifted)
        assert np.max(np.abs(reorthonormalize(drifted) - left @ right)) < 1e-14


def reorthonormalize_reference(u, tol=1e-13, max_iter=30):
    """Newton-Schulz with the identity built by np.eye and the defect taken
    by np.linalg.norm: the formula reorthonormalize computes in place."""
    eye = np.eye(u.shape[0])
    gram = u.T @ u - eye
    defect = np.linalg.norm(gram)
    x = u
    for _ in range(max_iter):
        if defect < tol:
            return x
        x = x - 0.5 * (x @ gram)
        gram = x.T @ x - eye
        defect = np.linalg.norm(gram)
    raise AssertionError("reference did not converge")


def test_reorthonormalize_bits_match_the_eye_and_norm_formula():
    gen = RngState(17).generator()
    u = mat_exp(skew(0.2 * gen.standard_normal((32, 32))))
    for defect in (0.3, 1e-6, 1e-14):
        e = gen.standard_normal((32, 32))
        e += e.T
        e *= 0.5 * defect / np.linalg.norm(e)    # (U (I + E))^T U (I + E) - I ~ 2E
        drifted = u @ (np.eye(32) + e)
        start = np.linalg.norm(drifted.T @ drifted - np.eye(32))
        assert defect / 3 < start < 3 * defect
        expected = reorthonormalize_reference(drifted)
        assert np.array_equal(reorthonormalize(drifted), expected), defect


def test_reorthonormalize_rejects_far_input():
    with pytest.raises(ConvergenceError):
        reorthonormalize(3.0 * np.eye(4))


# ---------------------------------------------------------------- spectral norm


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(9)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_diag():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-10)


def test_spectral_norm_matches_jacobi_oracle():
    m = RngState(21).generator().standard_normal((16, 16))
    mine = spectral_norm(m)
    oracle = jacobi_svd_max(m)
    assert abs(mine - oracle) / oracle < 1e-8


def test_spectral_norm_unitary_invariance():
    gen = RngState(22).generator()
    m = gen.standard_normal((12, 12))
    q = mat_exp(skew(gen.standard_normal((12, 12))))
    a = spectral_norm(m)
    b = spectral_norm(q @ m)
    assert abs(a - b) < 1e-9 * a


def test_spectral_norm_resolves_near_tied_singular_values():
    # sigma_2 / sigma_1 = 0.9996, as in an orthogonally initialized RNN's
    # first Jacobian: a power iteration creeps, and one stopped by its
    # relative change read 6e-8 low here
    gen = RngState(23).generator()
    q1 = mat_exp(skew(gen.standard_normal((12, 12))))
    q2 = mat_exp(skew(gen.standard_normal((12, 12))))
    m = q1 @ np.diag(np.r_[1.0, np.linspace(0.9996, 0.5, 11)]) @ q2
    assert abs(spectral_norm(m) - 1.0) <= 1e-14


def test_spectral_norm_rejects_bad_input():
    with pytest.raises(DimensionError):
        spectral_norm(np.ones(3))
    with pytest.raises(NumericError):
        spectral_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))


# ---------------------------------------------------------------- pca


def test_pca_line_in_3d():
    t = np.linspace(-1, 1, 50)
    direction = np.array([1.0, 2.0, -0.5])
    pts = np.outer(t, direction)
    comps, projected = pca_project(pts, 1)
    unit = direction / np.linalg.norm(direction)
    assert abs(abs(comps[0] @ unit) - 1.0) < 1e-12
    recon = np.array([p[0] * comps[0] for p in projected])
    centered = pts - pts.mean(axis=0)
    assert np.sum((centered - recon) ** 2) < 1e-10


def test_pca_simplex_isotropy():
    # centered unit simplex vertices: covariance has equal nonzero eigenvalues
    pts = np.eye(4)
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / (pts.shape[0] - 1)
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert np.ptp(eigvals[:3]) < 1e-10
    comps, _ = pca_project(pts, 3)
    for c in comps:
        assert c[np.argmax(np.abs(c))] > 0


def test_pca_reconstruction_matches_eigendecomposition():
    pts = RngState(31).generator().standard_normal((100, 8))
    k = 3
    comps, projected = pca_project(pts, k)
    centered = pts - pts.mean(axis=0)
    basis = np.stack(comps, axis=1)
    recon_err = np.sum((centered - np.array(projected) @ basis.T) ** 2)
    # oracle: discarded eigenvalue mass of the covariance, via full SVD
    svals = np.linalg.svd(centered, compute_uv=False)
    oracle = np.sum(svals[k:] ** 2)
    assert recon_err == pytest.approx(oracle, rel=1e-10)


def test_pca_argument_errors():
    with pytest.raises(ArgumentError):
        pca_project(np.zeros((1, 3)), 1)
    with pytest.raises(ArgumentError):
        pca_project(np.zeros((5, 3)), 4)
