import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from holonet import experiments as ex
from holonet import grad_engine as ge
from holonet import models as md
from holonet.config import parse_config
from holonet.errors import ArgumentError, CapacityError, ConfigError
from holonet.group_tasks import (
    BINDING,
    Curriculum,
    TaskConfig,
    naive_binding_target,
    naive_s3_target,
)
from holonet.tensor_core import RngState, mat_exp, skew


def row_label(params, tokens):
    """Predicted label of one S3 token sequence, a one-row forward_batch."""
    return int(np.argmax(md.forward_batch(params, [tokens])[1][0]))


def synthetic_sweep(acc_per_t, episodes=400, seed=0):
    grid = np.linspace(0, 1.0, len(acc_per_t))
    probs = np.asarray(acc_per_t, dtype=float)
    draws = RngState(seed).generator().random((len(acc_per_t), episodes))
    return ex.SweepResult(grid, draws < probs[:, None])


# ---------------------------------------------------------------- estimate_tc


def test_tc_all_pass_right_censored():
    sweep = synthetic_sweep([1.0] * 6)
    tc = ex.estimate_tc(sweep, 0.99, RngState(1))
    assert tc.value == sweep.grid[-1]
    assert tc.censored == "right"


def test_tc_all_fail_flagged_zero():
    sweep = synthetic_sweep([0.1] * 6)
    tc = ex.estimate_tc(sweep, 0.99, RngState(2))
    assert tc.value == 0.0
    assert tc.censored == "all-fail"


def test_tc_step_curve_within_grid_spacing():
    probs = [1.0 if t < 0.3 else 1.0 / 6.0 for t in np.linspace(0, 1.0, 11)]
    sweep = synthetic_sweep(probs, episodes=600)
    tc = ex.estimate_tc(sweep, 0.99, RngState(3))
    assert abs(tc.value - 0.3) <= 0.1 + 1e-12
    assert tc.lo <= tc.value <= tc.hi


def test_tc_monotone_in_pointwise_accuracy():
    base = synthetic_sweep([1.0, 1.0, 0.8, 0.5, 0.2, 0.1], seed=5)
    better_outcomes = base.outcomes.copy()
    flip = RngState(6).generator().random(better_outcomes.shape) < 0.3
    better_outcomes |= flip  # only adds successes
    better = ex.SweepResult(base.grid, better_outcomes)
    t_base = ex.estimate_tc(base, 0.99, RngState(7)).value
    t_better = ex.estimate_tc(better, 0.99, RngState(7)).value
    assert t_better >= t_base


def loop_tc(sweep, threshold, rng, bootstrap=1000):
    """(value, censored, lo, hi, acc_lo, acc_hi) by estimate_tc's rule, the
    value and every bootstrap sample the largest level whose mean clears the
    threshold, and each level's band the percentiles of its resampled means,
    one sample per loop step: the oracle for its vectorized form."""
    grid = sweep.grid

    def plugin(acc, qualifies):
        if not qualifies.any():
            return 0.0, "all-fail"
        i = int(np.max(np.nonzero(qualifies)[0]))
        if i == grid.size - 1:
            return float(grid[-1]), "right"
        if acc[i] <= threshold:
            return float(grid[i]), None
        if acc[i + 1] >= threshold:
            return float(grid[i + 1]), None
        frac = (acc[i] - threshold) / (acc[i] - acc[i + 1])
        return float(grid[i] + frac * (grid[i + 1] - grid[i])), None

    value, censored = plugin(sweep.acc_mean, sweep.acc_mean >= threshold)
    gen = rng.generator()
    n = sweep.outcomes.shape[1]
    samples = np.empty(bootstrap)
    means = np.empty((sweep.grid.size, bootstrap))
    for b in range(bootstrap):
        acc = sweep.outcomes[:, gen.integers(0, n, size=n)].mean(axis=1)
        samples[b], _ = plugin(acc, acc >= threshold)
        means[:, b] = acc
    lo, hi = np.percentile(samples, [2.5, 97.5])
    acc_lo, acc_hi = np.array([np.percentile(level, [2.5, 97.5]) for level in means]).T
    return value, censored, float(lo), float(hi), acc_lo, acc_hi


TC_SWEEPS = {
    "all-pass": ([1.0] * 6, 64),
    "all-fail": ([0.1] * 6, 64),
    "step": ([1.0 if t < 0.3 else 1.0 / 6.0 for t in np.linspace(0, 1.0, 11)], 600),
    "decay": ([1.0, 1.0, 0.8, 0.5, 0.2, 0.1], 64),
    "gentle": ([1.0, 0.999, 0.995, 0.99, 0.97, 0.9, 0.6], 301),
    "last-dips": ([1.0, 1.0, 1.0, 1.0, 0.985], 400),
}


@pytest.mark.parametrize("name", sorted(TC_SWEEPS))
@pytest.mark.parametrize("threshold", [0.9, 0.99, 1.0])
def test_tc_bootstrap_matches_the_per_sample_loop_bit_for_bit(name, threshold):
    probs, episodes = TC_SWEEPS[name]
    sweep = synthetic_sweep(probs, episodes=episodes, seed=len(name))
    tc = ex.estimate_tc(sweep, threshold, RngState(8))
    value, censored, lo, hi, acc_lo, acc_hi = loop_tc(sweep, threshold, RngState(8))
    assert (tc.value, tc.censored, tc.lo, tc.hi) == (value, censored, lo, hi)
    assert np.array_equal(tc.acc_lo, acc_lo) and np.array_equal(tc.acc_hi, acc_hi)


@pytest.mark.parametrize("name", sorted(TC_SWEEPS))
@pytest.mark.parametrize("threshold", [0.9, 0.99, 1.0])
def test_tc_ci_holds_its_value(name, threshold):
    # the value and every bootstrap resample take one rule
    probs, episodes = TC_SWEEPS[name]
    sweep = synthetic_sweep(probs, episodes=episodes, seed=len(name))
    tc = ex.estimate_tc(sweep, threshold, RngState(8))
    assert tc.lo <= tc.value <= tc.hi
    assert np.all((tc.acc_lo <= sweep.acc_mean) & (sweep.acc_mean <= tc.acc_hi))


def test_tc_threshold_validation():
    sweep = synthetic_sweep([1.0, 0.5])
    for threshold in (1.5, 0.0, -0.1):
        with pytest.raises(ArgumentError, match=r"threshold must lie in \(0, 1\]"):
            ex.estimate_tc(sweep, threshold)


def test_sweep_result_validation():
    with pytest.raises(ArgumentError):
        ex.SweepResult(np.array([0.0, 0.0]), np.ones((2, 4), dtype=bool))


def test_sweep_result_derives_its_means_and_episodes_from_its_outcomes():
    sweep = synthetic_sweep([1.0, 0.5, 0.1], episodes=40)
    assert sweep.episodes == 40
    assert np.array_equal(sweep.acc_mean, np.count_nonzero(sweep.outcomes, axis=1) / 40)


# ---------------------------------------------------------------- scaling fit


def test_fit_exact_recovery():
    pts = [(n, 0.2 * math.log(n) + 0.1) for n in (8, 16, 32, 64, 128)]
    fit = ex.fit_log_scaling(pts)
    assert fit.alpha == pytest.approx(0.2, abs=1e-12)
    assert fit.beta == pytest.approx(0.1, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_zero_alpha():
    fit = ex.fit_log_scaling([(8, 0.5), (16, 0.5), (32, 0.5)])
    assert fit.alpha == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 0.0


def test_fit_noisy_recovery_within_3_sigma():
    gen = RngState(8).generator()
    ns = [8, 16, 32, 64, 128]
    alphas = []
    for _ in range(200):
        pts = [(n, 0.2 * math.log(n) + 0.1 + 0.01 * gen.standard_normal())
               for n in ns]
        alphas.append(ex.fit_log_scaling(pts).alpha)
    spread = np.std(alphas)
    assert abs(np.mean(alphas) - 0.2) < 3 * spread / math.sqrt(len(alphas)) + 1e-6


def test_fit_affine_equivariance():
    pts = [(8, 0.31), (16, 0.45), (32, 0.52), (64, 0.66)]
    fit = ex.fit_log_scaling(pts)
    scaled = ex.fit_log_scaling([(n, 3.0 * t) for n, t in pts])
    assert scaled.alpha == pytest.approx(3.0 * fit.alpha, rel=1e-12)
    assert scaled.beta == pytest.approx(3.0 * fit.beta, rel=1e-12)


def test_fit_rejects_bad_designs():
    with pytest.raises(ArgumentError):
        ex.fit_log_scaling([(8, 0.1), (16, 0.2)])
    with pytest.raises(ArgumentError):
        ex.fit_log_scaling([(8, 0.1), (8, 0.2), (16, 0.3)])


def test_duplicate_widths_are_refused_by_the_widths_rule_and_the_fit():
    # finite_size_scan takes its widths as given: a scaling config's widths
    # rule refuses a repeat, and the fit refuses a repeated N from code
    with pytest.raises(ConfigError, match=r"\[scaling\] widths"):
        parse_config("[scaling]\nwidths = 8,16,8\n")
    with pytest.raises(ArgumentError, match="duplicate N"):
        ex.fit_log_scaling([(8, 0.1), (16, 0.2), (8, 0.3)])


# ---------------------------------------------------------------- horizon


def test_horizon_contractive_linear_rnn_is_exact():
    # zero trajectory keeps tanh' = 1, so J(t) = 0.5^t exactly
    n = 6
    p = md.RnnParams(n, 6, 0.5 * np.eye(n), np.zeros((6, n)), np.zeros(n),
                     np.zeros((1, 6, n)))
    for method in ("operator-norm", "autodiff"):
        curve = ex.jacobian_horizon(p, [1, 2, 5, 10, 20], method,
                                    RngState(9))
        expected = 0.5 ** curve.t_grid
        assert np.allclose(curve.j_values, expected, rtol=1e-9)
    assert curve.lambda_max == pytest.approx(math.log(0.5), rel=1e-6)
    assert curve.fit_r_squared > 0.999999


def test_horizon_holonomic_unity_both_methods():
    p = md.init_holonomic(RngState(10), 12, 6, 6)
    grid = [1, 5, 20, 100, 400]
    op = ex.jacobian_horizon(p, grid, "operator-norm", RngState(11))
    ad = ex.jacobian_horizon(p, grid, "autodiff", RngState(11))
    assert np.all(np.abs(op.j_values - 1.0) < 1e-6)
    assert np.all(np.abs(ad.j_values - 1.0) < 1e-6)
    assert np.max(np.abs(op.j_values - ad.j_values)) < 1e-6


@pytest.mark.parametrize("method", ["operator-norm", "autodiff"])
def test_horizon_fit_ignores_rounding_in_orthogonal_operators(method, monkeypatch):
    # J(t) = 1 to rounding for orthogonal operators: the summary must not
    # move when the operators move by 1e-15
    p = md.init_holonomic(RngState(10), 32, 6, 6)
    grid = sorted({int(t) for t in np.geomspace(1, 1000, 12)})
    ops = p.operators()

    def summary(operators):
        monkeypatch.setattr(md.HolonomicParams, "operators", lambda self: operators)
        curve = ex.jacobian_horizon(p, grid, method, RngState(11))
        return curve.lambda_max, curve.fit_r_squared, curve.note, curve.j_values

    lam, r2, note, j = summary(ops)
    assert (lam, note) == (0.0, "flat") and math.isnan(r2)
    noise = 1e-15 * RngState(12).generator().standard_normal(ops.shape)
    lam2, r2b, note2, j2 = summary(ops + noise)
    assert not np.array_equal(j, j2)    # the rounding did reach J(t)
    assert (lam2, note2) == (lam, note) and math.isnan(r2b)


# J(t) of the autodiff horizon when its tape differentiated through mat_exp
# nodes of the generators; the reverse sweep through the operators must
# reproduce it
PARENT_AUTODIFF_J = [1.0, 0.9999999999999998, 0.9999999999999978,
                     0.9999999999999916, 0.9999999999999686]

# The exact spectral norms of the autodiff Jacobians that a tape of matvec,
# embed, tanh and unit nodes built for `random_recurrent(kind, 0)` over
# grid [1, 2, 5, 20, 60] and RngState(2)'s tokens, before the horizon swept
# the training step adjoints; the sweep gives the same Jacobians bit for bit
TAPE_AUTODIFF_J = {
    md.RNN: [0.9996746963205629, 0.9586194692443456, 0.48450688670578806,
             0.005001557800771555, 1.0334871861521242e-07],
    md.NORMALIZED_RNN: [0.6497832216384786, 0.3887478218482494, 0.042891039328052924,
                        4.0006058793450277e-07, 4.6132388676880435e-20],
}


def test_horizon_autodiff_reproduces_generator_graph_without_mat_exp(monkeypatch):
    tapes = []

    class RecordingTape(ge.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(ge, "Tape", RecordingTape)
    p = md.init_holonomic(RngState(10), 12, 6, 6)
    p.generators *= 3.0
    curve = ex.jacobian_horizon(p, [1, 5, 20, 100, 400], "autodiff",
                                RngState(11))
    assert np.max(np.abs(curve.j_values - PARENT_AUTODIFF_J)) <= 1e-12
    assert tapes == []      # the sweep runs the step adjoints, on no tape


def random_recurrent(kind, seed, n=12):
    """A random model with non-zero inputs and bias, so tanh' varies per step."""
    if kind == md.HOLONOMIC:
        p = md.init_holonomic(RngState(seed), n, 6, 6)
        p.generators *= 3.0
        return p
    p = md.init_rnn(RngState(seed), n, 6, 6, normalized=kind == md.NORMALIZED_RNN)
    p.bias = 0.3 * RngState(seed + 1).generator().standard_normal(n)
    return p


@pytest.mark.parametrize("kind", [md.RNN, md.NORMALIZED_RNN])
def test_horizon_autodiff_matches_the_tape_jacobians(kind, monkeypatch):
    # seed 0's orthogonal w_rec ties the top two singular values at t = 1
    # (sigma_2 / sigma_1 = 0.9996), which a power iteration cannot resolve
    calls = []
    adjoint = ge.rnn_step_adjoint
    monkeypatch.setattr(ge, "rnn_step_adjoint", lambda *a: calls.append(1) or adjoint(*a))
    curve = ex.jacobian_horizon(random_recurrent(kind, 0), [1, 2, 5, 20, 60],
                                "autodiff", RngState(2))
    assert len(calls) == 1 + 2 + 5 + 20 + 60
    assert np.max(np.abs(curve.j_values / TAPE_AUTODIFF_J[kind] - 1.0)) <= 1e-12


@pytest.mark.parametrize("kind", [md.RNN, md.NORMALIZED_RNN])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_horizon_runs_on_orthogonally_initialized_rnns(kind, seed):
    # init_rnn's orthogonal w_rec: J(1) has near-tied top singular values
    p = md.init_rnn(RngState(seed), 32, 6, 6, normalized=kind == md.NORMALIZED_RNN)
    grid = np.unique(np.geomspace(1, 300, 12).astype(int))
    op = ex.jacobian_horizon(p, grid, "operator-norm", RngState(seed + 10))
    ad = ex.jacobian_horizon(p, grid, "autodiff", RngState(seed + 10))
    assert np.all(op.j_values > 0)
    assert np.max(np.abs(ad.j_values / op.j_values - 1.0)) <= 1e-12


@pytest.mark.parametrize("kind", [md.RNN, md.NORMALIZED_RNN])
def test_horizon_methods_agree_on_random_rnn_with_inputs(kind):
    # non-zero w_in and bias move tanh' off 1 at every step, unlike the
    # contractive linear case above
    p = random_recurrent(kind, 63)
    grid = [1, 2, 5, 10, 30, 60]
    op = ex.jacobian_horizon(p, grid, "operator-norm", RngState(64))
    ad = ex.jacobian_horizon(p, grid, "autodiff", RngState(64))
    assert np.all(op.j_values < 1.0) and op.j_values[-1] < 1e-6 * op.j_values[0]
    assert np.max(np.abs(ad.j_values / op.j_values - 1.0)) <= 1e-12


def test_horizon_rejects_transformer():
    p = md.init_transformer(RngState(12), 8, 1, 2, 8, 6, 6)
    with pytest.raises(ArgumentError):
        ex.jacobian_horizon(p, [1, 2], "autodiff", RngState(13))


# ---------------------------------------------------------------- mass gap / pca


def rotate_all(centroids, seed):
    q = mat_exp(skew(RngState(seed).generator().standard_normal(
        (len(next(iter(centroids.values()))),) * 2)))
    return {k: q @ v for k, v in centroids.items()}


def min_geodesic(centroids):
    labels = sorted(centroids)
    best = math.pi
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            cosang = float(np.clip(centroids[a] @ centroids[b], -1, 1))
            best = min(best, math.acos(cosang))
    return best


def test_mass_gap_antipodal_and_orthonormal_geometry():
    antipodal = {0: np.array([1.0, 0.0]), 1: np.array([-1.0, 0.0])}
    assert min_geodesic(antipodal) == pytest.approx(math.pi)
    ortho = {0: np.array([1.0, 0.0, 0.0]), 1: np.array([0.0, 1.0, 0.0]),
             2: np.array([0.0, 0.0, 1.0])}
    assert min_geodesic(ortho) == pytest.approx(math.pi / 2)


def test_mass_gap_rotation_invariance():
    gen = RngState(14).generator()
    centroids = {}
    for label in range(5):
        v = gen.standard_normal(8)
        centroids[label] = v / np.linalg.norm(v)
    base = min_geodesic(centroids)
    rotated = min_geodesic(rotate_all(centroids, 15))
    assert abs(base - rotated) < 1e-10


def test_mass_gap_on_random_model_reaches_all_classes():
    p = md.init_holonomic(RngState(16), 16, 6, 6)
    result = ex.mass_gap(p, TaskConfig(), RngState(17),
                         episodes_per_class=40)
    assert len(result.centroids) == 6
    assert sum(result.counts.values()) == 40 * 6 * 2
    assert all(type(k) is int for k in result.counts)
    assert 0.0 <= result.delta <= math.pi
    rotated = {k: v for k, v in rotate_all(result.centroids, 18).items()}
    assert abs(min_geodesic(rotated) - result.delta) < 1e-10


def test_silhouette_requires_two_clusters():
    with pytest.raises(ArgumentError):
        ex.silhouette_score(np.zeros((4, 2)), np.zeros(4, dtype=int))


def test_pca_snapshot_shapes_and_silhouette():
    p = md.init_holonomic(RngState(19), 12, 6, 6)
    r = md.init_rnn(RngState(20), 12, 6, 6)
    snap = ex.pca_snapshot([("hol", p), ("rnn", r)],
                           TaskConfig(), temperature=0.2, episodes=120,
                           rng=RngState(21))
    for tag in ("hol", "rnn"):
        entry = snap[tag]
        assert entry["k2"].shape == (120, 2)
        assert entry["k3"].shape == (120, 3)
        assert entry["labels"].shape == (120,)
        assert entry["silhouette"] is not None


def test_pca_snapshot_noise_reaches_the_transformer():
    # the transformer's residual stream takes the noise; the batch is the same
    p = md.init_transformer(RngState(22), 16, 1, 2, 16, 6, 6)
    points = [ex.pca_snapshot([("tr", p)], TaskConfig(), temp, 60,
                              RngState(21))["tr"] for temp in (0.0, 5.0)]
    assert np.array_equal(points[0]["labels"], points[1]["labels"])
    assert not np.allclose(points[0]["k3"], points[1]["k3"])


# ---------------------------------------------------------------- sweeps & eval


def test_untrained_model_is_chance_level_at_all_temperatures():
    p = md.init_holonomic(RngState(22), 8, 6, 6)
    sweep = ex.noise_sweep(p, TaskConfig(), [0.0, 0.5, 1.0],
                           256, RngState(23))
    for acc in sweep.acc_mean:
        assert 0.04 < acc < 0.42  # wide band around 1/6


def test_noise_sweep_bit_reproducible():
    p = md.init_rnn(RngState(24), 8, 6, 6)
    a = ex.noise_sweep(p, TaskConfig(), [0.0, 0.3], 64, RngState(25))
    b = ex.noise_sweep(p, TaskConfig(), [0.0, 0.3], 64, RngState(25))
    assert np.array_equal(a.outcomes, b.outcomes)
    bands = [ex.estimate_tc(s, 0.99, RngState(25).child(99)) for s in (a, b)]
    assert np.array_equal(bands[0].acc_lo, bands[1].acc_lo)


def count_operator_builds(monkeypatch):
    builds = []
    build = md.HolonomicParams.operators

    def counted(self):
        builds.append(1)
        return build(self)

    monkeypatch.setattr(md.HolonomicParams, "operators", counted)
    return builds


def sweep_params(kind, seed):
    """An untrained S3 model of each kind, n = d_model = 8."""
    if kind == md.HOLONOMIC:
        return md.init_holonomic(RngState(seed), 8, 6, 6)
    if kind == md.TRANSFORMER:
        return md.init_transformer(RngState(seed), 8, 1, 2, 8, 6, 6)
    return md.init_rnn(RngState(seed), 8, 6, 6, normalized=kind == md.NORMALIZED_RNN)


@pytest.mark.parametrize("kind", list(md.PARAMS))
def test_noise_sweep_same_seed_same_bits_and_noise_matters(kind, monkeypatch):
    p = sweep_params(kind, 24)
    grid = [0.0, 0.4, 3.0]
    builds = count_operator_builds(monkeypatch)
    a = ex.noise_sweep(p, TaskConfig(), grid, 96, RngState(25))
    assert len(builds) == (kind == md.HOLONOMIC)   # once per sweep, not per level
    b = ex.noise_sweep(p, TaskConfig(), grid, 96, RngState(25))
    c = ex.noise_sweep(p, TaskConfig(), grid, 96, RngState(26))
    bands = [ex.estimate_tc(s, 0.99, RngState(25).child(99)) for s in (a, b)]
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(bands[0].acc_hi, bands[1].acc_hi)
    assert not np.array_equal(a.outcomes, c.outcomes)
    # level i scores its batch from rng.child(0, i) with noise from rng.child(1, i)
    for ti, temp in enumerate(grid):
        batch = TaskConfig().sample_batch(RngState(25).child(0, ti).generator(),
                                          np.full(96, 5))
        _, logits = md.forward_batch(p, batch.ids, batch.queries, temp,
                                     RngState(25).child(1, ti))
        assert np.array_equal(a.outcomes[ti], np.argmax(logits, axis=1) == batch.targets)


def count_step_calls(monkeypatch, kind):
    """The calls of the recurrent step kernel that `kind` runs at inference."""
    name = "token_step" if kind == md.HOLONOMIC else "rnn_step"
    calls = []
    step = getattr(ge, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(ge, name, counted)
    return calls


@pytest.mark.parametrize("kind", [md.HOLONOMIC, md.RNN, md.NORMALIZED_RNN])
def test_sweep_and_genlen_step_each_column_once(kind, monkeypatch):
    # the sweep's levels run as one block: L steps, not G L; genlen scores
    # every length from one pass: max(lengths) steps, not their sum
    p = sweep_params(kind, 30)
    calls = count_step_calls(monkeypatch, kind)
    ex.noise_sweep(p, TaskConfig(), [0.0, 0.2, 0.5, 1.0], 16, RngState(31), length=7)
    assert len(calls) == 7
    calls.clear()
    ex.length_generalization_eval(p, TaskConfig(), [5, 60, 20], 8, 64, RngState(32))
    assert len(calls) == 60


@pytest.mark.parametrize("precision", [64, 32])
@pytest.mark.parametrize("task", [TaskConfig(), TaskConfig(kind=BINDING, variables=4)])
def test_length_generalization_matches_per_episode_loop(precision, task):
    p = md.init_holonomic(RngState(40), 8, task.vocab, task.n_classes,
                          n_queries=task.n_queries)
    lengths = [3, 40] if precision == 32 else [3, 300, 40]
    rows = ex.length_generalization_eval(p, task, lengths, 32,
                                         precision, RngState(41))
    again = ex.length_generalization_eval(p, task, lengths, 32,
                                          precision, RngState(41))
    assert rows == again
    ops = p.operators().astype(np.float32 if precision == 32 else np.float64)
    # every length scores a prefix of one batch at the longest length
    batch = task.sample_batch(RngState(41).child(0).generator(), np.full(32, max(lengths)))
    for length, row in zip(lengths, rows):
        correct = 0
        for e in batch:   # the loop the experiment ran before batching, on the prefix
            prefix = e.tokens[:length]
            h = p.h0.astype(ops.dtype, copy=True)
            for tok in prefix:
                h = ops[tok] @ h
            target = naive_s3_target(prefix) if e.query is None \
                else naive_binding_target(prefix, task.variables, e.query)
            correct += int(np.argmax(p.readout[e.query or 0] @ h) == target)
        assert row["acc"] == correct / 32


def test_length_generalization_rnn_and_transformer_score_the_same_batch():
    task = TaskConfig()
    rnn = md.init_rnn(RngState(42), 8, 6, 6)
    tr = md.init_transformer(RngState(43), 8, 1, 2, 8, 6, 6, pos_mode="sinusoidal")
    batch = task.sample_batch(RngState(44).child(0).generator(), np.full(24, 9))
    for params in (rnn, tr):
        rows = ex.length_generalization_eval(params, task, [4, 9], 24, 64,
                                             RngState(44))
        for row in rows:
            prefixes = [e.tokens[:row["L"]] for e in batch]
            expected = np.mean([row_label(params, tokens) == naive_s3_target(tokens)
                                for tokens in prefixes])
            assert row["acc"] == expected


@pytest.mark.parametrize("kind", [md.HOLONOMIC, md.NORMALIZED_RNN, md.TRANSFORMER])
def test_exhaustive_s3_accuracy_scores_every_sequence(kind, monkeypatch):
    if kind == md.TRANSFORMER:
        p = md.init_transformer(RngState(45), 8, 1, 2, 8, 6, 6)
    else:
        p = md.init_holonomic(RngState(45), 8, 6, 6) if kind == md.HOLONOMIC \
            else md.init_rnn(RngState(45), 8, 6, 6, normalized=True)
    monkeypatch.setattr(ex, "SCORE_BLOCK", 50)   # several blocks, one ragged
    correct = 0
    for tokens in itertools.product(range(6), repeat=3):
        correct += int(row_label(p, tokens) == naive_s3_target(tokens))
    builds = count_operator_builds(monkeypatch)
    cur = Curriculum(kind="stepwise", l_min=1, l_max=3)
    assert ex.validation_accuracy(p, TaskConfig(), cur, 16, RngState(47)) == correct / 216
    assert len(builds) == (kind == md.HOLONOMIC)    # once, not once per block


def test_validation_is_exhaustive_for_small_s3_and_sampled_otherwise():
    p = md.init_holonomic(RngState(46), 8, 6, 6)
    s3 = TaskConfig()
    for l_max in (1, 5):
        cur = Curriculum(kind="stepwise", l_min=1, l_max=l_max)
        batch = s3.validation_batch(cur, 16, RngState(47))
        assert len(batch) == 6 ** l_max
        assert len({e.tokens for e in batch}) == 6 ** l_max
        assert all(e.length == l_max and e.target == naive_s3_target(e.tokens) for e in batch)
        hits = np.argmax(md.forward_batch(p, batch.ids)[1], axis=1) == batch.targets
        assert ex.validation_accuracy(p, s3, cur, 16, RngState(47)) == np.mean(hits)
    cur = Curriculum(kind="stepwise", l_min=1, l_max=6)   # 6^6 > 8192 sequences
    assert ex.validation_accuracy(p, s3, cur, 16, RngState(47)) == \
        ex.evaluate_accuracy(p, s3, 6, 16, RngState(47))
    binding = TaskConfig(kind=BINDING, variables=4)
    pb = md.init_holonomic(RngState(48), 8, 6, 4, n_queries=4)
    cur = Curriculum(kind="stepwise", l_min=2, l_max=3)
    assert ex.validation_accuracy(pb, binding, cur, 16, RngState(49)) == \
        ex.evaluate_accuracy(pb, binding, [2, 3], 16, RngState(49))


def test_evaluate_accuracy_cycles_lengths_from_one_stream():
    p = md.init_rnn(RngState(50), 8, 6, 6)
    task = TaskConfig()
    acc = ex.evaluate_accuracy(p, task, [2, 5, 3], 30, RngState(51))
    batch = task.sample_batch(RngState(51).child(0).generator(), [2, 5, 3] * 10)
    expected = np.mean([row_label(p, e.tokens) == e.target for e in batch])
    assert acc == expected


def test_trivial_accuracy_is_the_best_token_blind_answer():
    # brute force over all 6^L swap sequences of v = 4: the share of the most
    # frequent answer to each query, whatever the tokens
    task = TaskConfig(kind=BINDING, variables=4)
    for length in range(5):
        seqs = list(itertools.product(range(task.vocab), repeat=length))
        best = [max(np.bincount([naive_binding_target(s, 4, q) for s in seqs],
                                minlength=4)) / len(seqs) for q in range(4)]
        assert np.allclose(best, task.trivial_accuracy(length), rtol=0, atol=1e-12)
        assert TaskConfig().trivial_accuracy(length) == 1 / 6
    ten = TaskConfig(kind=BINDING, variables=10)
    assert ten.trivial_accuracy(1) == pytest.approx(0.8, abs=1e-12)
    assert ten.trivial_accuracy(5) == pytest.approx(0.356, abs=1e-3)
    assert ten.trivial_accuracy(50) == pytest.approx(0.1, abs=1e-5)


def test_length_generalization_capacity_note_for_learned_positions():
    p = md.init_transformer(RngState(28), 16, 1, 2, 16, 6, 6,
                            pos_mode="learned", max_len=8)
    rows = ex.length_generalization_eval(p, TaskConfig(),
                                         [4, 16], 8, 64, RngState(29))
    assert rows[0]["note"] == ""
    assert rows[1]["note"] == "capacity-exceeded"
    assert math.isnan(rows[1]["acc"])


def test_genlen_samples_no_column_past_a_learned_positional_table(monkeypatch):
    p = md.init_transformer(RngState(28), 16, 1, 2, 16, 6, 6,
                            pos_mode="learned", max_len=8)
    draw = TaskConfig.draw
    shapes = []
    monkeypatch.setattr(TaskConfig, "draw", lambda self, gen, lengths:
                        shapes.append(np.shape(lengths) + (max(lengths),))
                        or draw(self, gen, lengths))
    rows = ex.length_generalization_eval(p, TaskConfig(), [4, 16, 6], 8, 64, RngState(29))
    assert shapes == [(8, 6)]     # one batch at the longest scored length
    assert [row["note"] for row in rows] == ["", "capacity-exceeded", ""]
    shapes.clear()
    rows = ex.length_generalization_eval(p, TaskConfig(), [16, 5000], 8, 64, RngState(29))
    assert shapes == [] and all(math.isnan(row["acc"]) for row in rows)


def test_genlen_labels_each_column_once(monkeypatch):
    # one fold to the longest length labels every scored length
    fold = TaskConfig.prefix_targets
    steps = []

    def counted(self, ids, queries=None):
        for targets in fold(self, ids, queries):
            steps.append(targets.shape)
            yield targets

    monkeypatch.setattr(TaskConfig, "prefix_targets", counted)
    p = md.init_holonomic(RngState(52), 8, 6, 6)
    ex.length_generalization_eval(p, TaskConfig(), [50, 100, 200, 500, 1000, 2000, 5000],
                                  4, 64, RngState(53))
    assert len(steps) == 5000 and set(steps) == {(4,)}


def test_train_smoke_converges_tiny_holonomic():
    cur = Curriculum(kind="stepwise", l_min=1, l_max=2)
    cfg = ex.TrainConfig(steps=900, batch=32, eval_interval=20,
                         gate_episodes=64, val_episodes=128)
    res = ex.train(ex.ModelConfig(kind=md.HOLONOMIC, n=8), TaskConfig(),
                   cur, cfg, RngState(30))
    assert res.converged
    assert res.final_accuracy == 1.0


def test_default_s3_training_and_its_operators_need_no_eigh(monkeypatch):
    # S3's (6, 32, 32) stack goes by the Taylor polynomial from init to
    # convergence: training and the trained model's operators call no LAPACK
    def eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    cfg = parse_config("[run]\nexperiment = train\n")
    res = ex.train(cfg.model, cfg.task, cfg.curriculum, cfg.train, RngState(0).child(0))
    assert res.converged
    assert ge.skew_exp_kernel(res.params.generators)[1][0] is ge._taylor_adjoint


def test_train_same_seed_same_bits():
    cur = Curriculum(kind="ramp", l_min=1, l_max=4, ramp_fraction=0.5)
    cfg = ex.TrainConfig(steps=6, batch=8, eval_interval=3, gate_episodes=16,
                         val_episodes=16)

    def run(seed):
        return ex.train(ex.ModelConfig(kind=md.HOLONOMIC, n=8),
                        TaskConfig(kind=BINDING, variables=4), cur, cfg,
                        RngState(seed))

    a, b, c = run(32), run(32), run(33)
    assert a.log == b.log and a.final_accuracy == b.final_accuracy
    for name, value in a.params.to_dict().items():
        assert np.array_equal(value, b.params.to_dict()[name]), name
    assert not np.array_equal(a.params.generators, c.params.generators)


# Training runs at fixed seeds: [train] config text, seed, then each log row's
# (step, max_len, accuracy, loss) and (converged, steps_used). They cover the
# stepwise gate on S3 and on binding (gate_threshold 0.9, so a gate passes
# below perfect accuracy), a ramp whose start is its top, and one that ramps.
BINDING_V4 = "[task]\nkind = binding\nvariables = 4\n[model]\nn = 16\n"
PINNED_TRAINING = {
    "s3": ("", 0, [
        (25, 1, 1.0, 1.1783732577798915), (50, 2, 0.3359375, 1.5569186219929558),
        (75, 2, 0.45703125, 1.2453869182814548), (100, 2, 1.0, 1.0506714935912331),
        (125, 3, 0.89453125, 1.1449595430447717), (150, 3, 1.0, 0.947220315348725),
        (175, 4, 1.0, 0.8450032472794071), (200, 5, 1.0, 0.7434176391305808)],
        (True, 200)),
    "binding-stepwise": (
        BINDING_V4 + "[curriculum]\nkind = stepwise\nl_min = 1\nl_max = 6\n"
        "gate_threshold = 0.9\n[train]\nlr = 0.01\n", 4, [
            (25, 1, 1.0, 0.7549859083117393), (50, 2, 0.8125, 0.8289178078384252),
            (75, 2, 0.890625, 0.5942927512719047), (100, 2, 0.99609375, 0.4617399802869846),
            (125, 3, 0.8671875, 0.546069971519048), (150, 3, 0.96484375, 0.3609276159714957),
            (175, 4, 1.0, 0.3255609330666748), (200, 5, 1.0, 0.2658718602727792),
            (225, 6, 1.0, 0.1945474460527268)],
        (True, 225)),
    "binding-ramp": (BINDING_V4 + "[curriculum]\nl_max = 8\n[train]\nsteps = 60\n", 0, [
        (25, 8, 0.234375, 1.3993645083806554), (50, 8, 0.2734375, 1.405075412356451),
        (60, 8, 0.30859375, 1.3981258644929366)],
        (False, 60)),
    "binding-ramp-from-5": (
        BINDING_V4 + "[curriculum]\nl_max = 8\nramp_start = 5\n"
        "[train]\nsteps = 60\neval_interval = 10\n", 0, [
            (10, 6, 0.24609375, 1.4170633036175637), (20, 6, 0.21875, 1.4047995175155208),
            (30, 7, 0.2265625, 1.4504441168305475), (40, 8, 0.21484375, 1.3920690505994795),
            (50, 8, 0.24609375, 1.4125018565275025), (60, 8, 0.29296875, 1.3888265445482149)],
        (False, 60)),
}


@pytest.mark.parametrize("name", PINNED_TRAINING)
def test_training_runs_keep_their_pinned_logs(name):
    text, seed, rows, outcome = PINNED_TRAINING[name]
    cfg = parse_config("[run]\nexperiment = train\n" + text)
    res = ex.train(cfg.model, cfg.task, cfg.curriculum, cfg.train, RngState(seed).child(0))
    assert [(e["step"], e["max_len"], e["accuracy"]) for e in res.log] == \
        [row[:3] for row in rows]
    # the loss goes through BLAS, whose summation order may vary with its threads
    assert [e["loss"] for e in res.log] == pytest.approx([row[3] for row in rows],
                                                         rel=1e-9, abs=0)
    assert (res.converged, res.steps_used) == outcome


def test_train_clears_a_gate_when_the_gate_accuracy_reaches_the_threshold(monkeypatch):
    scripted = iter([0.89, 0.9, 1.0, 0.5, 0.95])
    gated = []

    def evaluate(params, task, length, *args):
        gated.append(length)
        return next(scripted)

    monkeypatch.setattr(ex, "evaluate_accuracy", evaluate)
    cur = Curriculum(kind="stepwise", l_min=1, l_max=3, gate_threshold=0.9)
    cfg = ex.TrainConfig(steps=5, batch=4, eval_interval=1, val_episodes=8)
    res = ex.train(ex.ModelConfig(kind=md.HOLONOMIC, n=8), TaskConfig(), cur, cfg,
                   RngState(37))
    assert [e["max_len"] for e in res.log] == gated == [1, 1, 2, 3, 3]


def test_train_builds_the_operators_once_per_eval_point(monkeypatch):
    # the last step is an eval step: the final validation reuses its operators
    calls = []
    build = md.HolonomicParams.operators
    monkeypatch.setattr(md.HolonomicParams, "operators",
                        lambda self: calls.append(1) or build(self))
    cur = Curriculum(kind="ramp", l_min=5, l_max=8, ramp_fraction=0.001)
    cfg = ex.TrainConfig(steps=2, batch=8, gate_episodes=16, val_episodes=16)
    res = ex.train(ex.ModelConfig(kind=md.HOLONOMIC, n=8),
                   TaskConfig(kind=BINDING, variables=4), cur, cfg, RngState(34))
    assert res.steps_used == 2 and len(res.log) == 1
    assert len(calls) == 1


@pytest.mark.parametrize("kind", [md.HOLONOMIC, md.RNN, md.TRANSFORMER])
def test_train_holds_one_tape_at_a_time(monkeypatch, kind):
    alive_at_build = []
    tapes = []

    class RecordingTape(ge.Tape):
        def __init__(self):
            super().__init__()
            alive_at_build.append(sum(ref() is not None for ref in tapes))
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(ex.ge, "Tape", RecordingTape)
    cur = Curriculum(kind="ramp", l_min=5, l_max=8, ramp_fraction=0.001)
    cfg = ex.TrainConfig(steps=3, batch=8, eval_interval=2, gate_episodes=8,
                         val_episodes=8)
    ex.train(ex.ModelConfig(kind=kind, n=8, layers=1, heads=2),
             TaskConfig(kind=BINDING, variables=4), cur, cfg, RngState(35))
    assert alive_at_build == [0, 0, 0]


@pytest.mark.parametrize("kind", [md.HOLONOMIC, md.RNN, md.TRANSFORMER])
def test_train_returns_the_model_it_built_trained_in_place(monkeypatch, kind):
    built = []
    build = ex.ModelConfig.build

    def recording_build(self, rng, task):
        params = build(self, rng, task)
        built.append((params, {k: v.copy() for k, v in params.to_dict().items()}))
        return params

    monkeypatch.setattr(ex.ModelConfig, "build", recording_build)
    cur = Curriculum(kind="ramp", l_min=5, l_max=8, ramp_fraction=0.001)
    cfg = ex.TrainConfig(steps=3, batch=8, eval_interval=2, gate_episodes=8,
                         val_episodes=8)
    res = ex.train(ex.ModelConfig(kind=kind, n=8, layers=1, heads=2),
                   TaskConfig(kind=BINDING, variables=4), cur, cfg, RngState(35))
    [(params, initial)] = built
    assert res.params is params
    assert not np.array_equal(params.to_dict()["readout"], initial["readout"])


def binding_train_peak(steps):
    """tracemalloc peak (bytes) of a transformer binding train: B = 64,
    lengths 5..50, d = 16."""
    cur = Curriculum(kind="ramp", l_min=5, l_max=50, ramp_fraction=0.001)
    cfg = ex.TrainConfig(steps=steps, batch=64, gate_episodes=8, val_episodes=8)
    tracemalloc.start()
    try:
        ex.train(ex.ModelConfig(kind=md.TRANSFORMER, n=16, layers=2, heads=4),
                 TaskConfig(kind=BINDING, variables=10), cur, cfg, RngState(36))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_peak_memory_does_not_grow_with_steps():
    # a second live tape (the last step's, kept through the next step's
    # forward and backward) would put the 3-step peak 1.4 times the 1-step one
    binding_train_peak(1)   # one-time allocations out of the measured runs
    assert binding_train_peak(3) <= 1.25 * binding_train_peak(1)


def test_train_nonconvergence_carries_params():
    cur = Curriculum(kind="stepwise", l_min=1, l_max=5)
    cfg = ex.TrainConfig(steps=8, batch=8, eval_interval=4, gate_episodes=16,
                         val_episodes=16)
    res = ex.train(ex.ModelConfig(kind=md.RNN, n=8), TaskConfig(), cur,
                   cfg, RngState(31))
    assert not res.converged
    assert res.params is not None
    assert res.steps_used == 8


def test_train_past_a_learned_positional_table_stops_at_the_first_batch():
    # built in code, no config rule sees it: the packed stream refuses the batch
    model = ex.ModelConfig(kind=md.TRANSFORMER, n=8, layers=1, heads=2, max_len=2)
    cur = Curriculum(kind="stepwise", l_min=3, l_max=3)
    with pytest.raises(CapacityError, match="exceeds learned positional table of 2"):
        ex.train(model, TaskConfig(), cur, ex.TrainConfig(steps=4, batch=4), RngState(32))


def test_model_config_built_in_code_refuses_an_unknown_kind():
    # a config file's kind is checked as it is read; one built in code is not
    with pytest.raises(ArgumentError, match="unknown model kind: lstm"):
        ex.ModelConfig(kind="lstm").build(RngState(33), TaskConfig())
