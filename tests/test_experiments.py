import itertools
import math

import numpy as np
import pytest

from holonet import experiments as ex
from holonet import grad_engine as ge
from holonet import models as md
from holonet.errors import ArgumentError
from holonet.group_tasks import Curriculum, Episode, s3_target
from holonet.tensor_core import RngState, mat_exp, skew


def synthetic_sweep(acc_per_t, episodes=400, seed=0):
    grid = np.linspace(0, 1.0, len(acc_per_t))
    probs = np.asarray(acc_per_t, dtype=float)
    draws = RngState(seed).generator().random((len(acc_per_t), episodes))
    outcomes = draws < probs[:, None]
    acc = outcomes.mean(axis=1)
    lo = np.where(acc >= 1.0, 1.0, np.maximum(acc - 0.02, 0.0))
    hi = np.minimum(acc + 0.02, 1.0)
    return ex.SweepResult("synthetic", grid, acc, lo, hi, episodes, outcomes)


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
    acc = better_outcomes.mean(axis=1)
    better = ex.SweepResult("better", base.grid, acc,
                            np.where(acc >= 1.0, 1.0, acc - 0.02),
                            np.minimum(acc + 0.02, 1.0),
                            base.episodes, better_outcomes)
    t_base = ex.estimate_tc(base, 0.99, RngState(7)).value
    t_better = ex.estimate_tc(better, 0.99, RngState(7)).value
    assert t_better >= t_base


def test_tc_threshold_validation():
    sweep = synthetic_sweep([1.0, 0.5])
    with pytest.raises(ArgumentError):
        ex.estimate_tc(sweep, 1.5)


def test_sweep_result_validation():
    with pytest.raises(ArgumentError):
        ex.SweepResult("bad", np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                       np.array([1.0, 1.0]), np.array([1.0, 1.0]), 4)


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


def test_finite_size_scan_rejects_duplicates():
    with pytest.raises(ArgumentError):
        ex.finite_size_scan([8, 8, 16], ex.TaskConfig(),
                            Curriculum(kind="stepwise", l_min=1, l_max=2),
                            ex.TrainConfig(steps=1), [0.0, 0.5], 8, RngState(0))


# ---------------------------------------------------------------- horizon


def test_horizon_contractive_linear_rnn_is_exact():
    # zero trajectory keeps tanh' = 1, so J(t) = 0.5^t exactly
    n = 6
    p = md.RnnParams(n, 6, 0.5 * np.eye(n), np.zeros((6, n)), np.zeros(n),
                     np.zeros((1, 6, n)))
    for method in ("operator-norm", "autodiff"):
        curve = ex.jacobian_horizon(md.RNN, p, [1, 2, 5, 10, 20], method,
                                    RngState(9))
        expected = 0.5 ** curve.t_grid
        assert np.allclose(curve.j_values, expected, rtol=1e-9)
    assert curve.lambda_max == pytest.approx(math.log(0.5), rel=1e-6)
    assert curve.fit_r_squared > 0.999999


def test_horizon_holonomic_unity_both_methods():
    p = md.init_holonomic(RngState(10), 12, 6, 6)
    grid = [1, 5, 20, 100, 400]
    op = ex.jacobian_horizon(md.HOLONOMIC, p, grid, "operator-norm", RngState(11))
    ad = ex.jacobian_horizon(md.HOLONOMIC, p, grid, "autodiff", RngState(11))
    assert np.all(np.abs(op.j_values - 1.0) < 1e-6)
    assert np.all(np.abs(ad.j_values - 1.0) < 1e-6)
    assert np.max(np.abs(op.j_values - ad.j_values)) < 1e-6


# J(t) of the autodiff horizon when its tape differentiated through mat_exp
# nodes of the generators; taking the operators as leaves must reproduce it
PARENT_AUTODIFF_J = [1.0, 0.9999999999999998, 0.9999999999999978,
                     0.9999999999999916, 0.9999999999999686]


def test_horizon_autodiff_reproduces_generator_graph_without_mat_exp(monkeypatch):
    tapes = []

    class RecordingTape(ge.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(ge, "Tape", RecordingTape)
    p = md.init_holonomic(RngState(10), 12, 6, 6)
    p.generators *= 3.0
    curve = ex.jacobian_horizon(md.HOLONOMIC, p, [1, 5, 20, 100, 400], "autodiff",
                                RngState(11))
    assert np.max(np.abs(curve.j_values - PARENT_AUTODIFF_J)) <= 1e-12
    assert len(tapes) == 1 and "mat_exp" not in tapes[0].ops


def test_horizon_rejects_transformer():
    p = md.init_transformer(RngState(12), 8, 1, 2, 8, 6, 6)
    with pytest.raises(ArgumentError):
        ex.jacobian_horizon(md.TRANSFORMER, p, [1, 2], "autodiff", RngState(13))


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
    result = ex.mass_gap(md.HOLONOMIC, p, ex.TaskConfig(), RngState(17),
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
    snap = ex.pca_snapshot([("hol", md.HOLONOMIC, p), ("rnn", md.RNN, r)],
                           ex.TaskConfig(), temperature=0.2, episodes=120,
                           rng=RngState(21))
    for tag in ("hol", "rnn"):
        entry = snap[tag]
        assert entry["k2"].shape == (120, 2)
        assert entry["k3"].shape == (120, 3)
        assert entry["labels"].shape == (120,)
        assert entry["silhouette"] is not None


# ---------------------------------------------------------------- sweeps & eval


def test_untrained_model_is_chance_level_at_all_temperatures():
    p = md.init_holonomic(RngState(22), 8, 6, 6)
    sweep = ex.noise_sweep(md.HOLONOMIC, p, ex.TaskConfig(), [0.0, 0.5, 1.0],
                           256, RngState(23))
    for acc in sweep.acc_mean:
        assert 0.04 < acc < 0.42  # wide band around 1/6


def test_noise_sweep_bit_reproducible():
    p = md.init_rnn(RngState(24), 8, 6, 6)
    a = ex.noise_sweep(md.RNN, p, ex.TaskConfig(), [0.0, 0.3], 64, RngState(25))
    b = ex.noise_sweep(md.RNN, p, ex.TaskConfig(), [0.0, 0.3], 64, RngState(25))
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.acc_lo, b.acc_lo)


def test_noise_sweep_holonomic_same_seed_same_bits_and_noise_matters():
    p = md.init_holonomic(RngState(24), 8, 6, 6)
    grid = [0.0, 0.4, 3.0]
    a = ex.noise_sweep(md.HOLONOMIC, p, ex.TaskConfig(), grid, 96, RngState(25))
    b = ex.noise_sweep(md.HOLONOMIC, p, ex.TaskConfig(), grid, 96, RngState(25))
    c = ex.noise_sweep(md.HOLONOMIC, p, ex.TaskConfig(), grid, 96, RngState(26))
    assert np.array_equal(a.outcomes, b.outcomes) and np.array_equal(a.acc_hi, b.acc_hi)
    assert not np.array_equal(a.outcomes, c.outcomes)
    # level i scores its batch from rng.child(0, i) with noise from rng.child(1, i)
    for ti, temp in enumerate(grid):
        batch = ex.TaskConfig().sample_batch(RngState(25).child(0, ti).generator(),
                                             np.full(96, 5))
        noise = md.NoiseConfig(temperature=temp, enabled=temp > 0)
        preds = ex.predictions(md.HOLONOMIC, p, batch, noise, RngState(25).child(1, ti))
        assert np.array_equal(a.outcomes[ti], preds == batch.targets)


@pytest.mark.parametrize("precision", [64, 32])
@pytest.mark.parametrize("task", [ex.TaskConfig(), ex.TaskConfig(kind="binding", variables=4)])
def test_length_generalization_matches_per_episode_loop(precision, task):
    p = md.init_holonomic(RngState(40), 8, task.vocab, task.n_classes,
                          n_queries=task.n_queries)
    lengths = [3, 40] if precision == 32 else [3, 40, 300]
    rows = ex.length_generalization_eval(md.HOLONOMIC, p, task, lengths, 32,
                                         precision, RngState(41), renorm_interval=8)
    again = ex.length_generalization_eval(md.HOLONOMIC, p, task, lengths, 32,
                                          precision, RngState(41), renorm_interval=8)
    assert rows == again
    ops = p.operators().astype(np.float32 if precision == 32 else np.float64)
    norm0 = float(np.linalg.norm(p.h0))
    for li, (length, row) in enumerate(zip(lengths, rows)):
        batch = task.sample_batch(RngState(41).child(li).generator(), np.full(32, length))
        correct = 0
        for e in batch.episodes():   # the loop the experiment ran before batching
            h = p.h0.astype(ops.dtype, copy=True)
            for t, tok in enumerate(e.tokens):
                h = ops[tok] @ h
                if (t + 1) % 8 == 0:
                    h *= norm0 / float(np.linalg.norm(h))
            correct += int(np.argmax(p.readout[e.query or 0] @ h) == e.target)
        assert row["acc"] == correct / 32


def test_length_generalization_rnn_and_transformer_score_the_same_batch():
    task = ex.TaskConfig()
    rnn = md.init_rnn(RngState(42), 8, 6, 6)
    tr = md.init_transformer(RngState(43), 8, 1, 2, 8, 6, 6, pos_mode="sinusoidal")
    for kind, params in ((md.RNN, rnn), (md.TRANSFORMER, tr)):
        rows = ex.length_generalization_eval(kind, params, task, [4, 9], 24, 64,
                                             RngState(44))
        for li, row in enumerate(rows):
            batch = task.sample_batch(RngState(44).child(li).generator(),
                                      np.full(24, row["L"]))
            expected = np.mean([np.argmax(md.forward_logits(kind, params, e)) == e.target
                                for e in batch.episodes()])
            assert row["acc"] == expected


@pytest.mark.parametrize("kind", [md.HOLONOMIC, md.NORMALIZED_RNN, md.TRANSFORMER])
def test_exhaustive_s3_accuracy_scores_every_sequence(kind, monkeypatch):
    if kind == md.TRANSFORMER:
        p = md.init_transformer(RngState(45), 8, 1, 2, 8, 6, 6)
    else:
        p = md.init_holonomic(RngState(45), 8, 6, 6) if kind == md.HOLONOMIC \
            else md.init_rnn(RngState(45), 8, 6, 6)
    monkeypatch.setattr(ex, "SCORE_BLOCK", 50)   # several blocks, one ragged
    correct = 0
    for tokens in itertools.product(range(6), repeat=3):
        e = Episode(tokens, s3_target(tokens), 3)
        correct += int(np.argmax(md.forward_logits(kind, p, e)) == e.target)
    assert ex.exhaustive_s3_accuracy(kind, p, 3) == correct / 216


def test_validation_is_exhaustive_for_small_s3_and_sampled_otherwise():
    p = md.init_holonomic(RngState(46), 8, 6, 6)
    s3 = ex.TaskConfig()
    for l_max in (1, 5):
        cur = Curriculum(kind="stepwise", l_min=1, l_max=l_max)
        assert ex.validation_accuracy(md.HOLONOMIC, p, s3, cur, 16, RngState(47)) == \
            ex.exhaustive_s3_accuracy(md.HOLONOMIC, p, l_max)
    cur = Curriculum(kind="stepwise", l_min=1, l_max=6)   # 6^6 > 8192 sequences
    assert ex.validation_accuracy(md.HOLONOMIC, p, s3, cur, 16, RngState(47)) == \
        ex.evaluate_accuracy(md.HOLONOMIC, p, s3, 6, 16, RngState(47))
    binding = ex.TaskConfig(kind="binding", variables=4)
    pb = md.init_holonomic(RngState(48), 8, 6, 4, n_queries=4)
    cur = Curriculum(kind="stepwise", l_min=2, l_max=3)
    assert ex.validation_accuracy(md.HOLONOMIC, pb, binding, cur, 16, RngState(49)) == \
        ex.evaluate_accuracy(md.HOLONOMIC, pb, binding, [2, 3], 16, RngState(49))


def test_evaluate_accuracy_cycles_lengths_from_one_stream():
    p = md.init_rnn(RngState(50), 8, 6, 6)
    task = ex.TaskConfig()
    acc = ex.evaluate_accuracy(md.RNN, p, task, [2, 5, 3], 30, RngState(51))
    batch = task.sample_batch(RngState(51).child(0).generator(), [2, 5, 3] * 10)
    expected = np.mean([np.argmax(md.forward_logits(md.RNN, p, e)) == e.target
                        for e in batch.episodes()])
    assert acc == expected


def test_length_generalization_guards():
    p = md.init_holonomic(RngState(26), 8, 6, 6)
    with pytest.raises(ArgumentError):
        ex.length_generalization_eval(md.HOLONOMIC, p, ex.TaskConfig(),
                                      [100], 16, 32, RngState(27))


def test_length_generalization_capacity_note_for_learned_positions():
    p = md.init_transformer(RngState(28), 16, 1, 2, 16, 6, 6,
                            pos_mode="learned", max_len=8)
    rows = ex.length_generalization_eval(md.TRANSFORMER, p, ex.TaskConfig(),
                                         [4, 16], 8, 64, RngState(29))
    assert rows[0]["note"] == ""
    assert rows[1]["note"] == "capacity-exceeded"
    assert math.isnan(rows[1]["acc"])


def test_train_smoke_converges_tiny_holonomic():
    cur = Curriculum(kind="stepwise", l_min=1, l_max=2)
    cfg = ex.TrainConfig(steps=900, batch=32, eval_interval=20,
                         gate_episodes=64, val_episodes=128)
    res = ex.train(ex.ModelConfig(kind=md.HOLONOMIC, n=8), ex.TaskConfig(),
                   cur, cfg, RngState(30))
    assert res.converged
    assert res.final_accuracy == 1.0


def test_train_same_seed_same_bits():
    cur = Curriculum(kind="ramp", l_min=1, l_max=4, ramp_fraction=0.5)
    cfg = ex.TrainConfig(steps=6, batch=8, eval_interval=3, gate_episodes=16,
                         val_episodes=16)

    def run(seed):
        return ex.train(ex.ModelConfig(kind=md.HOLONOMIC, n=8),
                        ex.TaskConfig(kind="binding", variables=4), cur, cfg,
                        RngState(seed))

    a, b, c = run(32), run(32), run(33)
    assert a.log == b.log and a.final_accuracy == b.final_accuracy
    for name, value in a.params.to_dict().items():
        assert np.array_equal(value, b.params.to_dict()[name]), name
    assert not np.array_equal(a.params.generators, c.params.generators)


def test_train_nonconvergence_carries_params():
    cur = Curriculum(kind="stepwise", l_min=1, l_max=5)
    cfg = ex.TrainConfig(steps=8, batch=8, eval_interval=4, gate_episodes=16,
                         val_episodes=16)
    res = ex.train(ex.ModelConfig(kind=md.RNN, n=8), ex.TaskConfig(), cur,
                   cfg, RngState(31))
    assert not res.converged
    assert res.params is not None
    assert res.steps_used == 8
