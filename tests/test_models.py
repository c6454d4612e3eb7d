import math

import numpy as np
import pytest

from holonet import grad_engine as ge
from holonet import models as md
from holonet.errors import ArgumentError, CapacityError, DimensionError, NumericError
from holonet.group_tasks import (
    Episode,
    s3_sample_batch,
    s3_sample_episode,
    sv_sample_batch,
    sv_sample_episode,
)
from holonet.tensor_core import RngState


def s3_episode(seed, length=5):
    return s3_sample_episode(RngState(seed), length)


# ---------------------------------------------------------------- noise hook


def test_inject_noise_zero_temperature_identity():
    h = np.array([1.0, 2.0])
    assert md.inject_noise(h, 0.0, 2, RngState(0)) is h


def test_inject_noise_zero_state_fixed_point():
    h = np.zeros(8)
    out = md.inject_noise(h, 3.0, 8, RngState(1))
    assert np.array_equal(out, h)


def test_inject_noise_energy_scaling():
    # E ||eta||^2 = T^2 ||h||^2 under the 1/sqrt(N) normalization
    n, temp = 16, 0.7
    h = RngState(2).generator().standard_normal(n)
    base = np.linalg.norm(h) ** 2
    total = 0.0
    draws = 100_000 // n
    for i in range(draws):
        eta = md.inject_noise(h, temp, n, RngState(3).child(i)) - h
        total += np.linalg.norm(eta) ** 2
    measured = total / draws
    assert abs(measured - temp ** 2 * base) / (temp ** 2 * base) < 0.02


def test_noise_config_validation():
    with pytest.raises(ArgumentError):
        md.NoiseConfig(temperature=-0.1)
    with pytest.raises(ArgumentError):
        md.NoiseConfig(site="everywhere")


# ---------------------------------------------------------------- holonomic


def test_holonomic_zero_generators_identity_flow():
    p = md.init_holonomic(RngState(0), 8, 6, 6)
    p.generators[:] = 0.0
    traj, _ = md.holonomic_forward(p, s3_episode(1, 20))
    assert np.allclose(traj[-1], p.h0, atol=1e-14)


def test_holonomic_isometry_long_sequence():
    p = md.init_holonomic(RngState(4), 32, 6, 6)
    ep = s3_sample_episode(RngState(5), 5000)
    traj, _ = md.holonomic_forward(p, ep)
    norms = np.array([np.linalg.norm(h) for h in traj])
    assert np.all(np.abs(norms / norms[0] - 1.0) < 1e-9)


def test_holonomic_order_sensitivity():
    p = md.init_holonomic(RngState(6), 16, 6, 6)
    ops = p.operators()
    comm = ops[0] @ ops[1] - ops[1] @ ops[0]
    assert np.linalg.norm(comm) > 1e-6
    a = md.holonomic_forward(p, Episode(tokens=(0, 1), target=0, length=2))[0][-1]
    b = md.holonomic_forward(p, Episode(tokens=(1, 0), target=0, length=2))[0][-1]
    assert np.linalg.norm(a - b) > 1e-8


def test_holonomic_noise_renormalizes_to_unit():
    p = md.init_holonomic(RngState(7), 12, 6, 6)
    noise = md.NoiseConfig(temperature=0.8, enabled=True)
    traj, _ = md.holonomic_forward(p, s3_episode(8, 10), noise, RngState(9))
    for h in traj[1:]:
        assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-12)


def test_holonomic_noise_hook_silent_when_disabled():
    p = md.init_holonomic(RngState(10), 8, 6, 6)
    ep = s3_episode(11)
    _, a = md.holonomic_forward(p, ep, md.NoiseConfig(), None)
    _, b = md.holonomic_forward(p, ep, md.NoiseConfig(), RngState(99))
    assert np.array_equal(a, b)


def test_holonomic_vocabulary_overflow():
    p = md.init_holonomic(RngState(12), 8, 6, 6)
    with pytest.raises(ArgumentError):
        md.holonomic_forward(p, Episode(tokens=(6,), target=0, length=1))


def test_holonomic_noisy_forward_deterministic_per_seed():
    p = md.init_holonomic(RngState(13), 8, 6, 6)
    ep = s3_episode(14)
    noise = md.NoiseConfig(temperature=0.5, enabled=True)
    _, a = md.holonomic_forward(p, ep, noise, RngState(1).child(3))
    _, b = md.holonomic_forward(p, ep, noise, RngState(1).child(3))
    _, c = md.holonomic_forward(p, ep, noise, RngState(1).child(4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------- rnn


def test_rnn_zero_weights_zero_trajectory():
    p = md.init_rnn(RngState(15), 8, 6, 6)
    for arr in p.to_dict().values():
        arr[:] = 0.0
    traj, logits = md.rnn_forward(p, s3_episode(16))
    assert all(np.array_equal(h, np.zeros(8)) for h in traj)
    assert np.array_equal(logits, np.zeros(6))


def test_normalized_rnn_unit_sphere_under_noise():
    p = md.init_rnn(RngState(17), 16, 6, 6)
    noise = md.NoiseConfig(temperature=2.0, enabled=True)
    traj, _ = md.rnn_forward(p, s3_episode(18, 10), noise, RngState(19),
                             normalized=True)
    for h in traj[1:]:
        assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- transformer


def small_transformer(seed=20, **kw):
    args = dict(d_model=16, n_layers=2, n_heads=2, d_ff=24, vocab=6,
                n_classes=6, pos_mode="learned", max_len=12, pool="final")
    args.update(kw)
    return md.init_transformer(RngState(seed), **args)


def test_transformer_zero_weights_constant_logits():
    p = small_transformer(n_layers=1)
    for arr in p.weights.values():
        arr[:] = 0.0
    a = md.transformer_forward(p, s3_episode(21))
    b = md.transformer_forward(p, s3_episode(22))
    assert np.array_equal(a, b)


def test_transformer_capacity_error_on_learned_positions():
    p = small_transformer()
    long_ep = s3_sample_episode(RngState(23), 13)
    with pytest.raises(CapacityError):
        md.transformer_forward(p, long_ep)


def test_transformer_head_divisibility():
    with pytest.raises(DimensionError):
        small_transformer(d_model=15)


def test_transformer_permutation_invariance_without_positions():
    p = small_transformer(pool="mean")
    p.weights["pos"][:] = 0.0
    ep = Episode(tokens=(0, 1, 2, 3, 4, 5), target=0, length=6)
    perm = Episode(tokens=(5, 3, 1, 0, 4, 2), target=0, length=6)
    a = md.transformer_forward(p, ep)
    b = md.transformer_forward(p, perm)
    assert np.allclose(a, b, atol=1e-10)
    # restoring the positional table breaks the symmetry
    p2 = small_transformer(pool="mean")
    assert not np.allclose(md.transformer_forward(p2, ep),
                           md.transformer_forward(p2, perm), atol=1e-6)


def test_transformer_batch_matches_single():
    p = small_transformer()
    eps = [s3_episode(s, 7) for s in range(6)]
    batch = md.transformer_forward_batch(p, eps)
    for i, e in enumerate(eps):
        assert np.allclose(batch[i], md.transformer_forward(p, e), atol=1e-12)


def test_transformer_residual_noise_deterministic():
    p = small_transformer()
    ep = s3_episode(30, 6)
    noise = md.NoiseConfig(temperature=0.4, enabled=True, site="residual-stream")
    a = md.transformer_forward(p, ep, noise, RngState(7))
    b = md.transformer_forward(p, ep, noise, RngState(7))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------- batched forward

MIXED = [3, 1, 7, 1, 12, 5, 7, 2]


def recurrent_params(kind, seed, n=10, vocab=6, classes=6, queries=1):
    if kind == md.HOLONOMIC:
        return md.init_holonomic(RngState(seed), n, vocab, classes, n_queries=queries)
    return md.init_rnn(RngState(seed), n, vocab, classes, n_queries=queries)


@pytest.mark.parametrize("kind", [md.HOLONOMIC, md.RNN, md.NORMALIZED_RNN])
@pytest.mark.parametrize("task", ["s3", "binding"])
def test_forward_batch_matches_per_episode_forward(kind, task):
    if task == "s3":
        params = recurrent_params(kind, 70)
        batch = s3_sample_batch(RngState(71).generator(), MIXED)
    else:
        params = recurrent_params(kind, 72, vocab=10, classes=5, queries=5)
        batch = sv_sample_batch(RngState(73).generator(), 5, MIXED)
    states, logits = md.forward_batch(kind, params, batch.ids, batch.queries)
    for i, e in enumerate(batch.episodes()):
        if kind == md.HOLONOMIC:
            traj, ref = md.holonomic_forward(params, e)
        else:
            traj, ref = md.rnn_forward(params, e, normalized=kind == md.NORMALIZED_RNN)
        assert np.max(np.abs(states[i] - traj[-1])) <= 1e-12
        assert np.max(np.abs(logits[i] - ref)) <= 1e-12


def test_forward_batch_float32_with_renormalization_matches_per_episode_loop():
    # the per-episode loop length generalization ran before it was batched;
    # operators 1% off orthogonal make every missed rescaling visible
    params = md.init_holonomic(RngState(74), 16, 6, 6)
    ops = (1.01 * params.operators()).astype(np.float32)
    batch = s3_sample_batch(RngState(75).generator(), [200, 37, 130, 1, 200])
    states, logits = md.forward_batch(md.HOLONOMIC, params, batch.ids,
                                      operators=ops, renorm_interval=16)
    assert states.dtype == np.float32
    target_norm = float(np.linalg.norm(params.h0))
    for i, e in enumerate(batch.episodes()):
        h = params.h0.astype(np.float32, copy=True)
        for t, tok in enumerate(e.tokens):
            h = ops[tok] @ h
            if (t + 1) % 16 == 0:
                h *= target_norm / float(np.linalg.norm(h))
        # float32 roundoff over 200 steps; the orders of summation differ
        assert np.max(np.abs(states[i] - h)) < 1e-5
        assert np.argmax(logits[i]) == np.argmax(params.readout[0] @ h)


def test_forward_batch_noise_touches_only_live_steps():
    # row 0 has one live step, so its state is h0 until the last column
    params = md.init_holonomic(RngState(76), 8, 6, 6)
    ids = np.array([[-1, -1, -1, 4], [0, 1, 2, 3]])
    temp = 0.6
    noise = md.NoiseConfig(temperature=temp, enabled=True)
    states, _ = md.forward_batch(md.HOLONOMIC, params, ids, None, noise, RngState(77))
    gen = RngState(77).generator()
    g = [gen.standard_normal((2, 8)) for _ in range(4)][-1][0]
    h = params.operators()[4] @ params.h0
    h = h + g * temp / math.sqrt(8) * np.linalg.norm(h)
    assert np.allclose(states[0], h / np.linalg.norm(h), atol=1e-13)
    again, _ = md.forward_batch(md.HOLONOMIC, params, ids, None, noise, RngState(77))
    assert np.array_equal(states, again)


def test_forward_batch_noise_energy_scaling():
    # one step from h0 on a batch: E ||eta||^2 = T^2 ||h||^2, as for inject_noise
    n, temp, b = 16, 0.7, 6000
    params = md.init_rnn(RngState(78), n, 6, 6)
    ids = np.full((b, 1), 2)
    clean, _ = md.forward_batch(md.RNN, params, ids)
    noisy, _ = md.forward_batch(md.RNN, params, ids, None,
                                md.NoiseConfig(temperature=temp, enabled=True), RngState(79))
    base = np.linalg.norm(clean[0]) ** 2
    measured = np.mean(np.sum((noisy - clean) ** 2, axis=1))
    assert abs(measured - temp ** 2 * base) / (temp ** 2 * base) < 0.03


def test_forward_batch_normalized_rnn_stays_on_sphere_under_noise():
    params = md.init_rnn(RngState(80), 12, 6, 6)
    batch = s3_sample_batch(RngState(81).generator(), MIXED)
    states, _ = md.forward_batch(md.NORMALIZED_RNN, params, batch.ids, None,
                                 md.NoiseConfig(temperature=2.0, enabled=True),
                                 RngState(82))
    assert np.allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)


def test_forward_batch_rejects_bad_input():
    params = md.init_holonomic(RngState(83), 8, 6, 6, n_queries=2)
    with pytest.raises(ArgumentError):
        md.forward_batch(md.HOLONOMIC, params, np.array([[0, 6]]))
    with pytest.raises(ArgumentError):
        md.forward_batch(md.HOLONOMIC, params, np.array([[-2, 0]]))
    with pytest.raises(ArgumentError):
        md.forward_batch(md.HOLONOMIC, params, np.array([[0, 1]]), np.array([2]))
    with pytest.raises(DimensionError):
        md.forward_batch(md.HOLONOMIC, params, np.array([0, 1]))
    with pytest.raises(ArgumentError):
        md.forward_batch(md.HOLONOMIC, params, np.array([[0, 1]]), None,
                         md.NoiseConfig(temperature=0.1, enabled=True))
    with pytest.raises(ArgumentError):
        md.forward_batch(md.TRANSFORMER, small_transformer(), np.array([[0, 1]]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_forward_batch_raises_on_non_finite_logits():
    params = md.init_rnn(RngState(84), 8, 6, 6)
    params.readout[0, 0, 0] = np.inf
    with pytest.raises(NumericError):
        md.forward_batch(md.RNN, params, np.array([[0, 1, 2]]))


# ---------------------------------------------------------------- tape vs numpy


def ce_from_logits(logits, label):
    m = logits.max()
    return float(np.log(np.exp(logits - m).sum()) + m - logits[label])


@pytest.mark.parametrize("kind", md.MODEL_KINDS)
def test_batched_tape_loss_matches_per_episode_reference(kind):
    if kind == md.TRANSFORMER:
        params = small_transformer()
    elif kind == md.HOLONOMIC:
        params = md.init_holonomic(RngState(33), 10, 6, 6)
    else:
        params = md.init_rnn(RngState(34), 10, 6, 6)
    # mixed lengths exercise the grouping path
    eps = [s3_episode(60 + i, 3 + i % 3) for i in range(7)]

    def loss_with(fn):
        tape = ge.Tape()
        leaves = {k: tape.leaf(v) for k, v in params.to_dict().items()}
        loss = fn(tape, leaves)
        tape.backward(loss)
        return float(loss.value), ge.collect_grads(tape, leaves)

    if kind == md.HOLONOMIC:
        ref = lambda t, lv: md.holonomic_tape_loss(t, lv, eps)
        bat = lambda t, lv: md.holonomic_tape_loss_batched(t, lv, eps)
    elif kind == md.TRANSFORMER:
        ref = lambda t, lv: md.transformer_tape_loss(t, lv, eps, params)
        bat = lambda t, lv: md.transformer_tape_loss_batched(t, lv, eps, params)
    else:
        norm = kind == md.NORMALIZED_RNN
        ref = lambda t, lv: md.rnn_tape_loss(t, lv, eps, normalized=norm)
        bat = lambda t, lv: md.rnn_tape_loss_batched(t, lv, eps, normalized=norm)

    ref_loss, ref_grads = loss_with(ref)
    bat_loss, bat_grads = loss_with(bat)
    assert bat_loss == pytest.approx(ref_loss, rel=1e-12)
    for name in ref_grads:
        assert np.allclose(bat_grads[name], ref_grads[name], atol=1e-12), name


@pytest.mark.parametrize("kind", md.MODEL_KINDS)
def test_tape_loss_matches_numpy_forward(kind):
    if kind == md.TRANSFORMER:
        params = small_transformer()
    elif kind == md.HOLONOMIC:
        params = md.init_holonomic(RngState(31), 10, 6, 6)
    else:
        params = md.init_rnn(RngState(32), 10, 6, 6)
    eps = [s3_episode(40 + i, 5) for i in range(3)]
    tape = ge.Tape()
    leaves = {k: tape.leaf(v) for k, v in params.to_dict().items()}
    loss = md.tape_batch_loss(kind, tape, leaves, eps, params)
    expected = np.mean([
        ce_from_logits(md.forward_logits(kind, params, e), e.target) for e in eps])
    assert float(loss.value) == pytest.approx(expected, rel=1e-12)


def binding_batch(seed, lengths):
    return [sv_sample_episode(RngState(seed).child(i), 4, length)
            for i, length in enumerate(lengths)]


def test_mixed_length_holonomic_loss_matches_numpy_forward():
    params = md.init_holonomic(RngState(35), 8, 6, 4, n_queries=4)
    eps = binding_batch(36, [1, 7, 3, 7, 12, 2])
    tape = ge.Tape()
    leaves = {k: tape.leaf(v) for k, v in params.to_dict().items()}
    loss = md.tape_batch_loss(md.HOLONOMIC, tape, leaves, eps)
    expected = np.mean([ce_from_logits(md.forward_logits(md.HOLONOMIC, params, e),
                                       e.target) for e in eps])
    assert float(loss.value) == pytest.approx(expected, rel=1e-12)


def test_holonomic_tape_size_does_not_depend_on_lengths():
    params = md.init_holonomic(RngState(37), 8, 6, 4, n_queries=4)

    def nodes(eps):
        tape = ge.Tape()
        leaves = {k: tape.leaf(v) for k, v in params.to_dict().items()}
        md.tape_batch_loss(md.HOLONOMIC, tape, leaves, eps)
        return len(tape)

    assert nodes(binding_batch(38, [1, 4, 9, 16, 25])) == nodes(binding_batch(39, [9] * 5))


def test_holonomic_tape_loss_rejects_token_outside_vocabulary():
    params = md.init_holonomic(RngState(40), 8, 6, 6)
    tape = ge.Tape()
    leaves = {k: tape.leaf(v) for k, v in params.to_dict().items()}
    with pytest.raises(ArgumentError):
        md.tape_batch_loss(md.HOLONOMIC, tape, leaves, [Episode((0, -1), 0, 2)])


# ---------------------------------------------------------------- gradient fidelity


def test_holonomic_full_gradient_check():
    params = md.init_holonomic(RngState(50), 6, 6, 6)
    eps = [s3_episode(51, 3)]

    def build(tape, leaves):
        return md.holonomic_tape_loss(tape, leaves, eps)

    err = ge.grad_check(build, ge.ParamStore(params.to_dict()), eps=1e-6)
    assert err < 1e-5


def test_normalized_rnn_gradient_check():
    params = md.init_rnn(RngState(52), 6, 6, 6)
    eps = [s3_episode(53, 4)]

    def build(tape, leaves):
        return md.rnn_tape_loss(tape, leaves, eps, normalized=True)

    err = ge.grad_check(build, ge.ParamStore(params.to_dict()), eps=1e-6)
    assert err < 1e-5


def test_transformer_gradient_check():
    params = small_transformer(d_model=8, n_layers=1, n_heads=2, d_ff=12)
    eps = [s3_episode(54, 4)]

    def build(tape, leaves):
        return md.transformer_tape_loss(tape, leaves, eps, params)

    err = ge.grad_check(build, ge.ParamStore(params.to_dict()), eps=1e-6)
    assert err < 1e-4


# ---------------------------------------------------------------- param counts


def test_param_count_holonomic_binding_config():
    p = md.init_holonomic(RngState(60), 32, 45, 10, n_queries=10)
    total, items = md.param_count(p)
    assert items["generators"] == 45 * 32 * 32 == 46080
    assert total == items["generators"] + items["h0"] + items["readout"]


def test_param_count_recurrent_ratio():
    rnn = md.init_rnn(RngState(61), 128, 6, 6)
    hol = md.init_holonomic(RngState(62), 32, 6, 6)
    _, rnn_items = md.param_count(rnn)
    _, hol_items = md.param_count(hol)
    assert rnn_items["w_rec"] == 16384
    single_generator = hol_items["generators"] // 6
    assert single_generator == 1024
    assert rnn_items["w_rec"] // single_generator == 16


def test_param_count_fig2_transformer_near_3m():
    p = md.init_transformer(RngState(63), d_model=256, n_layers=6, n_heads=8,
                            d_ff=512, vocab=45, n_classes=10, n_queries=10,
                            pos_mode="sinusoidal", pool="mean")
    total, _ = md.param_count(p)
    assert abs(total - 3e6) / 3e6 < 0.10


def test_param_count_zero_layer_transformer():
    p = md.init_transformer(RngState(64), d_model=16, n_layers=0, n_heads=2,
                            d_ff=8, vocab=6, n_classes=6, pos_mode="sinusoidal")
    total, items = md.param_count(p)
    assert set(items) == {"embed", "ln_f_g", "ln_f_b", "readout"}
    assert total == 6 * 16 + 16 + 16 + 6 * 16
