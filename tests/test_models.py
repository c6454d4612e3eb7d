import math

import numpy as np
import pytest

from holonet import grad_engine as ge
from holonet import models as md
from holonet import scan_engine as se
from holonet.errors import ArgumentError, CapacityError, DimensionError, NumericError
from holonet.group_tasks import (
    BINDING,
    S3,
    Batch,
    Curriculum,
    Episode,
    TaskConfig,
    s3_sample_episode,
    sample_lengths,
)
from holonet.tensor_core import RngState


def s3_episode(seed, length=5):
    return s3_sample_episode(RngState(seed), length)


def one_row(e):
    """Episode e as a batch of one."""
    return Batch(np.array([e.tokens]), np.array([e.target]),
                 None if e.query is None else np.array([e.query]))


def row_logits(params, tokens):
    """Noiseless logits of one token sequence, a one-row forward_batch."""
    return md.forward_batch(params, [tokens])[1][0]


# ---------------------------------------------------------------- noise hook


def test_inject_noise_zero_temperature_identity():
    h = np.array([[1.0, 2.0], [0.5, -3.0]])
    g = RngState(0).generator().standard_normal(h.shape)
    assert np.array_equal(md.inject_noise(h, 0.0, g), h)


def test_inject_noise_zero_state_fixed_point():
    h = np.zeros((3, 8))
    out = md.inject_noise(h, 3.0, RngState(1).generator().standard_normal(h.shape))
    assert np.array_equal(out, h)


def test_inject_noise_energy_scaling():
    # E ||eta||^2 = T^2 ||h||^2 under the 1/sqrt(N) normalization, row by row
    n, temp, draws = 16, 0.7, 100_000 // 16
    h = RngState(2).generator().standard_normal(n)
    rows = np.tile(h, (draws, 1))
    eta = md.inject_noise(rows, temp, RngState(3).generator().standard_normal(rows.shape)) \
        - rows
    base = np.linalg.norm(h) ** 2
    measured = np.mean(np.sum(eta ** 2, axis=1))
    assert abs(measured - temp ** 2 * base) / (temp ** 2 * base) < 0.02


def test_noise_config_validation():
    # noise is one temperature; T > 0 needs an rng
    ids = np.array([[0, 1]])
    for kind in md.PARAMS:
        for temp, rng in ((-0.1, RngState(1)), (0.1, None)):
            with pytest.raises(ArgumentError):
                md.forward_batch(binding_params(kind, 0), ids, None, temp, rng)


# ---------------------------------------------------------------- holonomic


def test_holonomic_zero_generators_identity_flow():
    p = md.init_holonomic(RngState(0), 8, 6, 6)
    p.generators[:] = 0.0
    traj, _ = md.holonomic_forward(p, s3_episode(1, 20))
    assert np.allclose(traj[-1], p.h0, rtol=0, atol=1e-14)


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


@pytest.mark.parametrize("n, vocab, n_queries, gen_scale",
                         [(32, 6, 1, None), (128, 45, 10, 1.0)], ids=["s3", "binding"])
def test_operators_are_the_training_graphs_bits(n, vocab, n_queries, gen_scale):
    # inference builds the operators with the skew_exp node's kernel; the
    # binding case's angles exceed 8, so it also takes the halve-and-square path
    p = md.init_holonomic(RngState(50), n, vocab, 6, n_queries, gen_scale)
    ops = p.operators()
    assert ops.dtype == np.float64
    assert np.array_equal(ops, ge.skew_exp(ge.Tape().leaf(p.generators)).value)
    assert se.build_operators(p, 32).dtype == np.float32


def test_holonomic_noise_renormalizes_to_unit():
    p = md.init_holonomic(RngState(7), 12, 6, 6)
    batch = TaskConfig().sample_batch(RngState(8).generator(), MIXED)
    states, _ = md.forward_batch(p, batch.ids, None, 0.8, RngState(9))
    assert np.allclose(np.linalg.norm(states, axis=1), 1.0, rtol=0, atol=1e-12)


def test_holonomic_noise_hook_silent_when_disabled():
    p = md.init_holonomic(RngState(10), 8, 6, 6)
    ids = TaskConfig().sample_batch(RngState(11).generator(), MIXED).ids
    a = md.forward_batch(p, ids, None, 0.0, None)
    b = md.forward_batch(p, ids, None, 0.0, RngState(99))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_holonomic_vocabulary_overflow():
    p = md.init_holonomic(RngState(12), 8, 6, 6)
    with pytest.raises(ArgumentError):
        md.holonomic_forward(p, Episode(tokens=(6,), target=0, length=1))


def test_holonomic_noisy_forward_deterministic_per_seed():
    p = md.init_holonomic(RngState(13), 8, 6, 6)
    ids = TaskConfig().sample_batch(RngState(14).generator(), MIXED).ids
    _, a = md.forward_batch(p, ids, None, 0.5, RngState(1).child(3))
    _, b = md.forward_batch(p, ids, None, 0.5, RngState(1).child(3))
    _, c = md.forward_batch(p, ids, None, 0.5, RngState(1).child(4))
    assert np.array_equal(a, b)
    assert not np.any(np.all(a == c, axis=1))


# ---------------------------------------------------------------- rnn


def test_rnn_zero_weights_zero_trajectory():
    p = md.init_rnn(RngState(15), 8, 6, 6)
    for arr in p.to_dict().values():
        arr[:] = 0.0
    traj, logits = md.rnn_forward(p, s3_episode(16))
    assert all(np.array_equal(h, np.zeros(8)) for h in traj)
    assert np.array_equal(logits, np.zeros(6))


def test_normalized_rnn_unit_sphere_under_noise():
    # every prefix of one episode ends on the unit sphere, noise or not
    p = md.init_rnn(RngState(17), 16, 6, 6, normalized=True)
    tokens = s3_episode(18, 10).tokens
    for t in range(1, len(tokens) + 1):
        h, _ = md.forward_batch(p, np.array([tokens[:t]]), None,
                                2.0, RngState(19))
        assert np.linalg.norm(h[0]) == pytest.approx(1.0, abs=1e-12)


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
    a = row_logits(p, s3_episode(21).tokens)
    b = row_logits(p, s3_episode(22).tokens)
    assert np.array_equal(a, b)


def test_transformer_capacity_error_on_learned_positions():
    p = small_transformer()
    long_ep = s3_sample_episode(RngState(23), 13)
    with pytest.raises(CapacityError):
        row_logits(p, long_ep.tokens)


def test_transformer_head_divisibility():
    with pytest.raises(DimensionError):
        small_transformer(d_model=15)


def test_transformer_permutation_invariance_without_positions():
    p = small_transformer(pool="mean")
    p.weights["pos"][:] = 0.0
    tokens, perm = (0, 1, 2, 3, 4, 5), (5, 3, 1, 0, 4, 2)
    a = row_logits(p, tokens)
    b = row_logits(p, perm)
    assert np.allclose(a, b, rtol=0, atol=1e-10)
    # restoring the positional table breaks the symmetry
    p2 = small_transformer(pool="mean")
    assert not np.allclose(row_logits(p2, tokens),
                           row_logits(p2, perm), atol=1e-6)


def test_transformer_batch_matches_single():
    # a left-padded mixed-length block gives, bit for bit, the logits of each
    # length's unpadded block, and each row those of its episode alone
    p = small_transformer(vocab=10, n_classes=5, n_queries=5)
    batch = TaskConfig(BINDING, 5).sample_batch(RngState(29).generator(), MIXED)
    _, logits = md.forward_batch(p, batch.ids, batch.queries)
    width = batch.ids.shape[1]
    for length in set(MIXED):
        rows = np.array([e.length for e in batch]) == length
        _, alone = md.forward_batch(p, batch.ids[rows, width - length:],
                                    batch.queries[rows])
        assert np.array_equal(logits[rows], alone)
    for i, e in enumerate(batch):
        _, alone = md.forward_batch(p, [e.tokens], [e.query])
        assert np.allclose(logits[i], alone[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("pool", ["final", "mean"])
def test_transformer_training_graph_runs_the_inference_layers_bit_for_bit(pool):
    # the tape's pooled encodings of a mixed-length batch, one encoder_layer
    # node per layer over the packed stream, equal forward_batch's on the same
    # block: the two share the layer and pooling kernels
    p = small_transformer(pool=pool, n_classes=4, n_queries=4)
    batch = binding_batch(42, [1, 7, 3, 7, 12, 2])
    tape = ge.Tape()
    leaves = {k: tape.leaf(v) for k, v in p.to_dict().items()}
    md.tape_batch_loss(p, tape, leaves, batch)
    assert tape.ops.count("encoder_layer") == p.n_layers
    (pooled,) = [tape.values[i] for i, op in enumerate(tape.ops) if op == "segment_pool"]
    h, _ = md.forward_batch(p, batch.ids, batch.queries)
    assert pooled.shape == h.shape and np.array_equal(pooled, h)


@pytest.mark.parametrize("kind", [md.RNN, md.NORMALIZED_RNN])
@pytest.mark.parametrize("n, vocab", [(32, 6), (128, 45)], ids=["s3", "binding"])
def test_rnn_training_node_runs_the_inference_step_bit_for_bit(kind, n, vocab):
    # the tape's final states of a mixed-length batch, one rnn_scan node,
    # equal forward_batch's on the same block: the two share rnn_step
    gen = RngState(43).generator()
    lengths = np.concatenate([[1, 50], gen.integers(1, 51, 62)])
    batch = TaskConfig(S3 if vocab == 6 else BINDING, 10).sample_batch(gen, lengths)
    params = md.init_rnn(RngState(44), n, vocab, 6 if vocab == 6 else 10,
                         n_queries=1 if vocab == 6 else 10,
                         normalized=kind == md.NORMALIZED_RNN)
    tape = ge.Tape()
    leaves = {k: tape.leaf(v) for k, v in params.to_dict().items()}
    md.tape_batch_loss(params, tape, leaves, batch)
    (scanned,) = [tape.values[i] for i, op in enumerate(tape.ops) if op == "rnn_scan"]
    h, _ = md.forward_batch(params, batch.ids, batch.queries)
    assert np.array_equal(scanned, h)


def test_transformer_residual_noise_deterministic():
    p = small_transformer()
    batch = TaskConfig().sample_batch(RngState(30).generator(), MIXED)
    clean, _ = md.forward_batch(p, batch.ids)
    a, _ = md.forward_batch(p, batch.ids, None, 0.4, RngState(7))
    b, _ = md.forward_batch(p, batch.ids, None, 0.4, RngState(7))
    c, _ = md.forward_batch(p, batch.ids, None, 0.4, RngState(8))
    assert np.array_equal(a, b)
    assert not np.any(np.all(a == c, axis=1)) and not np.any(np.all(a == clean, axis=1))


# ---------------------------------------------------------------- batched forward

MIXED = [3, 1, 7, 1, 12, 5, 7, 2]


def recurrent_params(kind, seed, n=10, vocab=6, classes=6, queries=1):
    if kind == md.HOLONOMIC:
        return md.init_holonomic(RngState(seed), n, vocab, classes, n_queries=queries)
    return md.init_rnn(RngState(seed), n, vocab, classes, n_queries=queries,
                       normalized=kind == md.NORMALIZED_RNN)


@pytest.mark.parametrize("kind", [md.HOLONOMIC, md.RNN, md.NORMALIZED_RNN])
@pytest.mark.parametrize("task", ["s3", "binding"])
def test_forward_batch_matches_per_episode_forward(kind, task):
    if task == "s3":
        params = recurrent_params(kind, 70)
        batch = TaskConfig().sample_batch(RngState(71).generator(), MIXED)
    else:
        params = recurrent_params(kind, 72, vocab=10, classes=5, queries=5)
        batch = TaskConfig(BINDING, 5).sample_batch(RngState(73).generator(), MIXED)
    states, logits = md.forward_batch(params, batch.ids, batch.queries)
    for i, e in enumerate(batch):
        if kind == md.HOLONOMIC:
            traj, ref = md.holonomic_forward(params, e)
        else:
            traj, ref = md.rnn_forward(params, e)
        assert np.max(np.abs(states[i] - traj[-1])) <= 1e-12
        assert np.max(np.abs(logits[i] - ref)) <= 1e-12


def test_forward_batch_float32_matches_per_episode_loop():
    # the per-episode loop length generalization ran before it was batched,
    # on float32 operators over long rows of mixed lengths
    params = md.init_holonomic(RngState(74), 16, 6, 6)
    ops = params.operators().astype(np.float32)
    batch = TaskConfig().sample_batch(RngState(75).generator(), [200, 37, 130, 1, 200])
    states, logits = md.forward_batch(params, batch.ids, operators=ops)
    assert states.dtype == np.float32
    for i, e in enumerate(batch):
        h = params.h0.astype(np.float32, copy=True)
        for tok in e.tokens:
            h = ops[tok] @ h
        # float32 roundoff over 200 steps; the orders of summation differ
        assert np.max(np.abs(states[i] - h)) < 1e-5
        assert np.argmax(logits[i]) == np.argmax(params.readout[0] @ h)


def test_forward_batch_noise_touches_only_live_steps():
    # row 0 has one live step, so its state is h0 until the last column
    params = md.init_holonomic(RngState(76), 8, 6, 6)
    ids = np.array([[-1, -1, -1, 4], [0, 1, 2, 3]])
    temp = 0.6
    states, _ = md.forward_batch(params, ids, None, temp, RngState(77))
    gen = RngState(77).generator()
    g = [gen.standard_normal((2, 8)) for _ in range(4)][-1][0]
    h = params.operators()[4] @ params.h0
    h = h + g * temp / math.sqrt(8) * np.linalg.norm(h)
    assert np.allclose(states[0], h / np.linalg.norm(h), rtol=0, atol=1e-13)
    again, _ = md.forward_batch(params, ids, None, temp, RngState(77))
    assert np.array_equal(states, again)


@pytest.mark.parametrize("kind", list(md.PARAMS))
def test_stacked_blocks_take_the_noise_and_bits_of_their_own_forwards(kind):
    # G temperatures and G rngs run G equal blocks as one forward, each block
    # as it runs alone; a block at T = 0 draws nothing, so the noised rows are
    # not one run, and neither are the live rows of the early columns. Every
    # column's products keep two or more rows, alone and stacked.
    params = binding_params(kind, 80, pos_mode="sinusoidal") if kind == md.TRANSFORMER \
        else binding_params(kind, 80)
    temps = [0.5, 0.0, 1.5]
    rngs = [RngState(81).child(k) for k in range(3)]
    lengths = [7] * 9 + [3, 5, 2]
    blocks = [binding_batch(82 + k, lengths) for k in range(3)]
    ids = np.concatenate([b.ids for b in blocks])
    queries = np.concatenate([b.queries for b in blocks])
    states, logits = md.forward_batch(params, ids, queries, temps, rngs)
    rows = len(lengths)
    for k, (b, temp, rng) in enumerate(zip(blocks, temps, rngs)):
        alone_states, alone = md.forward_batch(params, b.ids, b.queries, temp, rng)
        assert np.array_equal(states[k * rows:(k + 1) * rows], alone_states)
        assert np.array_equal(logits[k * rows:(k + 1) * rows], alone)
    with pytest.raises(ArgumentError):
        md.forward_batch(params, ids, queries, temps, rngs[:2])


@pytest.mark.parametrize("kind, precision",
                         [(md.HOLONOMIC, 64), (md.HOLONOMIC, 32), (md.RNN, 64),
                          (md.NORMALIZED_RNN, 64)])
@pytest.mark.parametrize("task", ["s3", "binding"])
def test_states_after_each_column_are_the_prefix_forwards_bit_for_bit(kind, precision,
                                                                      task):
    # one pass over a block of equal-length rows reads, after column c, the
    # states and logits of the block's length-(c + 1) prefix run alone
    if task == "s3":
        params = recurrent_params(kind, 84)
        batch = TaskConfig().sample_batch(RngState(85).generator(), np.full(24, 60))
    else:
        params = binding_params(kind, 86)
        batch = binding_batch(87, np.full(24, 60))
    ops = se.build_operators(params, precision) if kind == md.HOLONOMIC else None
    columns = [59, 0, 9, 9, 40]
    states, logits = md.forward_batch(params, batch.ids, batch.queries, operators=ops,
                                      columns=columns)
    assert states.shape == (5, 24, params.n) and logits.shape[:2] == (5, 24)
    for k, c in enumerate(columns):
        alone_states, alone = md.forward_batch(params, batch.ids[:, :c + 1],
                                               batch.queries, operators=ops)
        assert states.dtype == alone_states.dtype
        assert np.array_equal(states[k], alone_states)
        assert np.array_equal(logits[k], alone)
    for bad in ([60], [-1], []):
        with pytest.raises(ArgumentError):
            md.forward_batch(params, batch.ids, batch.queries, operators=ops, columns=bad)
    with pytest.raises(ArgumentError):
        md.forward_batch(binding_params(md.TRANSFORMER, 88), batch.ids[:, :5],
                         batch.queries, columns=[2])


def test_forward_batch_noise_energy_scaling():
    # one step from h0 on a batch: E ||eta||^2 = T^2 ||h||^2, as for inject_noise
    n, temp, b = 16, 0.7, 6000
    params = md.init_rnn(RngState(78), n, 6, 6)
    ids = np.full((b, 1), 2)
    clean, _ = md.forward_batch(params, ids)
    noisy, _ = md.forward_batch(params, ids, None, temp, RngState(79))
    base = np.linalg.norm(clean[0]) ** 2
    measured = np.mean(np.sum((noisy - clean) ** 2, axis=1))
    assert abs(measured - temp ** 2 * base) / (temp ** 2 * base) < 0.03


def test_forward_batch_normalized_rnn_stays_on_sphere_under_noise():
    params = md.init_rnn(RngState(80), 12, 6, 6, normalized=True)
    batch = TaskConfig().sample_batch(RngState(81).generator(), MIXED)
    states, _ = md.forward_batch(params, batch.ids, None, 2.0,
                                 RngState(82))
    assert np.allclose(np.linalg.norm(states, axis=1), 1.0, rtol=0, atol=1e-12)


def test_forward_batch_rejects_bad_input():
    params = md.init_holonomic(RngState(83), 8, 6, 6, n_queries=2)
    with pytest.raises(ArgumentError):
        md.forward_batch(params, np.array([[0, 6]]))
    with pytest.raises(ArgumentError):
        md.forward_batch(params, np.array([[-2, 0]]))
    with pytest.raises(ArgumentError):
        md.forward_batch(params, np.array([[0, 1]]), np.array([2]))
    with pytest.raises(DimensionError):
        md.forward_batch(params, np.array([0, 1]))
    # one rule for every kind, at inference and in training: a row is padded
    # on the left only and holds a token, and its query indexes the bank
    bad = [(ids, None) for ids in ([[0, -1, 1]], [[0, 1, -1]], [[-1, -1]])] \
        + [([[-1, 0]], [4]), ([[-1, 0]], [-1])]
    for kind in md.PARAMS:
        params = binding_params(kind, 83)
        tape = ge.Tape()
        leaves = {k: tape.leaf(v) for k, v in params.to_dict().items()}
        for ids, queries in bad:
            with pytest.raises(ArgumentError):
                md.forward_batch(params, np.array(ids), queries)
            batch = Batch(np.array(ids), np.array([0]),
                          None if queries is None else np.array(queries))
            with pytest.raises(ArgumentError):
                md.tape_batch_loss(params, tape, leaves, batch)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_forward_batch_raises_on_non_finite_logits():
    params = md.init_rnn(RngState(84), 8, 6, 6)
    params.readout[0, 0, 0] = np.inf
    with pytest.raises(NumericError):
        md.forward_batch(params, np.array([[0, 1, 2]]))


# ---------------------------------------------------------------- tape vs numpy


def ce_from_logits(logits, label):
    m = logits.max()
    return float(np.log(np.exp(logits - m).sum()) + m - logits[label])


def binding_params(kind, seed, n=10, **transformer_kw):
    """Parameters for 4-variable binding episodes: vocab 6, 4 classes, 4 queries."""
    if kind == md.TRANSFORMER:
        return small_transformer(seed, n_classes=4, n_queries=4, **transformer_kw)
    return recurrent_params(kind, seed, n=n, classes=4, queries=4)


def loss_and_grads(params, batch):
    tape = ge.Tape()
    leaves = {k: tape.leaf(v) for k, v in params.to_dict().items()}
    loss = md.tape_batch_loss(params, tape, leaves, batch)
    tape.backward(loss)
    return float(loss.value), ge.collect_grads(tape, leaves)


@pytest.mark.parametrize("kind", list(md.PARAMS))
def test_batched_tape_loss_matches_per_episode_reference(kind):
    # the reference is each episode as a batch of one: padding (or grouping)
    # must not leak into any row's loss or gradient
    params = binding_params(kind, 33)
    batch = binding_batch(34, [1, 7, 3, 7, 12, 2])
    loss, grads = loss_and_grads(params, batch)
    singles = [loss_and_grads(params, one_row(e)) for e in batch]
    assert abs(loss - np.mean([s[0] for s in singles])) <= 1e-12
    for name, g in grads.items():
        mean = np.mean([s[1][name] for s in singles], axis=0)
        assert np.max(np.abs(g - mean)) <= 1e-12, name


def test_training_graphs_build_every_primitive():
    # no dead primitives: each backward rule serves some model's training
    # graph, and each node a graph builds has a rule
    batch = binding_batch(34, [1, 7, 3, 7, 12, 2])
    built = set()
    for kind, kw in [(md.HOLONOMIC, {}), (md.RNN, {}), (md.NORMALIZED_RNN, {}),
                     (md.TRANSFORMER, {"pos_mode": "learned"}),
                     (md.TRANSFORMER, {"pos_mode": "sinusoidal"})]:
        built.update(tape_ops(binding_params(kind, 33, **kw), batch))
    assert built - {"leaf"} == set(ge._BACKWARD)


@pytest.mark.parametrize("kind", list(md.PARAMS))
def test_tape_loss_matches_numpy_forward(kind):
    if kind == md.TRANSFORMER:
        params = small_transformer()
    elif kind == md.HOLONOMIC:
        params = md.init_holonomic(RngState(31), 10, 6, 6)
    else:
        params = md.init_rnn(RngState(32), 10, 6, 6, normalized=kind == md.NORMALIZED_RNN)
    batch = TaskConfig().sample_batch(RngState(40).generator(), [5, 5, 5])
    tape = ge.Tape()
    leaves = {k: tape.leaf(v) for k, v in params.to_dict().items()}
    loss = md.tape_batch_loss(params, tape, leaves, batch)
    _, logits = md.forward_batch(params, batch.ids)
    expected = np.mean([ce_from_logits(z, y) for z, y in zip(logits, batch.targets)])
    assert float(loss.value) == pytest.approx(expected, rel=1e-12)


def binding_batch(seed, lengths):
    return TaskConfig(BINDING, 4).sample_batch(RngState(seed).generator(), lengths)


def test_mixed_length_holonomic_loss_matches_numpy_forward():
    params = md.init_holonomic(RngState(35), 8, 6, 4, n_queries=4)
    batch = binding_batch(36, [1, 7, 3, 7, 12, 2])
    tape = ge.Tape()
    leaves = {k: tape.leaf(v) for k, v in params.to_dict().items()}
    loss = md.tape_batch_loss(params, tape, leaves, batch)
    expected = np.mean([ce_from_logits(md.holonomic_forward(params, e)[1], e.target)
                        for e in batch])
    assert float(loss.value) == pytest.approx(expected, rel=1e-12)
    # the training node runs forward_batch's kernel: the same bits, here with
    # a length-1 row, a leading all-pad column and token 5 unused
    ids = np.pad(np.where(batch.ids == 5, 0, batch.ids), ((0, 0), (1, 0)),
                 constant_values=ge.IDENTITY_STEP)
    ops = ge.skew_exp(tape.leaf(params.generators))
    scanned = ge.holonomic_scan(ops, ids, tape.leaf(params.h0)).value
    states, _ = md.forward_batch(params, ids, operators=ops.value)
    assert np.array_equal(scanned, states)


# rows of lengths 1-6 behind a leading all-pad column; token 4 is alone in
# column 1, and token 5 (of vocabulary 6, and the rest of 45) is never used
LAYOUT_IDS = np.array([[-1, -1, -1, -1, -1, -1, 2],
                       [-1, -1, -1, -1, -1, 0, 2],
                       [-1, -1, -1, -1, 1, 0, 2],
                       [-1, -1, -1, 3, 1, 0, 4],
                       [-1, -1, 0, 3, 1, 4, 1],
                       [-1, 4, 0, 3, 2, 0, 1]])


@pytest.mark.parametrize("n, vocab, padded", [(8, 6, True), (64, 45, False)])
def test_both_holonomic_step_layouts_match_the_per_episode_oracle(n, vocab, padded):
    params = md.init_holonomic(RngState(81), n, vocab, 6)
    assert ge.token_schedule(LAYOUT_IDS, params.operators()).padded is padded
    states, logits = md.forward_batch(params, LAYOUT_IDS)
    for b, row in enumerate(LAYOUT_IDS):
        tokens = tuple(int(t) for t in row[row != ge.IDENTITY_STEP])
        trajectory, ref = md.holonomic_forward(params, Episode(tokens, 0, len(tokens)))
        assert np.max(np.abs(states[b] - trajectory[-1])) <= 1e-12
        assert np.max(np.abs(logits[b] - ref)) <= 1e-12
    # the training node runs the same schedule: the same bits
    tape = ge.Tape()
    scanned = ge.holonomic_scan(tape.leaf(params.operators()), LAYOUT_IDS,
                                tape.leaf(params.h0)).value
    assert np.array_equal(scanned, states)
    # float32 operators keep their dtype in either layout
    single, _ = md.forward_batch(params, LAYOUT_IDS,
                                 operators=params.operators().astype(np.float32))
    assert single.dtype == np.float32
    assert np.max(np.abs(single - states)) < 1e-5


def test_each_benchmark_block_shape_takes_its_layout():
    gen = RngState(82).generator()

    def s3(lengths):
        return TaskConfig().draw(gen, lengths)[0]

    s3_top = Curriculum("stepwise", 1, 5)           # at its top after 4 gates
    binding_top = Curriculum("ramp", 5, 50, ramp_start=10)   # at its top once ramped
    blocks = {   # (ids, vocab, n, padded)
        "genlen L=50": (s3(np.full(16, 50)), 6, 32, True),
        "genlen L=5000": (s3(np.full(16, 5000)), 6, 32, True),
        "sweep": (s3(np.full(64, 5)), 6, 32, True),
        "massgap": (s3(np.full(600, 5)), 6, 32, True),
        "s3 training": (s3(sample_lengths(s3_top, gen, 64, 1.0, 4)), 6, 32, True),
        "binding training": (TaskConfig(BINDING).draw(
            gen, sample_lengths(binding_top, gen, 64, 1.0, 0))[0], 45, 128, False),
    }
    for name, (ids, vocab, n, padded) in blocks.items():
        schedule = ge.token_schedule(ids, np.empty((vocab, n, n)))
        assert schedule.padded is padded, name
        # one (L, B) array per schedule, in either layout
        held = [a for a in vars(schedule).values()
                if isinstance(a, np.ndarray) and a.size >= ids.size]
        assert len(held) == 1, name


def tape_ops(params, batch):
    tape = ge.Tape()
    leaves = {k: tape.leaf(v) for k, v in params.to_dict().items()}
    md.tape_batch_loss(params, tape, leaves, batch)
    return tape.ops


def tape_size(params, batch):
    return len(tape_ops(params, batch))


def test_holonomic_tape_size_does_not_depend_on_lengths():
    # not even on L_max: one skew_exp and one holonomic_scan node
    params = binding_params(md.HOLONOMIC, 37)
    assert tape_size(params, binding_batch(38, [1, 4, 9, 16, 25])) \
        == tape_size(params, binding_batch(39, [9] * 5))


@pytest.mark.parametrize("kind", [md.RNN, md.NORMALIZED_RNN])
def test_rnn_tape_size_does_not_depend_on_length_mix(kind):
    # not even on L_max: one rnn_scan node
    params = binding_params(kind, 37)
    ops = tape_ops(params, binding_batch(38, [1, 4, 9, 16, 25]))
    assert ops == tape_ops(params, binding_batch(39, [3] * 5))
    assert ops.count("rnn_scan") == 1 and len(ops) == 7


@pytest.mark.parametrize("pos_mode", ["learned", "sinusoidal"])
def test_transformer_tape_size_does_not_depend_on_length_mix(pos_mode):
    # one packed graph: every row at one length, or every row at its own
    params = binding_params(md.TRANSFORMER, 37, pos_mode=pos_mode)
    equal = tape_ops(params, binding_batch(38, [9] * 6))
    distinct = tape_ops(params, binding_batch(39, [1, 2, 4, 7, 9, 12]))
    assert equal == distinct
    assert distinct.count("encoder_layer") == params.n_layers


def test_holonomic_tape_loss_rejects_token_outside_vocabulary():
    params = md.init_holonomic(RngState(40), 8, 6, 6)
    tape = ge.Tape()
    leaves = {k: tape.leaf(v) for k, v in params.to_dict().items()}
    for ids in ([[0, 6]], [[0, -1]], [[0, -2]]):
        with pytest.raises(ArgumentError):
            md.tape_batch_loss(params, tape, leaves,
                               Batch(np.array(ids), np.array([0])))


# ---------------------------------------------------------------- gradient fidelity


def training_graph_grad_error(kind, seed):
    """grad_check of tape_batch_loss on one mixed-length batch (L = 1..5)."""
    params = binding_params(kind, seed, n=6, d_model=8, n_layers=1, n_heads=2, d_ff=12)
    batch = binding_batch(seed + 1, [1, 2, 3, 4, 5])
    return ge.grad_check(lambda t, lv: md.tape_batch_loss(params, t, lv, batch),
                         ge.ParamStore(params.to_dict()), eps=1e-6)


def test_holonomic_full_gradient_check():
    assert training_graph_grad_error(md.HOLONOMIC, 50) < 1e-5


def test_rnn_gradient_check():
    assert training_graph_grad_error(md.RNN, 52) < 1e-5


def test_normalized_rnn_gradient_check():
    assert training_graph_grad_error(md.NORMALIZED_RNN, 52) < 1e-5


def test_transformer_gradient_check():
    assert training_graph_grad_error(md.TRANSFORMER, 54) < 1e-4


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
