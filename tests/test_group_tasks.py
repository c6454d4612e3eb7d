import hashlib
import itertools

import numpy as np
import pytest

from holonet.errors import ArgumentError
from holonet.group_tasks import (
    BINDING,
    IDENTITY_STEP,
    S3_CAYLEY,
    S3_ELEMENTS,
    Curriculum,
    Episode,
    TaskConfig,
    naive_binding_target,
    naive_s3_target,
    perm_compose,
    s3_id,
    s3_sample_episode,
    sample_lengths,
    sv_sample_episode,
    swap_token,
    swap_vocabulary,
)
from holonet.tensor_core import RngState

IDENTITY = (0, 1, 2)
S3_TASK = TaskConfig()


def binding_target(tokens, v, query):
    """The answer of one episode: the binding task's label of a one-row block."""
    return int(final_targets(TaskConfig(BINDING, v), [tokens], [query])[0])


def final_targets(task, ids, queries=None):
    """Each row's target after the last column of an id block."""
    return list(task.prefix_targets(np.array(ids), None if queries is None
                                    else np.array(queries)))[-1]


# ---------------------------------------------------------------- permutations


def test_identity_law_all_s3():
    for g in S3_ELEMENTS:
        assert perm_compose(IDENTITY, g) == g
        assert perm_compose(g, IDENTITY) == g


def test_transposition_composition_witness():
    # cycle notation: (01).(12) = (012), while (12).(01) = (021)
    t01, t12, c012, c021 = (1, 0, 2), (0, 2, 1), (1, 2, 0), (2, 0, 1)
    assert perm_compose(t01, t12) == c012
    assert perm_compose(t12, t01) == c021
    assert perm_compose(t01, t12) != perm_compose(t12, t01)


def test_cayley_table_is_latin_square():
    ids = list(range(6))
    table = [[s3_id(perm_compose(S3_ELEMENTS[a], S3_ELEMENTS[b])) for b in ids]
             for a in ids]
    for row in table:
        assert sorted(row) == ids
    for col in zip(*table):
        assert sorted(col) == ids


def test_perm_compose_rejects_a_size_mismatch():
    with pytest.raises(ArgumentError, match="size mismatch 2 vs 3"):
        perm_compose((0, 1), (0, 1, 2))


def test_s3_elements_ids_and_cayley_table_are_pinned():
    assert S3_ELEMENTS == ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    assert [s3_id(p) for p in S3_ELEMENTS] == list(range(6))
    assert S3_CAYLEY.tolist() == [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
                                  [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]


# ---------------------------------------------------------------- s3 episodes


def test_s3_single_token_is_its_own_target():
    for g in range(6):
        assert final_targets(S3_TASK, [[g]])[0] == g


def test_s3_pairs_match_cayley_table():
    for g1, g2 in itertools.product(range(6), range(6)):
        expected = s3_id(perm_compose(S3_ELEMENTS[g2], S3_ELEMENTS[g1]))
        assert final_targets(S3_TASK, [[g1, g2]])[0] == expected


def test_s3_random_episodes_match_fold_and_naive_oracle():
    for seed in range(200):
        ep = s3_sample_episode(RngState(seed), 5)
        acc = IDENTITY
        for tok in ep.tokens:
            acc = perm_compose(S3_ELEMENTS[tok], acc)
        assert ep.target == s3_id(acc)
        assert ep.target == naive_s3_target(ep.tokens)


def test_s3_sampling_deterministic():
    a = s3_sample_episode(RngState(9), 7)
    b = s3_sample_episode(RngState(9), 7)
    assert a == b


# Episodes the per-episode samplers drew before they became B = 1 batches
# (one generator, integers then query); the batch sampler keeps these bits.
PINNED_S3 = [((9,), 7, (1, 2, 5, 0, 2, 5, 0), 5),
             ((123,), 3, (1, 5, 2), 5)]
PINNED_BINDING = [((4,), 6, (43, 18, 38, 32, 43, 41), 2, 6),
                  ((5,), 4, (38, 38, 6, 41), 8, 8)]


def test_per_episode_samplers_keep_their_bits():
    for seed, length, tokens, target in PINNED_S3:
        assert s3_sample_episode(RngState(*seed), length) == \
            Episode(tokens, target, length)
    for seed, length, tokens, target, query in PINNED_BINDING:
        assert sv_sample_episode(RngState(*seed), 10, length) == \
            Episode(tokens, target, length, query)
    ep = s3_sample_episode(RngState(9), 7)
    assert all(type(t) is int for t in ep.tokens) and type(ep.target) is int


# SHA-256 of the draws at seed 41, as the samplers made them before one
# TaskConfig held both tasks: a batch's ids, targets and (binding) queries as
# int64 bytes, at mixed lengths 1..12; and the per-episode samplers' episodes
# at lengths 1..12, each from its own child stream.
MIXED = [3, 12, 1, 7, 12, 5, 2, 9, 1, 11, 4, 6, 8, 10, 12, 2]
PINNED_BATCHES = {
    "s3": "85ff505c83a84a17bb0b38d6460fe4e56f7f42a90cba33db2fba9e65da901ecf",
    "binding": "353366a8163f7629cf1c0a3feee837c72788f11e820e93ad739d20f49a84ba3d"}
PINNED_EPISODES = {
    "s3": "947d36f564908e2873e1937b6254847cbbd34577c646d9c9d35433b9ecad4ff8",
    "binding": "943f345a4ee50c4e5377317cafc22f30bdcf4937ff2d95e993caabf6078dd899"}


@pytest.mark.parametrize("task", [S3_TASK, TaskConfig(BINDING, 10)], ids=["s3", "binding"])
def test_batches_and_episodes_keep_their_pinned_draws(task):
    batch = task.sample_batch(RngState(41).generator(), MIXED)
    digest = hashlib.sha256()
    for array in (batch.ids, batch.targets) + (() if batch.queries is None else (batch.queries,)):
        digest.update(np.asarray(array, dtype=np.int64).tobytes())
    assert digest.hexdigest() == PINNED_BATCHES[task.kind]
    assert [e.length for e in batch] == MIXED
    eps = [s3_sample_episode(RngState(41).child(n), n) if task.kind == "s3"
           else sv_sample_episode(RngState(41).child(n), 10, n) for n in range(1, 13)]
    rows = repr([(e.tokens, e.target, e.length, e.query) for e in eps]).encode()
    assert hashlib.sha256(rows).hexdigest() == PINNED_EPISODES[task.kind]


def test_cayley_table_matches_perm_composition():
    for a, b in itertools.product(range(6), range(6)):
        assert S3_CAYLEY[a, b] == s3_id(perm_compose(S3_ELEMENTS[a], S3_ELEMENTS[b]))


@pytest.mark.parametrize("lengths", [[1], [1, 1, 1], [3, 1, 7, 1, 12, 5, 7], [2] * 5])
def test_batch_sampler_matches_naive_oracles(lengths):
    for seed in range(20):
        batch = S3_TASK.sample_batch(RngState(seed).generator(), lengths)
        assert batch.ids.shape == (len(lengths), max(lengths))
        eps = list(batch)
        assert [e.length for e in eps] == list(lengths)
        for row, e in zip(batch.ids, eps):
            assert np.all(row[:max(lengths) - e.length] == IDENTITY_STEP)
            assert e.target == naive_s3_target(e.tokens)
        batch = TaskConfig(BINDING, 6).sample_batch(RngState(seed).child(1).generator(), lengths)
        for e in batch:
            assert 0 <= e.query < 6 and e.query is not None
            assert e.target == naive_binding_target(e.tokens, 6, e.query)


def test_batch_row_keeps_the_first_tokens_of_its_draw():
    # row i uses the first lengths[i] tokens of row i of one (B, L_max) draw
    lengths = [4, 1, 6]
    raw = RngState(3).generator().integers(0, 6, size=(3, 6))
    eps = S3_TASK.sample_batch(RngState(3).generator(), lengths)
    for row, e in zip(raw, eps):
        assert e.tokens == tuple(row[:e.length])


def test_batch_sampler_rejects_bad_lengths():
    for lengths in ([], [0, 3], [[2, 3]]):
        with pytest.raises(ArgumentError):
            S3_TASK.sample_batch(RngState(0).generator(), lengths)
    for v in (1, 0):    # a task built in code is refused as the config key is
        with pytest.raises(ArgumentError, match="at least 2 variables"):
            TaskConfig(BINDING, v)
        with pytest.raises(ArgumentError, match="at least 2 variables"):
            sv_sample_episode(RngState(0), v, 3)


# ---------------------------------------------------------------- binding episodes


def test_swap_vocabulary_size_and_order_insensitivity():
    vocab = swap_vocabulary(10)
    assert len(vocab) == 45
    for tok, (i, j) in enumerate(vocab):
        assert swap_token(10, i, j) == tok
        assert swap_token(10, j, i) == tok


def test_binding_worked_example():
    tokens = [swap_token(10, 0, 1), swap_token(10, 1, 2)]
    assert binding_target(tokens, 10, query=2) == 0
    assert naive_binding_target(tokens, 10, query=2) == 0


def test_binding_untouched_query_is_identity():
    tokens = [swap_token(10, 3, 4)] * 5
    for q in (0, 1, 2, 9):
        assert binding_target(tokens, 10, q) == q


def test_binding_double_swap_is_identity():
    tok = swap_token(10, 2, 7)
    for q in range(10):
        assert binding_target([tok, tok], 10, q) == q


def test_binding_generator_matches_naive_oracle():
    for seed in range(500):
        ep = sv_sample_episode(RngState(seed), 10, 1 + seed % 60)
        assert ep.target == naive_binding_target(ep.tokens, 10, ep.query)


def test_binding_state_space_saturates():
    # V=5 long episodes should reach all 5! = 120 value arrays; a product of
    # a fixed even number of transpositions only reaches the alternating
    # half, so both parities of L are sampled
    seen = set()
    pairs = swap_vocabulary(5)
    for seed in range(3000):
        ep = sv_sample_episode(RngState(seed).child(1), 5, 199 + seed % 2)
        values = list(range(5))
        for tok in ep.tokens:
            i, j = pairs[tok]
            values[i], values[j] = values[j], values[i]
        seen.add(tuple(values))
    assert len(seen) == 120


def test_token_marginals_stationary():
    # per-position token counts stay inside 3-sigma multinomial bounds
    counts = np.zeros((5, 6), dtype=int)
    n = 20_000
    for seed in range(n):
        ep = s3_sample_episode(RngState(777).child(seed), 5)
        for t, tok in enumerate(ep.tokens):
            counts[t, tok] += 1
    p = 1.0 / 6.0
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) < 3.0 * sigma)


# ---------------------------------------------------------------- curricula


def test_stepwise_caps_at_l_max():
    # l_min plus the gates cleared up to l_max, whatever the share of training
    # done; the trainer counts the gates (test_experiments)
    c = Curriculum(kind="stepwise", l_min=1, l_max=5)
    assert [c.top(0.5, gates) for gates in range(7)] == [1, 2, 3, 4, 5, 5, 5]
    assert c.top(0.0, 2) == c.top(1.0, 2) == 3 and c.top(1.0, 50) == 5
    assert not c.ramping(0.0) and not c.ramping(0.5)


def test_ramp_interpolation():
    c = Curriculum(kind="ramp", l_min=10, l_max=50)
    assert [c.top(f, 0) for f in (0.35, 0.0, 0.7, 0.9)] == [30, 10, 50, 50]
    # gates do not move a ramp
    assert c.top(0.35, 7) == 30
    assert [c.ramping(f) for f in (0.0, 0.35, 0.7, 0.9)] == [True, True, False, False]


def test_ramp_terminal_bias_frequency():
    c = Curriculum(kind="ramp", l_min=10, l_max=50)
    draws = sample_lengths(c, RngState(5).generator(), 10_000, 0.9, 0)
    assert np.all((draws >= 10) & (draws <= 50))
    # P(50) = 0.5 + 0.5 / 41; the rest uniform on [10, 50]
    assert abs(np.mean(draws == 50) - (0.5 + 0.5 / 41)) < 0.02
    below = draws[draws < 50]
    assert abs(below.mean() - 29.5) < 0.5


def test_ramp_sampling_respects_cap_mid_ramp():
    c = Curriculum(kind="ramp", l_min=10, l_max=50)
    draws = sample_lengths(c, RngState(6).generator(), 2000, 0.35, 0)
    assert draws.max() == 30 and draws.min() == 10
    counts = np.bincount(draws - 10)
    assert np.all(np.abs(counts - 2000 / 21) < 4 * np.sqrt(2000 / 21))


def test_stepwise_sampling_concentrates_on_gated_length():
    c = Curriculum(kind="stepwise", l_min=1, l_max=5)
    draws = sample_lengths(c, RngState(8).generator(), 20_000, 0.0, 2)
    assert set(np.unique(draws).tolist()) == {1, 2, 3}
    # max_bias 0.5 on the gated length, the other half uniform on [1, 3]
    freq = np.bincount(draws, minlength=4)[1:] / draws.size
    assert np.allclose(freq, [1 / 6, 1 / 6, 2 / 3], atol=0.015)


def test_curriculum_max_len_monotone():
    # top is the length train logs as max_len
    ramp = Curriculum(kind="ramp", l_min=10, l_max=50)
    tops = [ramp.top(step / 99, 0) for step in range(100)]
    assert tops == sorted(tops) and tops[0] == 10 and tops[-1] == 50
    stepwise = Curriculum(kind="stepwise", l_min=1, l_max=5)
    tops = [stepwise.top(0.0, gates) for gates in range(10)]
    assert tops == sorted(tops) and tops[0] == 1 and tops[-1] == 5


def test_sample_floor_allows_shorter_than_ramp_start():
    c = Curriculum(kind="ramp", l_min=5, l_max=50, ramp_start=10)
    assert c.top(0.0, 0) == 10
    draws = sample_lengths(c, RngState(7).generator(), 500, 0.0, 0)
    assert draws.min() == 5 and draws.max() <= 10
