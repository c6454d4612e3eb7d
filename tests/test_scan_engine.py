import time

import numpy as np
import pytest

from holonet import models as md
from holonet import scan_engine as se
from holonet.errors import ArgumentError
from holonet.tensor_core import RngState, mat_exp, skew


def make_params(seed=0, n=16, vocab=6):
    return md.init_holonomic(RngState(seed), n, vocab, 6)


def random_tokens(seed, length, vocab=6):
    return RngState(seed).generator().integers(0, vocab, size=length)


def test_single_token_equals_operator():
    p = make_params(1)
    h = se.sequential_holonomy(p, [3])
    expected = mat_exp(skew(p.generators[3]))
    assert np.allclose(h, expected, atol=1e-14)


def test_token_then_inverse_generator_is_identity():
    p = make_params(2)
    inverted = md.HolonomicParams(p.n, 2, np.stack([p.generators[0], -p.generators[0]]),
                                  p.h0, p.readout)
    h = se.sequential_holonomy(inverted, [0, 1])
    assert np.linalg.norm(h - np.eye(p.n), "fro") < 1e-11


def test_sequential_drift_controlled_at_5000():
    p = make_params(3, n=16)
    tokens = random_tokens(4, 5000)
    h = se.sequential_holonomy(p, tokens, se.ScanPlan(renorm_interval=64))
    assert se.orthogonality_drift(h) < 1e-10


def test_drift_grows_without_renorm_and_stays_small_with():
    p = make_params(5, n=32)
    tokens = random_tokens(6, 10_000)
    lazy = se.sequential_holonomy(p, tokens, se.ScanPlan(renorm_interval=10 ** 9))
    tight = se.sequential_holonomy(p, tokens, se.ScanPlan(renorm_interval=64))
    assert se.orthogonality_drift(tight) < 1e-10
    assert se.orthogonality_drift(lazy) > se.orthogonality_drift(tight)


def test_tree_single_leaf_equals_sequential():
    p = make_params(7)
    tokens = [4]
    a = se.tree_scan_holonomy(p, tokens)
    b = se.sequential_holonomy(p, tokens)
    assert np.array_equal(a, b)


# vocab 45 repeats too few adjacent pairs to share, so those cases take the
# plain blocked path, odd carries and several blocks included
@pytest.mark.parametrize("length,vocab", [
    *(pytest.param(length, 6, id=str(length)) for length in (2, 3, 17, 1024)),
    *(pytest.param(length, 45, id=f"{length}-vocab45") for length in (3, 257, 4097)),
])
def test_tree_matches_sequential(length, vocab):
    p = make_params(8, vocab=vocab)
    tokens = random_tokens(9 + length, length, vocab=vocab)
    a = se.tree_scan_holonomy(p, tokens)
    b = se.sequential_holonomy(p, tokens)
    assert np.linalg.norm(a - b, "fro") < 1e-9


def test_tree_renormalizes_per_interval_in_float32():
    p = make_params(25, n=32)
    tokens = random_tokens(26, 2 ** 14)
    ops = se.build_operators(p, precision=32)
    lazy = se.tree_scan_holonomy(p, tokens, se.ScanPlan(renorm_interval=10 ** 9, precision=32),
                                 operators=ops)
    tight = se.tree_scan_holonomy(p, tokens, se.ScanPlan(renorm_interval=64, precision=32),
                                  operators=ops)
    assert tight.dtype == np.float32
    assert se.orthogonality_drift(tight) < 1e-5
    assert se.orthogonality_drift(lazy) > se.orthogonality_drift(tight)


def test_tree_workers_agree_with_serial_tree():
    p = make_params(10)
    tokens = random_tokens(11, 4096)
    a = se.tree_scan_holonomy(p, tokens, workers=1)
    b = se.tree_scan_holonomy(p, tokens, workers=4)
    assert np.array_equal(a, b)


def test_tree_operand_order_matters():
    # swapping the operand order at one combine node changes the product
    p = make_params(12)
    tokens = random_tokens(13, 8)
    ops = se.build_operators(p)
    stack = ops[np.asarray(tokens)]
    good = stack[1] @ stack[0]
    bad = stack[0] @ stack[1]
    assert np.linalg.norm(good - bad, "fro") > 1e-6


def test_streaming_identity_generator_stream():
    p = make_params(14)
    fixed = md.HolonomicParams(p.n, 1, np.zeros((1, p.n, p.n)), p.h0, p.readout)
    h, stats = se.streaming_infer(fixed, iter([0] * 50))
    assert np.allclose(h, p.h0, atol=1e-14)
    assert stats.steps == 50


def test_streaming_matches_sequential_at_5000():
    p = make_params(15, n=16)
    tokens = random_tokens(16, 5000)
    h_stream, _ = se.streaming_infer(p, iter(tokens.tolist()))
    h_op = se.sequential_holonomy(p, tokens) @ p.h0
    assert np.max(np.abs(h_stream - h_op)) < 1e-9


def test_streaming_memory_counter_is_length_independent():
    p = make_params(17)
    _, s100 = se.streaming_infer(p, iter(random_tokens(18, 100).tolist()))
    _, s5000 = se.streaming_infer(p, iter(random_tokens(18, 5000).tolist()))
    assert s100.peak_aux_floats == s5000.peak_aux_floats


def test_streaming_tracked_operator_matches_sequential():
    p = make_params(19, n=8)
    tokens = random_tokens(20, 513)
    h, acc, _ = se.streaming_infer(p, iter(tokens.tolist()), track_operator=True)
    h_seq = se.sequential_holonomy(p, tokens)
    assert np.linalg.norm(acc - h_seq, "fro") < 1e-9


def test_empty_sequence_rejected():
    p = make_params(21)
    with pytest.raises(ArgumentError):
        se.sequential_holonomy(p, [])
    with pytest.raises(ArgumentError):
        se.tree_scan_holonomy(p, [])


def test_tree_rejects_token_outside_vocabulary():
    p = make_params(21)
    for bad in ([0, p.vocab], [-1, 0]):
        with pytest.raises(ArgumentError):
            se.tree_scan_holonomy(p, bad)


def test_sequential_rejects_token_outside_vocabulary():
    p = make_params(21)
    for bad in ([0, p.vocab], [-1, 0]):
        with pytest.raises(ArgumentError):
            se.sequential_holonomy(p, bad)


def test_tree_speedup_over_sequential():
    # soft performance bound: tree at least 2x sequential. Both paths are
    # warmed, then each mode is timed as the best of 5 interleaved calls, so a
    # slow phase of a shared host does not land on one mode alone.
    p = make_params(22, n=32)
    tokens = random_tokens(23, 2 ** 14)
    ops = se.build_operators(p)
    modes = {
        "sequential": lambda: se.sequential_holonomy(p, tokens, operators=ops),
        "tree": lambda: se.tree_scan_holonomy(p, tokens, workers=4, operators=ops),
    }
    out = {mode: fn() for mode, fn in modes.items()}
    best = dict.fromkeys(modes, float("inf"))
    for _ in range(5):
        for mode, fn in modes.items():
            start = time.perf_counter()
            fn()
            best[mode] = min(best[mode], time.perf_counter() - start)
    assert np.linalg.norm(out["sequential"] - out["tree"], "fro") < 1e-9
    assert best["sequential"] / best["tree"] >= 2.0


def test_bench_rows_schema():
    p = make_params(24, n=8)
    rows = se.bench_scan(p, [64, 128], workers=2)
    assert len(rows) == 4
    for row in rows:
        assert set(row) == {"mode", "N", "L", "workers", "wall_ms", "ortho_drift"}
        assert row["ortho_drift"] < 1e-9
