"""Self-contained invariant suite behind the `verify` subcommand.

Each check re-derives an expected value through an independent route
(exhaustive enumeration, finite differences, naive simulators) and asserts
the library agrees. Prints one PASS/FAIL line per check.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from . import grad_engine as ge
from . import models as md
from . import scan_engine as se
from . import tensor_core as tc
from .experiments import SweepResult, TaskConfig, estimate_tc, fit_log_scaling
from .group_tasks import (
    S3_ELEMENTS,
    naive_binding_target,
    naive_s3_target,
    perm_compose,
    s3_id,
    s3_sample_batch,
    s3_sample_episode,
    sv_sample_batch,
    swap_token,
    swap_vocabulary,
)
from .tensor_core import RngState


def check_orthogonality(seed):
    for n in (8, 32, 128):
        m = RngState(seed).child(n).generator().standard_normal((n, n))
        u = tc.mat_exp(tc.skew(m))
        defect = np.linalg.norm(u.T @ u - np.eye(n), "fro")
        assert defect < 1e-12, f"n={n} defect {defect:.3e}"
        sign, _ = np.linalg.slogdet(u)
        assert sign == 1.0, f"n={n} determinant sign {sign}"


def check_exp_inverse(seed):
    a = tc.skew(RngState(seed).generator().standard_normal((10, 10)))
    gap = np.linalg.norm(tc.mat_exp(a) @ tc.mat_exp(-a) - np.eye(10), "fro")
    assert gap < 1e-11, f"exp(A) exp(-A) defect {gap:.3e}"


def check_frechet_linearity(seed):
    gen = RngState(seed).generator()
    a = gen.standard_normal((5, 5))
    e1, e2 = gen.standard_normal((2, 5, 5))
    _, l1 = tc.mat_exp_frechet(a, e1)
    _, l2 = tc.mat_exp_frechet(a, e2)
    _, lmix = tc.mat_exp_frechet(a, 1.5 * e1 - 0.5 * e2)
    gap = np.linalg.norm(lmix - (1.5 * l1 - 0.5 * l2), "fro")
    assert gap < 1e-10, f"linearity defect {gap:.3e}"


def check_adjoint_pairing(seed):
    gen = RngState(seed).generator()
    a, e, gbar = gen.standard_normal((3, 6, 6))
    _, l = tc.mat_exp_frechet(a, e)
    _, adj = tc.mat_exp_frechet(a.T, gbar)
    gap = abs(np.sum(l * gbar) - np.sum(e * adj))
    assert gap < 1e-10, f"adjoint pairing defect {gap:.3e}"
    # skew_exp's eigendecomposition adjoint against the block Frechet derivative
    m, e, gbar = gen.standard_normal((3, 8, 8))
    tape = ge.Tape()
    leaf = tape.leaf(m[None])
    grads = tape.vjp(ge.skew_exp(leaf), gbar[None])
    _, l = tc.mat_exp_frechet(tc.skew(m), tc.skew(e))
    gap = abs(np.sum(l * gbar) - np.sum(e * grads[leaf.idx][0]))
    assert gap < 1e-10, f"skew_exp adjoint pairing defect {gap:.3e}"


def check_gradients(seed):
    params = md.init_holonomic(RngState(seed), 6, 6, 6)
    eps = [s3_sample_episode(RngState(seed).child(9), 3)]
    err = ge.grad_check(lambda t, lv: md.holonomic_tape_loss(t, lv, eps),
                        ge.ParamStore(params.to_dict()), eps=1e-6)
    assert err < 1e-5, f"holonomic grad error {err:.3e}"
    # the training graph on a mixed-length batch: padded rows, one scan node
    mixed = [s3_sample_episode(RngState(seed).child(10, i), 1 + i) for i in range(4)]
    err = ge.grad_check(
        lambda t, lv: md.tape_batch_loss(md.HOLONOMIC, t, lv, mixed),
        ge.ParamStore(params.to_dict()), eps=1e-6)
    assert err < 1e-5, f"holonomic training-graph grad error {err:.3e}"
    rnn = md.init_rnn(RngState(seed + 1), 6, 6, 6)
    err = ge.grad_check(
        lambda t, lv: md.rnn_tape_loss(t, lv, eps, normalized=True),
        ge.ParamStore(rnn.to_dict()), eps=1e-6)
    assert err < 1e-5, f"normalized rnn grad error {err:.3e}"


def check_cayley_table(_seed):
    ids = range(6)
    for a, b in itertools.product(ids, ids):
        composed = s3_id(perm_compose(S3_ELEMENTS[a], S3_ELEMENTS[b]))
        assert 0 <= composed < 6
    for a in ids:
        row = {s3_id(perm_compose(S3_ELEMENTS[a], S3_ELEMENTS[b])) for b in ids}
        col = {s3_id(perm_compose(S3_ELEMENTS[b], S3_ELEMENTS[a])) for b in ids}
        assert row == set(ids) and col == set(ids), "Cayley table not a latin square"


def check_episode_oracles(seed):
    # 10 batches of 1000 per task, lengths mixed within each batch
    for b in range(10):
        mix = np.arange(1000) + 7 * b
        batch = s3_sample_batch(RngState(seed).child(0, b).generator(), 1 + mix % 8)
        for i, ep in enumerate(batch.episodes()):
            assert ep.target == naive_s3_target(ep.tokens), f"s3 mismatch at {b}/{i}"
        batch = sv_sample_batch(RngState(seed).child(1, b).generator(), 10, 1 + mix % 60)
        for i, ep in enumerate(batch.episodes()):
            assert ep.target == naive_binding_target(ep.tokens, 10, ep.query), \
                f"binding mismatch at {b}/{i}"


def check_swap_symmetry(_seed):
    for i, j in swap_vocabulary(10):
        assert swap_token(10, i, j) == swap_token(10, j, i)


def check_isometry(seed):
    p = md.init_holonomic(RngState(seed), 32, 6, 6)
    ep = s3_sample_episode(RngState(seed).child(3), 2000)
    traj, _ = md.holonomic_forward(p, ep)
    norms = np.array([np.linalg.norm(h) for h in traj])
    worst = np.max(np.abs(norms / norms[0] - 1.0))
    assert worst < 1e-9, f"isometry drift {worst:.3e}"


def check_noise_silence(seed):
    p = md.init_holonomic(RngState(seed), 8, 6, 6)
    ep = s3_sample_episode(RngState(seed).child(4), 5)
    _, a = md.holonomic_forward(p, ep, md.NoiseConfig(), None)
    _, b = md.holonomic_forward(p, ep, md.NoiseConfig(), RngState(12345))
    assert np.array_equal(a, b), "noise hook fired while disabled"
    # the batched forward, on a block with a padded row
    ids = np.array([(ge.IDENTITY_STEP, ge.IDENTITY_STEP) + ep.tokens[:3], ep.tokens])
    for kind, params in ((md.HOLONOMIC, p), (md.RNN, md.init_rnn(RngState(seed), 8, 6, 6))):
        _, c = md.forward_batch(kind, params, ids)
        _, d = md.forward_batch(kind, params, ids, None, md.NoiseConfig(), RngState(12345))
        assert np.array_equal(c, d), f"{kind} batched noise hook fired while disabled"


def check_param_counts(seed):
    hol = md.init_holonomic(RngState(seed), 32, 45, 10, n_queries=10)
    _, items = md.param_count(hol)
    assert items["generators"] == 46080, items
    rnn = md.init_rnn(RngState(seed), 128, 6, 6)
    _, rnn_items = md.param_count(rnn)
    assert rnn_items["w_rec"] // (32 * 32) == 16, "16x recurrent ratio broken"


def check_scan_equivalence(seed):
    p = md.init_holonomic(RngState(seed), 16, 6, 6)
    tokens = RngState(seed).child(5).generator().integers(0, 6, size=2048)
    h_seq = se.sequential_holonomy(p, tokens)
    h_tree = se.tree_scan_holonomy(p, tokens, workers=2)
    assert np.linalg.norm(h_seq - h_tree, "fro") < 1e-9, "tree != sequential"
    h_stream, stats = se.streaming_infer(p, iter(tokens.tolist()))
    assert np.max(np.abs(h_stream - h_seq @ p.h0)) < 1e-9, "stream != sequential"
    _, short_stats = se.streaming_infer(p, iter(tokens[:64].tolist()))
    assert stats.peak_aux_floats == short_stats.peak_aux_floats, \
        "streaming memory grows with length"


def check_tc_estimator(_seed):
    grid = np.linspace(0, 1.0, 11)
    step = np.where(grid < 0.3, 1.0, 1.0 / 6.0)
    outcomes = np.tile(step[:, None], (1, 400)) > RngState(1).generator().random((11, 400))
    acc = outcomes.mean(axis=1)
    lo = np.where(acc >= 1.0, 1.0, acc - 0.02)  # degenerate CI at perfect accuracy
    sweep = SweepResult("synthetic", grid, acc, lo, np.minimum(acc + 0.02, 1.0),
                        400, outcomes)
    tc_est = estimate_tc(sweep, threshold=0.99, rng=RngState(2))
    assert abs(tc_est.value - 0.3) <= 0.1 + 1e-9, f"step-curve Tc {tc_est.value}"


def check_scaling_fit(_seed):
    pts = [(n, 0.2 * np.log(n) + 0.1) for n in (8, 16, 32, 64, 128)]
    fit = fit_log_scaling(pts)
    assert abs(fit.alpha - 0.2) < 1e-12 and abs(fit.beta - 0.1) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12


CHECKS = [
    ("tensor-core/orthogonality", check_orthogonality),
    ("tensor-core/exp-inverse", check_exp_inverse),
    ("tensor-core/frechet-linearity", check_frechet_linearity),
    ("grad-engine/adjoint-pairing", check_adjoint_pairing),
    ("grad-engine/model-gradients", check_gradients),
    ("group-tasks/cayley-table", check_cayley_table),
    ("group-tasks/episode-oracles", check_episode_oracles),
    ("group-tasks/swap-symmetry", check_swap_symmetry),
    ("models/isometry", check_isometry),
    ("models/noise-silence", check_noise_silence),
    ("models/param-counts", check_param_counts),
    ("scan-engine/equivalence", check_scan_equivalence),
    ("experiments/tc-estimator", check_tc_estimator),
    ("experiments/scaling-fit", check_scaling_fit),
]


def run_verification(seed: int = 0, stream=sys.stdout) -> bool:
    ok = True
    for name, fn in CHECKS:
        try:
            fn(seed)
            stream.write(f"PASS {name}\n")
        except AssertionError as err:
            ok = False
            stream.write(f"FAIL {name}: {err}\n")
    stream.write(("all checks passed" if ok else "FAILURES detected") + "\n")
    return ok
