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
from .experiments import SweepResult, estimate_tc, fit_log_scaling
from .group_tasks import (
    BINDING,
    S3,
    S3_CAYLEY,
    S3_ELEMENTS,
    TaskConfig,
    naive_binding_target,
    naive_s3_target,
    perm_compose,
    s3_id,
    s3_sample_episode,
)
from .tensor_core import RngState


def _skew_exp(m, algorithm):
    """skew_exp_kernel on one matrix, which must go by `algorithm`."""
    out, saved = ge.skew_exp_kernel(m[None])
    assert saved[0].__name__ == f"_{algorithm}_adjoint", \
        f"n={len(m)} took {saved[0].__name__}, not {algorithm}"
    return out[0]


def check_orthogonality(seed):
    # one matrix at n = 8 and 32 is small enough for skew_exp's Taylor
    # algorithm, at n = 128 it goes by eigh
    for n, algorithm in ((8, "taylor"), (32, "taylor"), (128, "eigh")):
        m = RngState(seed).child(n).generator().standard_normal((n, n))
        pade, u = tc.mat_exp(tc.skew(m)), _skew_exp(m, algorithm)
        gap = np.max(np.abs(u - pade))
        assert gap < 1e-13, f"n={n} skew_exp differs from mat_exp by {gap:.3e}"
        for route, x in (("mat_exp", pade), ("skew_exp", u)):
            defect = np.linalg.norm(x.T @ x - np.eye(n), "fro")
            assert defect < 1e-12, f"n={n} {route} defect {defect:.3e}"
            sign, _ = np.linalg.slogdet(x)
            assert sign == 1.0, f"n={n} {route} determinant sign {sign}"
    # both algorithms on one S3-sized stack at a trained model's scale
    stack = 0.2 * RngState(seed).child(0).generator().standard_normal((6, 32, 32))
    gap = np.max(np.abs(ge._taylor_exp(stack)[0] - ge._eigh_exp(stack)[0]))
    assert gap < 1e-13, f"skew_exp's Taylor and eigh differ by {gap:.3e}"


def check_exp_inverse(seed):
    # the Pade oracle's own, then the kernel that runs, by either algorithm:
    # U(M^T) = exp(-(M - M^T)) inverts U(M)
    a = tc.skew(RngState(seed).generator().standard_normal((10, 10)))
    gap = np.linalg.norm(tc.mat_exp(a) @ tc.mat_exp(-a) - np.eye(10), "fro")
    assert gap < 1e-11, f"exp(A) exp(-A) defect {gap:.3e}"
    for n, algorithm in ((10, "taylor"), (128, "eigh")):
        m = RngState(seed).child(n).generator().standard_normal((n, n))
        gap = np.linalg.norm(_skew_exp(m, algorithm) @ _skew_exp(m.T, algorithm)
                             - np.eye(n), "fro")
        assert gap < 1e-11, f"n={n} skew_exp U(M) U(M^T) defect {gap:.3e}"


def check_frechet_linearity(seed):
    # the Pade oracle's own, then the skew_exp adjoint that training runs: its
    # VJP is linear in the cotangent, by Taylor at n = 8 and by eigh on a
    # (1, 96, 96) stack
    gen = RngState(seed).generator()
    a = gen.standard_normal((5, 5))
    e1, e2 = gen.standard_normal((2, 5, 5))
    _, l1 = tc.mat_exp_frechet(a, e1)
    _, l2 = tc.mat_exp_frechet(a, e2)
    _, lmix = tc.mat_exp_frechet(a, 1.5 * e1 - 0.5 * e2)
    gap = np.linalg.norm(lmix - (1.5 * l1 - 0.5 * l2), "fro")
    assert gap < 1e-10, f"linearity defect {gap:.3e}"
    for n, algorithm in ((8, "taylor"), (96, "eigh")):
        m, g1, g2 = gen.standard_normal((3, 1, n, n))
        _skew_exp(m[0], algorithm)
        tape = ge.Tape()
        leaf = tape.leaf(m)
        out = ge.skew_exp(leaf)
        v1, v2, vmix = (tape.vjp(out, g)[leaf.idx] for g in (g1, g2, 1.5 * g1 - 0.5 * g2))
        gap = np.linalg.norm(vmix - (1.5 * v1 - 0.5 * v2))
        assert gap < 1e-10, f"skew_exp {algorithm} VJP linearity defect {gap:.3e}"


def check_adjoint_pairing(seed):
    gen = RngState(seed).generator()
    a, e, gbar = gen.standard_normal((3, 6, 6))
    _, l = tc.mat_exp_frechet(a, e)
    _, adj = tc.mat_exp_frechet(a.T, gbar)
    gap = abs(np.sum(l * gbar) - np.sum(e * adj))
    assert gap < 1e-10, f"adjoint pairing defect {gap:.3e}"
    # skew_exp's adjoint against the block Frechet derivative: its Taylor
    # algorithm at n = 8, and eigh on a (1, 96, 96) stack, past
    # TAYLOR_MAX_ENTRIES as binding's generators are
    for n, algorithm in ((8, "taylor"), (96, "eigh")):
        m, e, gbar = gen.standard_normal((3, n, n))
        _skew_exp(m, algorithm)
        tape = ge.Tape()
        leaf = tape.leaf(m[None])
        grads = tape.vjp(ge.skew_exp(leaf), gbar[None])
        _, l = tc.mat_exp_frechet(tc.skew(m), tc.skew(e))
        gap = abs(np.sum(l * gbar) - np.sum(e * grads[leaf.idx][0]))
        assert gap < 1e-10, f"skew_exp {algorithm} adjoint pairing defect {gap:.3e}"


def check_gradients(seed):
    # the training graphs on one mixed-length batch: padded rows, both
    # branches of rnn_scan, the transformer's packed stream of four segments
    mixed = TaskConfig().sample_batch(RngState(seed).child(10).generator(), [1, 2, 3, 4])
    for params in (md.init_holonomic(RngState(seed), 6, 6, 6),
                   md.init_rnn(RngState(seed + 3), 6, 6, 6),
                   md.init_rnn(RngState(seed + 1), 6, 6, 6, normalized=True),
                   md.init_transformer(RngState(seed + 2), 8, 2, 2, 8, 6, 6, max_len=8)):
        # a key bias's exact gradient is 0 (a softmax row does not move under
        # a shift): grad_check's noise floor passes it
        def build(tape, leaves):
            return md.tape_batch_loss(params, tape, leaves, mixed)

        # central differences round off by ~eps_mach |loss| / eps: over seeds
        # 0-9 the error read up to 8.1e-6 at eps = 1e-6, 1.4e-6 at 1e-5
        err = ge.grad_check(build, ge.ParamStore(params.to_dict()), eps=1e-5)
        assert err < 1e-5, f"{params.kind} training-graph grad error {err:.3e}"


def check_cayley_table(_seed):
    # S3_CAYLEY, the table an S3 task's prefix_targets folds, composes the permutations and is
    # a group table: id 0 a two-sided identity, each row and column a
    # permutation, and associative
    t, ids = S3_CAYLEY, np.arange(6)
    for a, b in itertools.product(ids, ids):
        assert t[a, b] == s3_id(perm_compose(S3_ELEMENTS[a], S3_ELEMENTS[b])), (a, b)
    assert np.array_equal(t[0], ids) and np.array_equal(t[:, 0], ids), "id 0 is not the identity"
    assert (np.sort(t, axis=0).T == ids).all() and (np.sort(t, axis=1) == ids).all(), \
        "Cayley table not a latin square"
    assert np.array_equal(t[t], t[:, t]), "Cayley table not associative"


def check_episode_oracles(seed):
    # 10 batches of 1000 per task, lengths mixed within each batch
    s3, binding = TaskConfig(), TaskConfig(BINDING, 10)
    for b in range(10):
        mix = np.arange(1000) + 7 * b
        batch = s3.sample_batch(RngState(seed).child(0, b).generator(), 1 + mix % 8)
        for i, ep in enumerate(batch):
            assert ep.target == naive_s3_target(ep.tokens), f"s3 mismatch at {b}/{i}"
        batch = binding.sample_batch(RngState(seed).child(1, b).generator(), 1 + mix % 60)
        for i, ep in enumerate(batch):
            assert ep.target == naive_binding_target(ep.tokens, 10, ep.query), \
                f"binding mismatch at {b}/{i}"


def check_isometry(seed):
    p = md.init_holonomic(RngState(seed), 32, 6, 6)
    ep = s3_sample_episode(RngState(seed).child(3), 2000)
    # every 10th prefix of the episode, left-padded into one (200, 2000) block
    padded = np.concatenate([np.full(2000, ge.IDENTITY_STEP), ep.tokens])
    ids = np.lib.stride_tricks.sliding_window_view(padded, 2000)[10::10]
    h, _ = md.forward_batch(p, ids)
    worst = np.max(np.abs(np.linalg.norm(h, axis=1) / np.linalg.norm(p.h0) - 1.0))
    assert worst < 1e-9, f"isometry drift {worst:.3e}"


def check_noise_silence(seed):
    # T = 0 with an rng draws nothing, for every kind, on a block with a padded row
    ep = s3_sample_episode(RngState(seed).child(4), 5)
    ids = np.array([(ge.IDENTITY_STEP, ge.IDENTITY_STEP) + ep.tokens[:3], ep.tokens])
    for params in (md.init_holonomic(RngState(seed), 8, 6, 6),
                   md.init_rnn(RngState(seed), 8, 6, 6),
                   md.init_rnn(RngState(seed), 8, 6, 6, normalized=True),
                   md.init_transformer(RngState(seed), 8, 2, 2, 8, 6, 6, max_len=8)):
        _, c = md.forward_batch(params, ids)
        _, d = md.forward_batch(params, ids, None, 0.0, RngState(12345))
        assert np.array_equal(c, d), f"{params.kind} batched noise hook fired while disabled"


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
    h_state, _ = md.forward_batch(p, tokens[None])
    assert np.max(np.abs(h_state[0] - h_seq @ p.h0)) < 1e-9, \
        "forward_batch != sequential"
    # each layout of the holonomic step on a mixed-length block: every row
    # against sequential_holonomy, and the training node's bits against
    # forward_batch's (they share one kernel)
    lengths = [1, 40, 17, 64]
    for n, vocab, padded in ((16, 6, True), (64, 45, False)):
        gen = RngState(seed).child(6, n).generator()
        ids = TaskConfig(S3 if vocab == 6 else BINDING, 10).draw(gen, lengths)[0]
        params = md.init_holonomic(RngState(seed).child(7, n), n, vocab, 6)
        ops = params.operators()
        layout = "padded" if padded else "grouped"
        assert ge.token_schedule(ids, ops).padded == padded, f"n={n} not {layout}"
        h_batch, _ = md.forward_batch(params, ids, operators=ops)
        for row, h in zip(ids, h_batch):
            h_seq = se.sequential_holonomy(params, row[row != ge.IDENTITY_STEP]) @ params.h0
            assert np.max(np.abs(h - h_seq)) < 1e-9, f"{layout} forward_batch != sequential"
        tape = ge.Tape()
        h_scan = ge.holonomic_scan(tape.leaf(ops), ids, tape.leaf(params.h0)).value
        assert np.array_equal(h_scan, h_batch), f"{layout} holonomic_scan != forward_batch"


def check_tc_estimator(_seed):
    grid = np.linspace(0, 1.0, 11)
    step = np.where(grid < 0.3, 1.0, 1.0 / 6.0)
    outcomes = np.tile(step[:, None], (1, 400)) > RngState(1).generator().random((11, 400))
    sweep = SweepResult(grid, outcomes)
    tc_est = estimate_tc(sweep, threshold=0.99, rng=RngState(2))
    assert abs(tc_est.value - 0.3) <= 0.1 + 1e-9, f"step-curve Tc {tc_est.value}"
    assert tc_est.lo <= tc_est.value <= tc_est.hi, f"Tc CI {tc_est.lo, tc_est.hi}"
    # every level's band holds its mean, and a perfect level's band is the point 1
    acc = sweep.acc_mean
    assert np.all((tc_est.acc_lo <= acc) & (acc <= tc_est.acc_hi)), "a band misses its mean"
    assert np.all(tc_est.acc_lo[acc == 1.0] == 1.0), "a perfect level's band is not [1, 1]"


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
