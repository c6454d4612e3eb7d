"""Exact constructed checkpoints: oracles with a known answer for the probes.

A holonomic model whose operators form an exact representation of the task's
group solves it at every length, as the automaton solutions of Liu et al.,
"Transformers learn shortcuts to automata" (ICLR 2023), do. Its generators
are half the real logarithm of each operator, since the model runs
exp(M - M^T). Every probe here goes through `experiments.prefix_pass`.
"""

import math

import numpy as np
import pytest

from holonet import experiments as ex
from holonet import models as md
from holonet.group_tasks import BINDING, S3_CAYLEY, S3_ELEMENTS, TaskConfig, swap_vocabulary
from holonet.tensor_core import RngState, mat_exp, skew


def skew_log(u: np.ndarray) -> np.ndarray:
    """The real logarithm of a rotation u in SO(n): a skew K with exp(K) = u.

    u commutes with its symmetric part S = (u + u^T) / 2, whose eigenvalues
    are the cosines lambda of u's rotation angles. Where lambda > -1,
    K = (u - u^T) / 2 g(S) with g(lambda) = arccos(lambda) / sqrt(1 - lambda^2)
    and g(1) = 1. The lambda = -1 eigenspace, even-dimensional in SO(n), is a
    half turn: pi (b a^T - a b^T) for each pair (a, b) of its eigenvectors.
    The half turns are masked before dividing, so nothing divides by zero,
    and the result is antisymmetrized, which removes only rounding.
    """
    lam, vecs = np.linalg.eigh((u + u.T) / 2)
    lam = np.clip(lam, -1.0, 1.0)
    half = lam < -1.0 + 1e-9
    turning = ~half & (lam < 1.0)
    g = np.where(half, 0.0, 1.0)    # u - u^T vanishes on the half turns
    g[turning] = np.arccos(lam[turning]) / np.sqrt(1.0 - lam[turning] ** 2)
    log = (u - u.T) / 2 @ (vecs * g) @ vecs.T
    plane = vecs[:, half].T
    assert plane.shape[0] % 2 == 0, "a rotation's -1 eigenspace is even-dimensional"
    for a, b in zip(plane[0::2], plane[1::2]):
        log += math.pi * (np.outer(b, a) - np.outer(a, b))
    return (log - log.T) / 2


def exact_operators(task: TaskConfig, n: int) -> tuple:
    """(operators, h0, readout) of the exact solution, each operator a
    rotation of R^n that is the identity past the coordinates it uses.

    S3 (n >= 7): the left-regular representation on coordinates 0-5,
    U_t e_g = e_{t.g}, and the sign of t on coordinate 6, which makes the
    transpositions rotations; h0 = e_0 and the readout reads coordinates
    0-5. Binding over v slots (n >= v^2): the swap s of two slots permutes
    the rows of the assignment A[slot, value], kron(P_s, I_v) on vec(A);
    h0 = vec(I) / sqrt(v), and readout q reads block q, A's row q.
    """
    if task.kind == BINDING:
        v = task.variables
        used = v * v
        blocks = []
        for i, j in swap_vocabulary(v):
            perm = np.eye(v)
            perm[[i, j]] = perm[[j, i]]
            blocks.append(np.kron(perm, np.eye(v)))
        h0 = np.eye(v).ravel() / math.sqrt(v)
        readout = np.zeros((v, v, n))
        for q in range(v):
            readout[q, :, q * v:(q + 1) * v] = np.eye(v)
    else:
        used = 7
        blocks = []
        for t, element in enumerate(S3_ELEMENTS):
            block = np.zeros((used, used))
            block[S3_CAYLEY[t], np.arange(6)] = 1.0
            block[6, 6] = round(np.linalg.det(np.eye(3)[list(element)]))
            blocks.append(block)
        h0 = np.eye(used)[0]
        readout = np.eye(6, n)[None]
    ops = np.tile(np.eye(n), (len(blocks), 1, 1))
    ops[:, :used, :used] = blocks
    return ops, np.pad(h0, (0, n - used)), readout


def exact_checkpoint(task: TaskConfig, n: int) -> md.HolonomicParams:
    """The holonomic model that runs `exact_operators`: generators log U / 2."""
    ops, h0, readout = exact_operators(task, n)
    generators = np.stack([skew_log(u) / 2 for u in ops])
    return md.HolonomicParams(n, task.vocab, generators, h0, readout)


S3_TASK = TaskConfig()
BINDING_TASK = TaskConfig(kind=BINDING, variables=4)
CHECKPOINTS = [(S3_TASK, 8), (BINDING_TASK, 16)]


def random_rotation(seed: int, n: int) -> np.ndarray:
    return mat_exp(skew(RngState(seed).generator().standard_normal((n, n))))


ROTATIONS = {"identity": np.eye(5), "two-half-turns": -np.eye(4),
             "one-half-turn": np.diag([-1.0, 1.0, -1.0]),
             "random-6": random_rotation(1, 6), "random-9": random_rotation(2, 9),
             **{f"s3-{t}": u for t, u in enumerate(exact_operators(S3_TASK, 8)[0])},
             **{f"binding-{s}": u for s, u in enumerate(exact_operators(BINDING_TASK, 16)[0])}}


@pytest.mark.filterwarnings("error")    # the half turns divide nothing by zero
@pytest.mark.parametrize("u", ROTATIONS.values(), ids=ROTATIONS.keys())
def test_skew_log_is_a_skew_logarithm_of_every_rotation(u):
    log = skew_log(u)
    assert np.array_equal(log, -log.T)
    assert np.allclose(mat_exp(log), u, rtol=0, atol=1e-13)


@pytest.mark.parametrize("task, n", CHECKPOINTS, ids=["s3", "binding"])
def test_exact_checkpoints_run_their_operators(task, n):
    params = exact_checkpoint(task, n)
    ops = exact_operators(task, n)[0]
    assert np.allclose(params.operators(), ops, rtol=0, atol=1e-14)
    assert np.allclose(np.einsum("kij,kil->kjl", ops, ops), np.eye(n), rtol=0, atol=0)
    assert np.allclose(np.linalg.det(ops), 1.0, rtol=0, atol=1e-12)


LENGTHS = [5, 50, 500, 5000]


@pytest.mark.parametrize("task, n", CHECKPOINTS, ids=["s3", "binding"])
def test_exact_checkpoints_score_every_length_from_one_prefix_pass(task, n):
    params = exact_checkpoint(task, n)
    ids, queries = task.draw(RngState(60).generator(), np.full(64, max(LENGTHS)))
    states, logits, targets = ex.prefix_pass(params, task, ids, queries, LENGTHS)
    assert states.shape == (4, 64, n) and targets.shape == (4, 64)
    assert np.array_equal(np.argmax(logits, axis=-1), targets)
    # the logits are the true label's indicator, scaled by h0's weight on
    # each slot: 1 for S3, 1 / sqrt(v) for binding
    scale = 1.0 if queries is None else 1.0 / math.sqrt(task.variables)
    assert np.allclose(logits, scale * np.eye(task.n_classes)[targets], rtol=0, atol=1e-11)
    assert np.allclose(np.linalg.norm(states, axis=-1), 1.0, rtol=0, atol=1e-12)
    rows = ex.length_generalization_eval(params, task, LENGTHS, 64, 64, RngState(61))
    assert [row["acc"] for row in rows] == [1.0] * len(LENGTHS)


def test_exact_s3_classes_sit_at_right_angles():
    result = ex.mass_gap(exact_checkpoint(S3_TASK, 8), S3_TASK, RngState(62),
                         episodes_per_class=20, length=5)
    assert len(result.centroids) == 6
    assert result.delta == pytest.approx(math.pi / 2, rel=0, abs=1e-12)
    assert all(g == pytest.approx(math.pi / 2, rel=0, abs=1e-12)
               for _, _, g in result.geodesics)
