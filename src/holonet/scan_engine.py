"""Path-ordered products of orthogonal operators, two ways.

sequential: one operator product with polar re-orthonormalization every K
steps. tree: pairwise associative reduction (log-depth) with batched
matmuls; early levels multiply each distinct adjacent pair once, later
levels fold cache-sized blocks, and levels whose sub-products span at least
K tokens get one inverse-free Newton-Schulz orthogonalization pass.
State-only evolution (h_L = H_L h0 without forming H_L) is
`models.forward_batch`.

A run builds its operators once, over the whole vocabulary, with the
training graph's `skew_exp` kernel (`build_operators`): matmuls only for
scan-bench's 6 tokens at n = 32, one batched eigh for a large stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .errors import ArgumentError
from .models import HolonomicParams


@dataclass(frozen=True)
class ScanPlan:
    renorm_interval: int = 64     # K
    precision: int = 64

    def __post_init__(self):
        if self.renorm_interval < 1:
            raise ArgumentError("renorm interval must be >= 1")
        if self.precision not in (32, 64):
            raise ArgumentError("precision must be 32 or 64")


def build_operators(p: HolonomicParams, precision: int = 64) -> np.ndarray:
    """`HolonomicParams.operators`, in the requested precision."""
    ops = p.operators()
    return ops.astype(np.float32) if precision == 32 else ops


def _check_vocabulary(tokens, vocab: int) -> np.ndarray:
    ids = np.asarray(tokens, dtype=np.intp)
    if ids.min() < 0 or ids.max() >= vocab:
        raise ArgumentError(f"token outside vocabulary of size {vocab}")
    return ids


def sequential_holonomy(p: HolonomicParams, tokens, plan: ScanPlan = ScanPlan(),
                        operators: np.ndarray | None = None) -> np.ndarray:
    """H_L = U_L ... U_1 with re-orthonormalization every K steps."""
    if len(tokens) == 0:
        raise ArgumentError("sequential_holonomy: empty token sequence")
    ops = operators if operators is not None else build_operators(p, plan.precision)
    _check_vocabulary(tokens, ops.shape[0])
    h = np.eye(p.n, dtype=ops.dtype)
    for i, tok in enumerate(tokens):
        h = ops[tok] @ h
        if (i + 1) % plan.renorm_interval == 0:
            h = tc.reorthonormalize(h.astype(np.float64)).astype(ops.dtype)
    return h


# Matrices gathered and folded at a time (1 MiB at n = 32 in float64, so a
# block stays in a core's L2). Fixed, so how the product associates never
# depends on the caller.
_BLOCK = 128


def _product(right, left, out, span: int, plan: ScanPlan, scratch) -> None:
    """out <- right @ left over stacks. Once the products span K tokens, one
    inverse-free Newton-Schulz pass follows: X <- X (3 I - X^T X) / 2."""
    if span < plan.renorm_interval:
        np.matmul(right, left, out=out)
        return
    k, n = out.shape[0], out.shape[-1]
    x, xc, g = scratch[2][:k], scratch[3][:k], scratch[4][:k]
    np.matmul(right, left, out=x)
    np.copyto(xc, x)    # distinct operands keep numpy off its slower syrk path
    np.matmul(xc.transpose(0, 2, 1), x, out=g)
    g *= -0.5
    g.reshape(k, n * n)[:, ::n + 1] += 1.5
    np.matmul(x, g, out=out)


def _fold(table, ids, span: int, plan: ScanPlan, scratch, out) -> None:
    """out <- the product of table[ids], later factors on the left, by pairwise
    folding in scratch; an odd trailing element is carried up unchanged."""
    m = ids.shape[0]
    src, dst = scratch[0], scratch[1]
    # ids are in range; "clip" only spares numpy a buffered bounds check
    np.take(table, ids, axis=0, out=src[:m], mode="clip")
    while m > 1:
        pairs, odd = divmod(m, 2)
        span *= 2
        _product(src[1:2 * pairs:2], src[0:2 * pairs:2], dst[:pairs], span, plan, scratch)
        if odd:
            dst[pairs] = src[m - 1]
        src, dst, m = dst, src, pairs + odd
    out[...] = src[0]


def _share_pairs(table, ids, plan: ScanPlan, scratch):
    """Reduce levels by id while adjacent pairs repeat.

    On each level only the distinct (right, left) id pairs are multiplied, and
    the sequence carries ids into the table of those products. Sharing stops on
    the first level whose distinct pairs are more than half its pairs. Returns
    the table, the ids into it, and the tokens each id covers.
    """
    span = 1
    while ids.shape[0] > 1:
        pairs, odd = divmod(ids.shape[0], 2)
        width = table.shape[0]
        keys = ids[1:2 * pairs:2] * width + ids[0:2 * pairs:2]
        uniq, inv = np.unique(keys, return_inverse=True)
        if 2 * uniq.shape[0] > pairs:
            break
        span *= 2
        nxt = np.empty((uniq.shape[0] + odd,) + table.shape[1:], table.dtype)
        for a in range(0, uniq.shape[0], _BLOCK):
            k = uniq[a:a + _BLOCK]
            right, left = scratch[0][:k.shape[0]], scratch[1][:k.shape[0]]
            np.take(table, k // width, axis=0, out=right, mode="clip")
            np.take(table, k % width, axis=0, out=left, mode="clip")
            _product(right, left, nxt[a:a + k.shape[0]], span, plan, scratch)
        if odd:
            nxt[-1] = table[ids[-1]]
            inv = np.append(inv, uniq.shape[0])
        table, ids = nxt, inv
    return table, ids, span


def tree_scan_holonomy(p: HolonomicParams, tokens, plan: ScanPlan = ScanPlan(),
                       workers: int = 1,
                       operators: np.ndarray | None = None) -> np.ndarray:
    """Same product as sequential, via pairwise associative reduction.

    Early levels multiply only the distinct adjacent sub-products, which a
    small vocabulary repeats, and carry ids instead of matrices. The rest is
    gathered and folded in fixed-size blocks, then the block results are
    folded the same way, until one matrix is left. Levels whose sub-products
    span at least K = plan.renorm_interval tokens get one Newton-Schulz pass.

    `workers` is validated and kept for callers, but the reduction runs on
    the calling thread: a thread pool over the blocks measured no faster on
    2 vCPUs. Blocks and operand order are fixed, so the result is the same
    bits for any `workers`.
    """
    if len(tokens) == 0:
        raise ArgumentError("tree_scan_holonomy: empty token sequence")
    if workers < 1:
        raise ArgumentError("workers must be >= 1")
    ops = operators if operators is not None else build_operators(p, plan.precision)
    ids = _check_vocabulary(tokens, ops.shape[0])
    scratch = np.empty((5, _BLOCK) + ops.shape[1:], ops.dtype)
    table, ids, span = _share_pairs(ops, ids, plan, scratch)
    while True:
        nblocks = -(-ids.shape[0] // _BLOCK)
        partial = np.empty((nblocks,) + ops.shape[1:], ops.dtype)
        for b in range(nblocks):
            _fold(table, ids[b * _BLOCK:(b + 1) * _BLOCK], span, plan, scratch, partial[b])
        if nblocks == 1:
            return partial[0]
        table, ids, span = partial, np.arange(nblocks), span * _BLOCK


def orthogonality_drift(h: np.ndarray) -> float:
    return float(np.linalg.norm(h.T @ h - np.eye(h.shape[0]), "fro"))


def bench_scan(p: HolonomicParams, lengths, workers: int = 1,
               rng: tc.RngState | None = None,
               plan: ScanPlan = ScanPlan()) -> list[dict]:
    """Wall-clock rows for the benchmark CSV: mode,N,L,workers,wall_ms,ortho_drift."""
    import time

    rng = rng or tc.RngState(0)
    ops = build_operators(p, plan.precision)
    rows = []
    for li, length in enumerate(lengths):
        tokens = rng.child(li).generator().integers(0, p.vocab, size=length)
        for mode, fn in (
            ("sequential", lambda: sequential_holonomy(p, tokens, plan, ops)),
            ("tree", lambda: tree_scan_holonomy(p, tokens, plan, workers, ops)),
        ):
            start = time.perf_counter()
            h = fn()
            wall_ms = (time.perf_counter() - start) * 1e3
            rows.append({"mode": mode, "N": p.n, "L": int(length),
                         "workers": workers if mode == "tree" else 1,
                         "wall_ms": wall_ms, "ortho_drift": orthogonality_drift(h)})
    return rows
