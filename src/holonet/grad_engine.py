"""Tape-based reverse-mode automatic differentiation.

A Tape records primitive applications in topological order; backward
replays them in reverse, accumulating exact cotangents. The primitive set
is what the models' training graphs build, and nothing else:

  * add (of equal shapes), layer normalization and embedding lookup;
  * fused batch nodes: readout gather, mean cross-entropy, `skew_exp`
    (exp(M - M^T) for a whole generator stack: a small one by a scaled
    Taylor polynomial, matmuls only, a large one by one real symmetric
    eigendecomposition with the Daleckii-Krein adjoint), `holonomic_scan` and
    `rnn_scan` (the holonomic recurrence, and the tanh RNN plain or
    normalized, over a left-padded (B, L) token matrix, one node per batch),
    `encoder_layer` (one pre-LN transformer layer, its 16 weights as inputs)
    and `segment_pool` (each sequence's last token or mean), both on a packed
    (T, d) token stream of any length mix.

Training and inference share one numpy kernel per piece of a model, so the
two give the same bits: `skew_exp_kernel` (run by the `skew_exp` node and by
`models.HolonomicParams.operators`, so by every probe and scan), `token_step`
(the holonomic step, run by `holonomic_scan` forward and backward and by
`models.forward_batch`), `rnn_step` and `rnn_step_adjoint` (the RNN step and
its adjoint, run by `rnn_scan` forward and backward, by
`models.forward_batch` and by the Jacobian horizon) and
`encoder_layer_kernel` (run by the `encoder_layer` node and by
`models.transformer_forward_batch`). `token_step` multiplies each row of a
state block by its token's matrix in the layout the block's `token_schedule`
(one argsort and one bincount) picks once: grouped, one matmul per token
present over the rows that hold it, or padded, one batched matmul of a
(V, m_t, n) buffer against the (V, n, n) bank, whichever costs less when a
GEMM call is valued at GEMM_CALL_MACS multiply-adds of padding (a measured
exchange rate): S3's vocabulary of 6 goes padded at n = 32, binding's 45
stays grouped at n = 128.

Values are numpy arrays; a scalar is a 0-d array. Gradients are bitwise
deterministic for identical tapes: the reverse sweep is a fixed-order
sequential accumulation.

Memory follows two rules. One tape is alive per training step: the trainer
frees a step's tape, loss and gradients before the next step's graph is
built. And a node saves only what its backward reads: a cheap elementwise
value is recomputed instead (`encoder_layer` rebuilds its LayerNorm outputs
xhat * gain + bias and its [Wq Wk Wv] concatenation by the forward's own
arithmetic, so the bits do not change), and the fused backward rules write
their products into buffers they no longer need.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor_core
from .errors import ArgumentError, DimensionError, NumericError


class Var:
    """Handle on one tape node."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> np.ndarray:
        return self.tape.values[self.idx]

    @property
    def grad(self) -> np.ndarray | None:
        return self.tape.grads[self.idx]

    def __add__(self, other: "Var") -> "Var":
        return add(self, other)


class Tape:
    """Wengert list: parallel arrays of (op, input ids, value, aux)."""

    def __init__(self):
        self.ops: list[str] = []
        self.inputs: list[tuple[int, ...]] = []
        self.values: list[np.ndarray] = []
        self.aux: list = []
        self.grads: list = []

    def __len__(self) -> int:
        return len(self.ops)

    def leaf(self, value) -> Var:
        return self._push("leaf", (), np.asarray(value), None)

    def _push(self, op: str, inputs: tuple[int, ...], value: np.ndarray, aux) -> Var:
        self.ops.append(op)
        self.inputs.append(inputs)
        self.values.append(value)
        self.aux.append(aux)
        return Var(self, len(self.ops) - 1)

    def backward(self, loss: Var) -> dict[int, np.ndarray]:
        """Reverse sweep from a scalar loss; returns leaf grads keyed by node id."""
        if loss.value.ndim != 0:
            raise ArgumentError(
                f"backward: loss must be scalar, got shape {loss.value.shape}")
        return self.vjp(loss, np.asarray(1.0))

    def vjp(self, node: Var, cotangent: np.ndarray) -> dict[int, np.ndarray]:
        """Vector-Jacobian product seeded with a cotangent of the node's shape.
        Returns the leaves' gradients keyed by node id: a non-leaf node's
        cotangent is dropped once its backward rule has run."""
        cotangent = np.asarray(cotangent, dtype=np.float64)
        if cotangent.shape != node.value.shape:
            raise DimensionError(
                f"vjp: cotangent shape {cotangent.shape} != node shape {node.value.shape}")
        self.grads = [None] * len(self.ops)
        self.grads[node.idx] = cotangent
        for idx in range(node.idx, -1, -1):
            g = self.grads[idx]
            op = self.ops[idx]
            if g is None or op == "leaf":
                continue
            _BACKWARD[op](self, idx, g)
            self.grads[idx] = None
        return {i: g for i, g in enumerate(self.grads) if g is not None}

    def _accum(self, idx: int, g: np.ndarray) -> None:
        if self.grads[idx] is None:
            self.grads[idx] = g.astype(np.float64, copy=True)
        else:
            self.grads[idx] = self.grads[idx] + g


# ------------------------------------------------------------------ primitives


def add(a: Var, b: Var) -> Var:
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise DimensionError(f"add: {av.shape} + {bv.shape}")
    return a.tape._push("add", (a.idx, b.idx), av + bv, None)


def _add_bwd(t: Tape, idx: int, g):
    ia, ib = t.inputs[idx]
    t._accum(ia, g)
    t._accum(ib, g)


def unit_kernel(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y, norm): v, or each row of v, projected onto the unit sphere, a zero
    row kept at zero, and the norms it was divided by (0 read as 1). The
    arithmetic of `rnn_step` and of the models' noisy states."""
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    norm[norm == 0.0] = 1.0
    return v / norm, norm


def _unit_dx(g: np.ndarray, y: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Input cotangent of a unit projection y, for the output cotangent g."""
    return (g - y * (y * g).sum(axis=-1, keepdims=True)) / norm


def layer_norm_kernel(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                      eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y, xhat, inv) of a layer normalization over the last axis: xhat the
    normalized input, inv the reciprocal standard deviation, y = xhat * gain
    + bias. The arithmetic of `layer_norm`, `encoder_layer` and the
    transformer's numpy forward."""
    d = x.shape[-1]
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d + eps)
    xhat *= inv
    return _layer_norm_out(xhat, gain, bias), xhat, inv


def _layer_norm_out(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """y = xhat * gain + bias, the arithmetic of `layer_norm_kernel`: a
    backward that did not keep y rebuilds it bit for bit."""
    y = xhat * gain
    y += bias
    return y


def _layer_norm_dx(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                   gain: np.ndarray) -> np.ndarray:
    """Input cotangent of a layer normalization, for the output cotangent g."""
    d = xhat.shape[-1]
    dxhat = g * gain
    return (inv / d) * (d * dxhat
                        - dxhat.sum(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))


def layer_norm(x: Var, gain: Var, bias: Var, eps: float = 1e-5) -> Var:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    d = x.value.shape[-1]
    if gain.value.shape != (d,) or bias.value.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias must have shape ({d},), got "
            f"{gain.value.shape}/{bias.value.shape}")
    y, xhat, inv = layer_norm_kernel(x.value, gain.value, bias.value, eps)
    return x.tape._push("layer_norm", (x.idx, gain.idx, bias.idx), y, (xhat, inv))


def _layer_norm_bwd(t: Tape, idx: int, g):
    ix, ig, ib = t.inputs[idx]
    xhat, inv = t.aux[idx]
    axes = tuple(range(xhat.ndim - 1))
    t._accum(ix, _layer_norm_dx(g, xhat, inv, t.values[ig]))
    t._accum(ig, (g * xhat).sum(axis=axes) if axes else g * xhat)
    t._accum(ib, g.sum(axis=axes) if axes else g)


def embed_lookup(table: Var, ids) -> Var:
    """Gather the rows of `table` at an array of ids."""
    tv = table.value
    if tv.ndim != 2:
        raise DimensionError(f"embed_lookup: table must be 2-d, got {tv.shape}")
    key = np.asarray(ids, dtype=np.intp)
    if key.size and (key.min() < 0 or key.max() >= tv.shape[0]):
        raise ArgumentError("embed_lookup: id out of range")
    return table.tape._push("embed", (table.idx,), tv[key], key)


def _embed_bwd(t: Tape, idx: int, g):
    ia = t.inputs[idx][0]
    vocab, d = t.values[ia].shape
    keys = np.ravel(t.aux[idx])
    # the scatter-add of the rows as one GEMM: a (V, n) one-hot of the ids
    # times the (n, d) cotangent rows
    onehot = np.equal.outer(np.arange(vocab), keys).astype(np.float64)
    t._accum(ia, onehot @ g.reshape(keys.size, d))


# ------------------------------------------------------------------ batched ops
#
# Fused batch-level nodes used by the trainer: one node per batch instead of
# one subgraph per episode. Like every primitive, each is finite-difference
# checked.


# skew_exp's eigh algorithm: branches of its adjoint's divided differences,
# and its halving.
_DD_GAP = 1e-2          # |lam_j - lam_k| below this: a near pair, |del| < 0.05
_DD_PROD = 1.0 / 16     # near pairs with theta_j theta_k below this: lam < 0.07
_DD_TERMS = 6           # terms of the lam series there
_MAX_ANGLE = 8.0        # larger angles are halved, and the exponential squared back

# skew_exp's Taylor algorithm: the degree-23 Taylor polynomial of exp(X) after
# s halvings bring ||X||_2 to at most _TAYLOR_NORM. X is normal, so its
# truncation error is at most sum_{k > 23} 2^k / k! = 2.9e-17 in the 2-norm.
# Its even and odd halves are C(B) and X S(B), B = X^2: C's coefficient of
# B^(4j + i) is 1 / (2 (4j + i))! and S's 1 / (2 (4j + i) + 1)!, held at
# [j, 0, i] and [j, 1, i] for the three Paterson-Stockmeyer chunks j.
_TAYLOR_NORM = 2.0
_TAYLOR_COEFFS = np.array([[[1.0 / math.factorial(2 * (4 * j + i) + odd) for i in range(4)]
                            for odd in (0, 1)] for j in range(3)])

# The largest stack, in entries V n^2, that skew_exp takes by the Taylor
# polynomial; a larger one goes by eigh. Forward plus adjoint of one `skew_exp` node, Taylor over eigh, at
# ||A||_2 = 3 (trained S3's scale), one BLAS thread, OpenBLAS 0.3.31, x86-64,
# two runs: 0.56-0.62 at (V, n) = (6, 32), 0.63-0.70 at (8, 32) and (32, 16),
# 0.82-0.89 at (2, 64); 0.83-0.97 at (10, 32), 1.01-1.17 at (12, 32), 1.5-1.6
# at (6, 64) and (45, 32). The adjoint loses first: the forward alone still
# wins 2.4-fold at (6, 64). The scale does not move the choice: at (6, 32),
# ||A||_2 = 40-1e4 (5-13 Taylor squarings) reads 0.63-0.83, and Taylor's
# orthogonality defect stays below eigh's. S3 and scan-bench stacks (6, 32)
# go Taylor; binding's (45, 128) stays eigh.
TAYLOR_MAX_ENTRIES = 2 ** 13


def _sinc(x: np.ndarray) -> np.ndarray:
    """sin(x) / x, 1 at 0."""
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)


def skew_exp_kernel(generators: np.ndarray) -> tuple[np.ndarray, tuple]:
    """exp(M - M^T) for each matrix of a (V, n, n) stack of generators, and
    what the `skew_exp` backward reads: (out, saved).

    One algorithm per stack, chosen from its shape alone: a stack of at most
    TAYLOR_MAX_ENTRIES entries goes by the Taylor polynomial (matmuls only,
    `_taylor_exp`) unless its B^4 overflows, any other by one real symmetric
    eigendecomposition (`_eigh_exp`). Both halve a large matrix s times and
    square its exponential back s times. Real arithmetic throughout.
    """
    if generators.ndim != 3 or generators.shape[1] != generators.shape[2]:
        raise DimensionError(f"skew_exp: need a (V, n, n) stack, got {generators.shape}")
    if generators.size <= TAYLOR_MAX_ENTRIES:
        taylor = _taylor_exp(generators)
        if taylor is not None:
            return taylor
    return _eigh_exp(generators)


def _square_back(out: np.ndarray, halvings: np.ndarray) -> list:
    """Square out[v] in place halvings[v] times; the squarings the backward
    reads."""
    squarings = []
    for level in range(halvings.max(initial=0)):
        sel = np.flatnonzero(halvings > level)
        q = out[sel]
        squarings.append((sel, q))
        out[sel] = q @ q
    return squarings


def _taylor_exp(generators: np.ndarray):
    """The Taylor algorithm, or None if B^4 = A^8 is not finite.

    With B = A^2, Paterson-Stockmeyer needs B^2, B^3 and B^4. A = M - M^T is
    normal, so ||A||_2^8 = ||B^4||_2 <= ||B^4||_1 bounds each matrix's scale
    before any halving, and halving A scales the powers by powers of two,
    exactly. Then exp(X) = C(B) + X S(B) for X = A / 2^s: every chunk
    sum_i c_i B^i (i < 4) of C and S in one GEMM, Horner in B^4 over the
    chunks of C and S side by side, and X S(B): nine matmuls.
    """
    powers = np.empty((4,) + generators.shape)  # B, B^2, B^3, B^4
    b, b2, b3, b4 = powers
    with np.errstate(over="ignore", invalid="ignore"):
        x = generators - generators.transpose(0, 2, 1)
        np.matmul(x, x, out=b)
        np.matmul(b, b, out=b2)
        np.matmul(b2, b, out=b3)
        np.matmul(b2, b2, out=b4)
        bound = np.abs(b4).sum(axis=1).max(axis=1, initial=0.0) ** 0.125
    if not np.all(np.isfinite(bound)):
        return None
    halvings = np.maximum(np.frexp(bound / _TAYLOR_NORM)[1], 0)
    x *= np.ldexp(1.0, -halvings)[:, None, None]
    powers *= np.ldexp(1.0, -np.multiply.outer((2, 4, 6, 8), halvings))[:, :, None, None]
    # horner[j, 0] and horner[j, 1]: the jth chunk of C and of S, then the
    # Horner sums from chunk j up, in place
    n = b.shape[-1]
    horner = np.dot(_TAYLOR_COEFFS[..., 1:].reshape(6, 3), powers[:3].reshape(3, -1))
    horner = horner.reshape((3, 2) + b.shape)
    horner.reshape(6, -1, n * n)[:, :, ::n + 1] += _TAYLOR_COEFFS[..., :1].reshape(6, 1, 1)
    for j in (1, 0):
        horner[j] += horner[j + 1] @ b4
    c, s = horner[0]
    out = x @ s
    out += c
    squarings = _square_back(out, halvings)
    return out, (_taylor_adjoint, (x, powers, horner), halvings, squarings)


def _taylor_adjoint(g: np.ndarray, x, powers, horner) -> np.ndarray:
    """dX for the cotangent g of `_taylor_exp`'s exp(X), by reverse mode
    through its products: eighteen matmuls. X^T is taken as -X (exact, X
    is skew); numpy multiplies a transposed right operand slowly, so the
    other right operands that need it are transposed by a copy."""
    def tr(m):
        return np.ascontiguousarray(m.swapaxes(-1, -2))

    dx = g @ tr(horner[0, 1])
    # dts[j]: the cotangents of C's and S's Horner sums from chunk j up
    dts = np.empty((3, 2) + g.shape)
    dts[0, 0] = g
    np.negative(x @ g, out=dts[0, 1])
    b4t = tr(powers[3])
    db4 = np.zeros_like(g)
    for j in (1, 2):
        prod = horner[j].swapaxes(-1, -2) @ dts[j - 1]
        db4 += prod[0]
        db4 += prod[1]
        np.matmul(dts[j - 1], b4t, out=dts[j])
    dpow = np.dot(_TAYLOR_COEFFS[..., 1:].reshape(6, 3).T, dts.reshape(6, -1))
    (b, b2, _, _), (db, db2, db3) = powers, dpow.reshape((3,) + g.shape)
    bt, b2t = tr(b), tr(b2)
    db2 += db4 @ b2t
    db2 += b2.swapaxes(-1, -2) @ db4
    db2 += db3 @ bt
    db += b2.swapaxes(-1, -2) @ db3
    db += db2 @ bt
    db += b.swapaxes(-1, -2) @ db2
    dx -= db @ x
    dx -= x @ db
    return dx


def _eigh_exp(generators: np.ndarray):
    """The eigh algorithm.

    For skew A = M - M^T, W = A^T A = -A^2 is symmetric positive
    semi-definite; one batched real eigh gives W = V diag(lam) V^T, and the
    rotation angles theta = sqrt(max(lam, 0)) (each twice). Since
    cos(sqrt(l)) and sinc(sqrt(l)) are entire in l,

        exp(A) = cos(sqrt(W)) + A sinc(sqrt(W))
               = (V diag(cos theta) + (A V) diag(sinc theta)) V^T

    exactly, repeated angles included: three real matmuls and one eigh.

    Forming W squares the norm, so the orthogonality defect grows like
    eps ||A||_2^2. A matrix whose largest angle exceeds _MAX_ANGLE is halved
    s times (A / 2^s has W / 4^s: the same V and lam / 4^s, so the one eigh
    serves) and its exponential squared s times, so the defect grows like
    eps ||A||_2 instead: about 1e-13 at ||A||_2 = 100 and 1e-11 at 1e4. A
    forward holds at most four (V, n, n) arrays besides the generators.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a = generators - generators.transpose(0, 2, 1)
        w = a.transpose(0, 2, 1) @ a
    if not np.all(np.isfinite(w)):
        raise NumericError("skew_exp: (M - M^T)^T (M - M^T) has non-finite entries")
    try:
        lam, v = np.linalg.eigh(w)
    except np.linalg.LinAlgError as err:
        raise NumericError(f"skew_exp: eigendecomposition failed ({err})")
    del w
    theta = np.sqrt(np.maximum(lam, 0.0))
    av = a @ v
    del a
    # eigh sorts lam, so theta[:, -1] is each matrix's largest angle
    halvings = np.maximum(np.frexp(theta[:, -1] / _MAX_ANGLE)[1], 0)
    if halvings.any():
        scale = np.ldexp(1.0, -halvings)[:, None]
        theta *= scale
        av *= scale[:, :, None]
    out = v * np.cos(theta)[:, None, :]
    out += av * _sinc(theta)[:, None, :]
    out = out @ v.transpose(0, 2, 1)
    squarings = _square_back(out, halvings)
    return out, (_eigh_adjoint, (v, av, theta), halvings, squarings)


def skew_exp(generators: Var) -> Var:
    """`skew_exp_kernel` as one node.

    The backward first takes the squarings' adjoint (G <- G Q^T + Q^T G for
    each squaring Q -> Q^2), then the algorithm's: reverse mode through the
    Taylor algorithm's products (`_taylor_adjoint`), or for eigh

        dA = G sinc(sqrt(W)) + A (G_W + G_W^T),
        G_W = V ((V^T G V) o Gc + ((A V)^T G V) o Gs) V^T,

    five real matmuls on the kept (V, A V, theta). The generators get
    dA - dA^T. Gc and Gs are the divided differences of cos(sqrt(l)) and
    sinc(sqrt(l)) at lam (the Daleckii-Krein form; Higham, Functions of
    Matrices, 2008), each to about 1e-13 absolute (see
    `_skew_exp_divided_differences`), so the adjoint matches the block
    Frechet derivative to 1e-12 on near-repeated, tiny, large and
    branch-straddling angles.
    """
    out, saved = skew_exp_kernel(generators.value)
    return generators.tape._push("skew_exp", (generators.idx,), out, saved)


def _skew_exp_divided_differences(theta: np.ndarray):
    """(Gc, Gs, sinc theta): the divided differences of cos(sqrt(l)) and
    sinc(sqrt(l)) at lam = theta^2, for a (V, n) stack of angles.

    The quotient (f(lam_j) - f(lam_k)) / (lam_j - lam_k) is taken directly
    where |lam_j - lam_k| >= _DD_GAP, which bounds its rounding error by
    4 eps / _DD_GAP (1e-13). A near pair, with half-sum sig and half-difference del
    of its angles (sig^2 - del^2 = theta_j theta_k), takes

        Gc = -1/2 sinc(sig) sinc(del),
        Gs = 1/2 [-1/2 sinc(theta_j/2) sinc(theta_k/2) sinc(del)
                  - cos(del) (sinc(sig) - sinc(del)) / (theta_j theta_k)],

    and where also theta_j theta_k < _DD_PROD, both angles are small and Gs
    is the series sum_k (-1)^k / (2k+1)! h_{k-1}(lam_j, lam_k), with
    h_m(x, y) = sum_i x^i y^(m-i) the exact divided difference of l^(m+1).
    """
    n = theta.shape[1]
    cos, sinc = np.cos(theta), _sinc(theta)
    lam = theta * theta
    dl = lam[:, :, None] - lam[:, None, :]
    gc = np.abs(dl)
    near = np.flatnonzero(gc < _DD_GAP)
    dl.flat[near] = 1.0
    np.subtract(cos[:, :, None], cos[:, None, :], out=gc)
    gc /= dl
    gs = sinc[:, :, None] - sinc[:, None, :]
    gs /= dl
    del dl
    # near[i] is entry (m, j, k): its angles are theta.flat[m n + j] and [m n + k]
    tj, tk = theta.flat[near // n], theta.flat[near // (n * n) * n + near % n]
    sig, dlt = 0.5 * (tj + tk), 0.5 * (tj - tk)
    sinc_sig, sinc_dlt = _sinc(sig), _sinc(dlt)
    gc.flat[near] = -0.5 * sinc_sig * sinc_dlt
    prod = tj * tk
    small = prod < _DD_PROD
    quot = np.divide(sinc_sig - sinc_dlt, prod, out=np.zeros_like(prod), where=~small)
    near_gs = -0.25 * _sinc(0.5 * tj) * _sinc(0.5 * tk) * sinc_dlt
    near_gs -= 0.5 * np.cos(dlt) * quot
    if small.any():
        x, y = tj[small] ** 2, tk[small] ** 2
        h, y_pow, series = np.ones_like(x), np.ones_like(x), np.zeros_like(x)
        for m in range(1, _DD_TERMS + 1):
            series += (-1) ** m / math.factorial(2 * m + 1) * h
            y_pow *= y
            h = x * h + y_pow
        near_gs[small] = series
    gs.flat[near] = near_gs
    return gc, gs, sinc


def _skew_exp_bwd(t: Tape, idx: int, g):
    adjoint, core, halvings, squarings = t.aux[idx]
    if squarings:
        g = g.copy()
    for sel, q in reversed(squarings):
        qt = q.transpose(0, 2, 1)
        gq = g[sel]
        gsq = gq @ qt
        gsq += qt @ gq
        g[sel] = gsq
    da = adjoint(g, *core)
    if squarings:
        da *= np.ldexp(1.0, -halvings)[:, None, None]
    dm = da - da.transpose(0, 2, 1)
    del da
    t._accum(t.inputs[idx][0], dm)


def _eigh_adjoint(g: np.ndarray, v, av, theta) -> np.ndarray:
    """dA for the cotangent g of `_eigh_exp`'s exp(A) (see `skew_exp`)."""
    # five (V, n, n) buffers at most: every product goes into a dead one
    gc, gs, sinc = _skew_exp_divided_differences(theta)
    vt = v.transpose(0, 2, 1)
    gv = g @ v
    x = vt @ gv
    x *= gc
    r = np.matmul(av.transpose(0, 2, 1), gv, out=gc)
    r *= gs
    x += r
    gv *= sinc[:, None, :]
    gv += np.matmul(av, np.add(x, x.transpose(0, 2, 1), out=gs), out=r)
    return np.matmul(gv, vt, out=x)


# Id of the identity step in holonomic_scan and rnn_scan: the samplers
# (group_tasks) left-pad rows shorter than L with it.
IDENTITY_STEP = -1

# What one numpy GEMM call is worth in multiply-adds of padding: a block takes
# the padded layout of `token_schedule` when the multiply-adds its padding adds
# stay below this many per GEMM call it removes. Per-column times of both
# layouts over 14 shapes (one BLAS thread, OpenBLAS 0.3.31, x86-64) break even
# near 2.7e4 per call at a vocabulary of 45 (n = 64, B = 16: 62-68 us either
# way), since numpy's batched matmul still makes one BLAS call per token, and
# past 4.7e4 at one of 6 (n = 128, B = 16: padded 34-45 us, grouped 37-52 us).
# S3 blocks sit near 3e3 per call, binding's at n = 128 above 6e4.
GEMM_CALL_MACS = 2 ** 15


class TokenSchedule:
    """A (B, L) id block's per-column row order for `token_step`, in the one
    layout `token_schedule` picked for the whole block.

    grouped: `index` (L, B) holds each column's rows sorted by token, the
    IDENTITY_STEP rows first and ties in row order, and `cuts` (L, vocab + 1)
    the running count of pads and tokens: index[t, cuts[t, v]:cuts[t, v + 1]]
    are the rows holding token v in column t, and cuts[t, 0] counts its pads.

    padded: `index` (L, B) holds each row's slot in a (vocab m_t + pads_t, n)
    buffer, m_t the column's largest token count: token v's rows fill slots
    v m_t onwards in row order, the pads the slots after vocab m_t; `cuts`
    holds the (m_t, pads_t) of each column. `buffers` are the two scratch
    buffers the step scatters into and multiplies into, zeroed once, so the
    rows a column leaves unused hold finite stale states; `blocks` caches
    their (vocab, m_t, n) token views by m_t.
    """

    def __init__(self, padded: bool, index: np.ndarray, cuts, buffers: tuple = ()):
        self.padded, self.index, self.cuts = padded, index, cuts
        self.buffers, self.blocks = buffers, {}


def token_schedule(ids, ops: np.ndarray) -> TokenSchedule:
    """The `TokenSchedule` of a (B, L) id block for steps by the (vocab, n, n)
    bank `ops` (only its shape and dtype are read).

    One stable argsort and one bincount per block give each column's token
    counts. The padded layout spends (vocab m_t - live_t) n^2 multiply-adds
    on padding in column t (live_t its non-pad rows) and saves present_t - 1
    GEMM calls (present_t the tokens present); the block takes it when
    sum_t (vocab m_t - live_t) n^2 < GEMM_CALL_MACS sum_t (present_t - 1),
    and the grouped layout otherwise. A small vocabulary (S3 at n = 32) goes
    padded; binding's vocabulary of 45 at n = 128 stays grouped.
    """
    vocab, n = ops.shape[0], ops.shape[-1]
    # pad 0, token v at v + 1; C order, so each column's keys are one row
    keys = np.add(np.asarray(ids, dtype=np.intp).T, 1, order="C")
    length, batch = keys.shape
    width = vocab + 1
    order = np.argsort(keys, axis=1, kind="stable")
    keys += width * np.arange(length)[:, None]      # one bin per (column, key)
    counts = np.bincount(keys.ravel(), minlength=length * width).reshape(length, width)
    del keys
    tallest = counts[:, 1:].max(axis=1, initial=0)
    waste = (vocab * int(tallest.sum()) + int(counts[:, 0].sum()) - length * batch) * n * n
    saved = np.count_nonzero(counts[:, 1:]) - np.count_nonzero(tallest)
    if waste >= GEMM_CALL_MACS * saved:
        return TokenSchedule(False, order, np.cumsum(counts, axis=1, out=counts))
    # first[t, k] + j is the slot of sorted position j holding key k: token
    # v's block starts at v m_t, the pads' after the vocab m_t token slots
    first = np.empty_like(counts)
    first[:, 0] = vocab * tallest
    np.multiply(np.arange(vocab), tallest[:, None], out=first[:, 1:])
    first += counts
    first -= np.cumsum(counts, axis=1)
    columns = list(zip(tallest.tolist(), counts[:, 0].tolist()))
    # the sorted positions of key k in column t are a run of counts[t, k]
    slots = np.repeat(first.ravel(), counts.ravel()).reshape(length, batch)
    del first, counts
    slots += np.arange(batch)
    index = np.empty_like(slots)
    index[np.arange(length)[:, None], order] = slots    # each row's slot
    rows = max(vocab * m + pads for m, pads in columns)
    return TokenSchedule(True, index, columns, tuple(np.zeros((2, rows, n), ops.dtype)))


def token_step(h: np.ndarray, schedule: TokenSchedule, t: int, mats: np.ndarray) -> None:
    """h[b] <- h[b] @ mats[ids[b, t]] in place for column t of a
    `token_schedule`; pad rows are left alone, bit for bit.

    grouped: one matmul per token present, over the rows that hold it.
    padded: the rows scattered into their slots, one batched matmul of the
    (vocab, m_t, n) token block against the whole bank, and the rows gathered
    back: three numpy calls whatever the vocabulary (and a copy of the pad
    rows in a column that has some).
    """
    if schedule.padded:
        m, pads = schedule.cuts[t]
        if not m:
            return
        top = len(mats) * m
        if m not in schedule.blocks:
            schedule.blocks[m] = tuple(b[:top].reshape(len(mats), m, -1)
                                       for b in schedule.buffers)
        (src, dst), (src_block, dst_block) = schedule.buffers, schedule.blocks[m]
        slots = schedule.index[t]
        src[slots] = h
        np.matmul(src_block, mats, out=dst_block)
        if pads:
            dst[top:top + pads] = src[top:top + pads]
        dst.take(slots, axis=0, out=h, mode="clip")
        return
    order, cuts = schedule.index[t], schedule.cuts[t].tolist()
    first = cuts[0]
    if first == len(order):
        return
    rows = order[first:]
    hs = h[rows]
    for tok in range(len(cuts) - 1):
        lo, hi = cuts[tok] - first, cuts[tok + 1] - first
        if hi > lo:
            hs[lo:hi] = hs[lo:hi] @ mats[tok]
    h[rows] = hs


def holonomic_scan(ops: Var, ids, h0: Var) -> Var:
    """Final states of h_t = ops[ids[b, t]] h_{t-1}, h_0 = h0, for a (B, L) id
    matrix; returns (B, n).

    An id of IDENTITY_STEP applies the identity, which leaves the state
    bit-identical, so rows of different lengths share one node when left-padded
    with it. The forward runs `token_step` over the block's `token_schedule`
    with the row-state operators U^T, the same arithmetic as the holonomic
    `models.forward_batch`, and keeps the states (L + 1, B, n). The backward
    sweeps the cotangent back through time by the same kernel with U, then
    forms each operator's gradient dU[v] = sum over (t, b) with ids[b, t] = v
    of g_t h_{t-1}^T as one matmul over the rows sorted by token.
    """
    ov, hv = ops.value, h0.value
    ids = np.asarray(ids, dtype=np.intp)
    if ov.ndim != 3 or ov.shape[1] != ov.shape[2] or ids.ndim != 2 \
            or hv.shape != ov.shape[-1:]:
        raise DimensionError(
            f"holonomic_scan: need (V,n,n) ops, (B,L) ids, (n,) h0; got "
            f"{ov.shape}, {ids.shape}, {hv.shape}")
    if ids.size and (ids.min() < IDENTITY_STEP or ids.max() >= ov.shape[0]):
        raise ArgumentError(
            f"holonomic_scan: token outside vocabulary of size {ov.shape[0]}")
    schedule = token_schedule(ids, ov)
    mats = ov.transpose(0, 2, 1)    # row states: (U h)^T = h^T U^T
    states = np.empty((ids.shape[1] + 1, ids.shape[0], ov.shape[-1]))
    states[0] = hv
    for t in range(ids.shape[1]):
        states[t + 1] = states[t]
        token_step(states[t + 1], schedule, t, mats)
    return ops.tape._push("holonomic_scan", (ops.idx, h0.idx), states[-1].copy(),
                          (ids, schedule, states))


def _holonomic_scan_bwd(t: Tape, idx: int, g):
    iops, ih = t.inputs[idx]
    ids, schedule, states = t.aux[idx]
    ov = t.values[iops]
    n = ov.shape[-1]
    g = np.array(g, dtype=np.float64)
    cot = np.empty_like(states[1:])     # cot[t] is the cotangent of states[t + 1]
    for step in range(ids.shape[1] - 1, -1, -1):
        cot[step] = g
        token_step(g, schedule, step, ov)
    t._accum(ih, g.sum(axis=0))
    flat = ids.T.ravel()
    rank = np.argsort(flat, kind="stable")
    bounds = np.searchsorted(flat[rank], np.arange(ov.shape[0] + 1))
    rows_g = cot.reshape(-1, n)[rank]
    rows_h = states[:-1].reshape(-1, n)[rank]
    du = np.zeros(ov.shape)     # an unused token keeps its zero block
    for v, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if hi > lo:
            np.matmul(rows_g[lo:hi].T, rows_h[lo:hi], out=du[v])
    t._accum(iops, du)


def rnn_step(h: np.ndarray, live, tokens, w_rec_t: np.ndarray, w_in: np.ndarray,
             bias: np.ndarray, normalized: bool) -> tuple[np.ndarray, np.ndarray]:
    """One tanh RNN step for the rows `live` of a (B, n) state block, which
    read `tokens`: a = tanh(h[live] @ w_rec_t + w_in[tokens] + bias), with
    w_rec_t = W_rec^T. Returns (y, a), y the rows' new states: a itself, or
    with `normalized` a projected onto the unit sphere, a zero row kept at
    zero. The step of the `rnn_scan` node, of the RNN `models.forward_batch`
    and of the Jacobian horizon's trajectory."""
    a = np.tanh(h[live] @ w_rec_t + w_in[tokens] + bias)
    return (unit_kernel(a)[0] if normalized else a), a


def rnn_step_adjoint(g: np.ndarray, a: np.ndarray, w_rec: np.ndarray,
                     normalized: bool) -> tuple[np.ndarray, np.ndarray]:
    """The adjoint of `rnn_step` for the cotangents g of its new states and
    its tanh outputs a (rows of a, or one (n,) output shared by every row of
    g): (dpre, dpre @ w_rec), the cotangents of the pre-activations and of
    the previous states. The step of the `rnn_scan` backward and of the
    horizon's reverse sweep."""
    if normalized:
        g = _unit_dx(g, *unit_kernel(a))
    dpre = g * (1.0 - a * a)
    return dpre, dpre @ w_rec


def rnn_scan(w_rec: Var, w_in: Var, bias: Var, ids, normalized: bool) -> Var:
    """Final states of the tanh RNN h_t = tanh(W_rec h_{t-1} + W_in[ids[b, t]]
    + bias), projected onto the unit sphere after every step if `normalized`,
    from h_0 = 0 over a (B, L) id matrix; returns (B, n). An id of
    IDENTITY_STEP leaves its row's state alone, so left-padded rows of
    different lengths share one node.

    The forward runs `rnn_step` over each column's live rows, the arithmetic
    of the RNN `models.forward_batch`, and keeps the states (L + 1, B, n). The
    backward is backpropagation through time (Werbos, 1990): each column's
    pre-activation cotangents dpre reach the previous states as dpre W_rec,
    and the weights' gradients gather over all live steps at once, dW_rec as
    the one GEMM dpre^T h_prev, dW_in as one one-hot GEMM (as `embed`'s).
    """
    wv, iv, bv = w_rec.value, w_in.value, bias.value
    ids = np.asarray(ids, dtype=np.intp)
    n = bv.shape[0] if bv.ndim == 1 else -1
    if wv.shape != (n, n) or iv.ndim != 2 or iv.shape[1] != n or ids.ndim != 2:
        raise DimensionError(
            f"rnn_scan: need (n,n) w_rec, (V,n) w_in, (n,) bias, (B,L) ids; got "
            f"{wv.shape}, {iv.shape}, {bv.shape}, {ids.shape}")
    if ids.size and (ids.min() < IDENTITY_STEP or ids.max() >= iv.shape[0]):
        raise ArgumentError(f"rnn_scan: token outside vocabulary of size {iv.shape[0]}")
    # the live steps column by column: column t's are [bounds[t], bounds[t + 1])
    cols, rows = np.nonzero(ids.T != IDENTITY_STEP)
    bounds = np.searchsorted(cols, np.arange(ids.shape[1] + 1))
    tokens = ids[rows, cols]
    states = np.zeros((ids.shape[1] + 1, ids.shape[0], n))
    acts = np.empty((rows.size, n))     # each live step's tanh output
    w_rec_t = wv.T
    for t, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        states[t + 1] = states[t]
        states[t + 1, rows[lo:hi]], acts[lo:hi] = rnn_step(
            states[t], rows[lo:hi], tokens[lo:hi], w_rec_t, iv, bv, normalized)
    return w_rec.tape._push("rnn_scan", (w_rec.idx, w_in.idx, bias.idx), states[-1].copy(),
                            (cols, rows, bounds, tokens, states, acts, normalized))


def _rnn_scan_bwd(t: Tape, idx: int, g):
    iw, ii, ib = t.inputs[idx]
    cols, rows, bounds, tokens, states, acts, normalized = t.aux[idx]
    w_rec = t.values[iw]
    g = np.array(g, dtype=np.float64)     # the cotangent of the current states
    dpre = np.empty(acts.shape)
    for step in range(len(bounds) - 2, -1, -1):
        lo, hi = bounds[step], bounds[step + 1]
        live = rows[lo:hi]
        dpre[lo:hi], g[live] = rnn_step_adjoint(g[live], acts[lo:hi], w_rec, normalized)
    t._accum(iw, dpre.T @ states[cols, rows])
    onehot = np.equal.outer(np.arange(t.values[ii].shape[0]), tokens).astype(np.float64)
    t._accum(ii, onehot @ dpre)
    t._accum(ib, dpre.sum(axis=0))


# The 16 weights of one pre-LN encoder layer, in the order of the node's inputs
# and of `models.init_transformer`'s draws.
ENCODER_WEIGHTS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                   "ln1_g", "ln1_b", "ln2_g", "ln2_b", "w1", "b1", "w2", "b2")


def encoder_shapes(d: int, d_ff: int) -> dict:
    """Each ENCODER_WEIGHTS entry's shape in a layer of width d and
    feed-forward width d_ff, in that order."""
    shapes = dict.fromkeys(ENCODER_WEIGHTS, (d,))
    shapes.update(wq=(d, d), wk=(d, d), wv=(d, d), wo=(d, d), w1=(d, d_ff), b1=(d_ff,),
                  w2=(d_ff, d))
    return shapes


def _qkv_weights(w: dict) -> np.ndarray:
    """The (d, 3d) concatenation [Wq Wk Wv]: q, k and v in one GEMM."""
    return np.concatenate((w["wq"], w["wk"], w["wv"]), axis=1)


def _check_segments(segments, tokens: int) -> None:
    """Segments (token offset, rows, length) must tile a stream of `tokens`."""
    off, rows, length = np.array(segments, dtype=np.intp).reshape(-1, 3).T
    sizes = rows * length
    if (rows < 1).any() or (length < 1).any() or sizes.sum() != tokens \
            or (np.cumsum(sizes) - sizes != off).any():
        raise DimensionError(f"segments {segments} do not tile a stream of {tokens} tokens")


def _heads(a: np.ndarray, segment, n_heads: int, dk: int) -> np.ndarray:
    """The (m, rows, H, length, dk) head views of one segment of a packed
    (T, m H dk) array: q, k and v of qkv (m = 3), or an attention output."""
    off, rows, length = segment
    span = a[off:off + rows * length].reshape(rows, length, -1, n_heads, dk)
    return span.transpose(2, 0, 3, 1, 4)


def encoder_layer_kernel(x: np.ndarray, segments, w: dict, n_heads: int):
    """One pre-LN encoder layer (Vaswani et al., 2017) on a packed (T, d)
    token stream:

        y = LN1(x);  q, k, v = y Wq + bq, y Wk + bk, y Wv + bv;
        x += MHA(q, k, v) Wo + bo;  y = LN2(x);  x += tanh(y W1 + b1) W2 + b2.

    The stream is the unpadded "varlen" layout (Dao et al., 2022): segment
    (token offset, rows, length) holds `rows` sequences of `length` tokens,
    and a token attends to its own sequence only. `w` maps ENCODER_WEIGHTS to
    arrays. Both LayerNorms and every projection, q, k and v in one, are one
    GEMM over all T tokens; only attention, its softmax in place, loops over
    the segments. Returns (out, saved), `saved` what the `encoder_layer`
    backward reads and cannot cheaply rebuild: not the weight concatenation,
    nor the LayerNorm outputs, which are xhat * gain + bias again (see
    `_layer_norm_out`). The training node and
    `models.transformer_forward_batch` both run this kernel: the same bits.
    """
    d = x.shape[1]
    dk = d // n_heads
    y1, xhat1, inv1 = layer_norm_kernel(x, w["ln1_g"], w["ln1_b"])
    qkv = y1 @ _qkv_weights(w)
    qkv += np.concatenate((w["bq"], w["bk"], w["bv"]))
    qkv[:, :d] /= math.sqrt(dk)     # q / sqrt(dk): the scores need no rescaling
    att = np.empty(x.shape)
    probs = []
    for segment in segments:
        q, k, v = _heads(qkv, segment, n_heads, dk)
        p = q @ k.transpose(0, 1, 3, 2)     # (rows, H, length, length)
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p, v, out=_heads(att, segment, n_heads, dk)[0])
        probs.append(p)
    x1 = att @ w["wo"]
    x1 += x
    x1 += w["bo"]
    y2, xhat2, inv2 = layer_norm_kernel(x1, w["ln2_g"], w["ln2_b"])
    hid = y2 @ w["w1"]
    hid += w["b1"]
    np.tanh(hid, out=hid)
    out = hid @ w["w2"]
    out += w["b2"]
    out += x1
    return out, (xhat1, inv1, qkv, probs, att, xhat2, inv2, hid)


def encoder_layer(x: Var, segments, weights: dict, n_heads: int) -> Var:
    """One pre-LN encoder layer as a single node on a packed (T, d) stream
    and its segments (see `encoder_layer_kernel`); `weights` maps
    ENCODER_WEIGHTS to Vars."""
    xv = x.value
    if xv.ndim != 2:
        raise DimensionError(f"encoder_layer: expected a (T, d) stream, got {xv.shape}")
    _check_segments(segments, xv.shape[0])
    d = xv.shape[-1]
    if d % n_heads:
        raise DimensionError(f"encoder_layer: d={d} not divisible by {n_heads} heads")
    w = {name: weights[name].value for name in ENCODER_WEIGHTS}
    shapes = encoder_shapes(d, w["w1"].shape[-1])
    bad = [name for name, arr in w.items() if arr.shape != shapes[name]]
    if bad:
        raise DimensionError(f"encoder_layer: bad weight shapes for {bad} at d={d}")
    out, saved = encoder_layer_kernel(xv, segments, w, n_heads)
    inputs = (x.idx, *(weights[name].idx for name in ENCODER_WEIGHTS))
    return x.tape._push("encoder_layer", inputs, out, (segments, n_heads, saved))


def _encoder_layer_bwd(t: Tape, idx: int, g):
    ix, *iw = t.inputs[idx]
    w = dict(zip(ENCODER_WEIGHTS, (t.values[i] for i in iw)))
    segments, n_heads, (xhat1, inv1, qkv, probs, att, xhat2, inv2, hid) = t.aux[idx]
    d = g.shape[1]
    dk = d // n_heads
    grads = {"w2": hid.T @ g, "b2": g.sum(axis=0)}
    dpre = g @ w["w2"].T
    dpre *= 1.0 - hid ** 2
    y2 = _layer_norm_out(xhat2, w["ln2_g"], w["ln2_b"])
    grads["w1"], grads["b1"] = y2.T @ dpre, dpre.sum(axis=0)
    del y2
    dy2 = dpre @ w["w1"].T
    grads["ln2_g"], grads["ln2_b"] = (dy2 * xhat2).sum(axis=0), dy2.sum(axis=0)
    dx1 = _layer_norm_dx(dy2, xhat2, inv2, w["ln2_g"])
    dx1 += g
    grads["wo"], grads["bo"] = att.T @ dx1, dx1.sum(axis=0)
    datt = dx1 @ w["wo"].T
    # attention, per segment and head: o = P v, S = q k^T / sqrt(dk),
    # P = softmax(S) by rows; the softmax's row term sum_j P_ij dP_ij is
    # do_i . o_i (Dao et al., 2022), for every token and head at once
    rowterm = (datt * att).reshape(len(g), n_heads, dk).sum(axis=-1)
    dqkv = np.empty(qkv.shape)
    for segment, p in zip(segments, probs):
        (do,) = _heads(datt, segment, n_heads, dk)
        q, k, v = _heads(qkv, segment, n_heads, dk)
        dq, dkey, dv = _heads(dqkv, segment, n_heads, dk)
        np.matmul(p.transpose(0, 1, 3, 2), do, out=dv)
        ds = do @ v.transpose(0, 1, 3, 2)     # dP
        ds -= _heads(rowterm, segment, n_heads, 1)[0]
        ds *= p
        np.matmul(ds, k, out=dq)
        np.matmul(ds.transpose(0, 1, 3, 2), q, out=dkey)
    dqkv[:, :d] /= math.sqrt(dk)
    dw, db = _layer_norm_out(xhat1, w["ln1_g"], w["ln1_b"]).T @ dqkv, dqkv.sum(axis=0)
    for j, name in enumerate(("q", "k", "v")):
        grads["w" + name] = dw[:, j * d:(j + 1) * d]
        grads["b" + name] = db[j * d:(j + 1) * d]
    dy1 = dqkv @ _qkv_weights(w).T
    grads["ln1_g"], grads["ln1_b"] = (dy1 * xhat1).sum(axis=0), dy1.sum(axis=0)
    dx = _layer_norm_dx(dy1, xhat1, inv1, w["ln1_g"])
    dx += dx1
    t._accum(ix, dx)
    for name, i in zip(ENCODER_WEIGHTS, iw):
        t._accum(i, grads[name])


def segment_pool_kernel(x: np.ndarray, lengths: np.ndarray, rows: np.ndarray,
                        mean: bool) -> np.ndarray:
    """(B, d) pooled rows of a packed (T, d) stream of B sequences, the i-th
    lengths[i] tokens long: row rows[i] of the result is that sequence's last
    token, or with `mean` the mean of its tokens."""
    ends = np.cumsum(lengths)
    out = np.empty((lengths.size, x.shape[1]))
    out[rows] = np.add.reduceat(x, ends - lengths) / lengths[:, None] if mean \
        else x[ends - 1]
    return out


def segment_pool(x: Var, lengths, rows, mean: bool) -> Var:
    """Pooling of a packed stream as one node (see `segment_pool_kernel`)."""
    lengths, rows = np.asarray(lengths, dtype=np.intp), np.asarray(rows, dtype=np.intp)
    if lengths.min(initial=1) < 1 or lengths.sum() != len(x.value) \
            or not np.array_equal(np.sort(rows), np.arange(lengths.size)):
        raise DimensionError(f"segment_pool: lengths {lengths} or rows {rows} do not "
                             f"pool a stream of {len(x.value)} tokens")
    return x.tape._push("segment_pool", (x.idx,),
                        segment_pool_kernel(x.value, lengths, rows, mean),
                        (lengths, rows, mean))


def _segment_pool_bwd(t: Tape, idx: int, g):
    lengths, rows, mean = t.aux[idx]
    ix = t.inputs[idx][0]
    g = g[rows]
    if mean:
        dx = np.repeat(g / lengths[:, None], lengths, axis=0)
    else:
        dx = np.zeros(t.values[ix].shape)
        dx[np.cumsum(lengths) - 1] = g
    t._accum(ix, dx)


def gather_readout(readout: Var, pooled: Var, queries) -> Var:
    """logits[b] = readout[queries[b]] @ pooled[b] for a (Q, C, d) bank."""
    rv, pv = readout.value, pooled.value
    qs = np.asarray(queries, dtype=np.intp)
    if rv.ndim != 3 or pv.ndim != 2 or qs.shape != (pv.shape[0],):
        raise DimensionError(
            f"gather_readout: shapes {rv.shape}, {pv.shape}, {qs.shape}")
    out = np.einsum("bcd,bd->bc", rv[qs], pv)
    return readout.tape._push("gather_readout", (readout.idx, pooled.idx), out, qs)


def _gather_readout_bwd(t: Tape, idx: int, g):
    ir, ip = t.inputs[idx]
    qs = t.aux[idx]
    rv, pv = t.values[ir], t.values[ip]
    # scatter-add of the per-row outer products as one GEMM: a (Q, B) one-hot
    # of the queries times the (B, C d) block
    onehot = np.equal.outer(np.arange(rv.shape[0]), qs).astype(np.float64)
    t._accum(ir, (onehot @ (g[:, :, None] * pv[:, None, :]).reshape(qs.size, -1))
             .reshape(rv.shape))
    t._accum(ip, np.einsum("bcd,bc->bd", rv[qs], g))


def softmax_xent_mean(logits: Var, labels) -> Var:
    """Mean fused cross-entropy over a (B, C) batch of logit rows."""
    z = logits.value
    labs = np.asarray(labels, dtype=np.intp)
    if z.ndim != 2 or labs.shape != (z.shape[0],):
        raise DimensionError(f"softmax_xent_mean: {z.shape} with labels {labs.shape}")
    if labs.min() < 0 or labs.max() >= z.shape[1]:
        raise ArgumentError("softmax_xent_mean: label out of range")
    m = z.max(axis=1, keepdims=True)
    exp = np.exp(z - m)
    total = exp.sum(axis=1, keepdims=True)
    rows = np.arange(z.shape[0])
    losses = np.log(total[:, 0]) + m[:, 0] - z[rows, labs]
    probs = exp / total
    return logits.tape._push("softmax_xent_mean", (logits.idx,),
                             np.asarray(losses.mean()), (probs, labs))


def _softmax_xent_mean_bwd(t: Tape, idx: int, g):
    probs, labs = t.aux[idx]
    d = probs.copy()
    d[np.arange(d.shape[0]), labs] -= 1.0
    t._accum(t.inputs[idx][0], float(g) * d / d.shape[0])


_BACKWARD = {
    "add": _add_bwd,
    "layer_norm": _layer_norm_bwd,
    "embed": _embed_bwd,
    "skew_exp": _skew_exp_bwd,
    "holonomic_scan": _holonomic_scan_bwd,
    "rnn_scan": _rnn_scan_bwd,
    "encoder_layer": _encoder_layer_bwd,
    "segment_pool": _segment_pool_bwd,
    "gather_readout": _gather_readout_bwd,
    "softmax_xent_mean": _softmax_xent_mean_bwd,
}


# ------------------------------------------------------------------ optimizer


class ParamStore:
    """Named parameter tensors plus per-tensor Adam state. Float64 arrays are
    kept as given, not copied, so `adam_step` updates the caller's arrays in
    place: `experiments.train` relies on that to train the model it built."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
        self.m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.step = 0


def adam_step(store: ParamStore, grads: dict[str, np.ndarray],
              lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> ParamStore:
    """One bias-corrected Adam update, in place."""
    store.step += 1
    t = store.step
    for name, p in store.params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(
                f"adam_step: grad shape {g.shape} != param shape {p.shape} for {name}")
        m = store.m[name]
        v = store.v[name]
        # p -= lr * mhat / (sqrt(vhat) + eps) in that operation order, on two
        # scratch buffers: the same bits as the expression, no temporaries
        delta, denom = np.empty_like(p), np.empty_like(p)
        m *= beta1
        m += np.multiply(1 - beta1, g, out=delta)
        v *= beta2
        np.multiply(1 - beta2, g, out=delta)
        v += np.multiply(delta, g, out=delta)
        np.divide(m, 1 - beta1 ** t, out=delta)    # mhat
        np.multiply(lr, delta, out=delta)
        np.divide(v, 1 - beta2 ** t, out=denom)    # vhat
        np.sqrt(denom, out=denom)
        denom += eps
        delta /= denom
        p -= delta
    return store


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all grads so their joint 2-norm is at most max_norm; returns the
    pre-clip norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm > 0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def collect_grads(tape: Tape, leaves: dict[str, Var]) -> dict[str, np.ndarray]:
    """Gradients for named leaves after backward; zeros where unused."""
    out = {}
    for name, var in leaves.items():
        g = tape.grads[var.idx]
        out[name] = np.zeros_like(var.value, dtype=np.float64) if g is None else g
    return out


# ------------------------------------------------------------------ checker


# ulps of |loss| by which one forward of a grad_check may round off
_FD_NOISE_ULPS = 64


def grad_check(build, store: ParamStore, eps: float = 1e-6,
               samples: int = 200, seed: int = 0) -> float:
    """Max relative error between tape gradients and central differences.

    `build(tape, leaves)` must return a scalar loss Var and be deterministic
    in the leaf values. At least `samples` coordinates are probed, sampled
    without replacement across all parameters with a seeded stream.

    A central difference cannot resolve a derivative below its own rounding
    noise, about machine-eps |loss| / eps, so a coordinate where both the
    analytic and the numeric value lie below the floor _FD_NOISE_ULPS times
    that counts as agreeing (an exactly zero gradient, say); everywhere else
    the error is relative, |a - n| / max(|a|, |n|).
    """
    if not 1e-8 <= eps <= 1e-4:
        raise ArgumentError(f"grad_check: eps {eps} outside [1e-8, 1e-4]")
    work = {k: v.astype(np.float64) for k, v in store.params.items()}

    def forward(params) -> float:
        tape = Tape()
        leaves = {k: tape.leaf(v) for k, v in params.items()}
        return float(build(tape, leaves).value)

    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in work.items()}
    loss = build(tape, leaves)
    tape.backward(loss)
    analytic = collect_grads(tape, leaves)
    floor = _FD_NOISE_ULPS * np.finfo(np.float64).eps * abs(float(loss.value)) / eps

    sizes = [(name, arr.size) for name, arr in work.items()]
    total = sum(s for _, s in sizes)
    count = min(samples, total)
    picks = tensor_core.RngState(seed).generator().choice(total, size=count, replace=False)
    bounds = np.cumsum([s for _, s in sizes])

    worst = 0.0
    for flat in sorted(int(p) for p in picks):
        slot = int(np.searchsorted(bounds, flat, side="right"))
        name = sizes[slot][0]
        local = flat - (0 if slot == 0 else int(bounds[slot - 1]))
        arr = work[name]
        orig = arr.flat[local]
        arr.flat[local] = orig + eps
        up = forward(work)
        arr.flat[local] = orig - eps
        down = forward(work)
        arr.flat[local] = orig
        numeric = (up - down) / (2 * eps)
        exact = float(analytic[name].flat[local])
        if max(abs(exact), abs(numeric)) > floor:
            worst = max(worst, abs(exact - numeric) / max(abs(exact), abs(numeric)))
    return worst
