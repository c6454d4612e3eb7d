"""Tape-based reverse-mode automatic differentiation.

A Tape records primitive applications in topological order; backward
replays them in reverse, accumulating exact cotangents. The primitive set
is the minimum needed by the four sequence models:

  * per-episode: dense products, elementwise ops, layer normalization,
    fused softmax cross-entropy, the matrix exponential (adjoint via the
    block Frechet derivative), embedding lookup, concat/slice/transpose and
    fused scaled-dot-product attention;
  * batched, for the trainer: broadcast matmul, multi-head attention, mean
    pooling, readout gather, mean cross-entropy, `skew_exp` (exp(M - M^T)
    for a whole generator stack by one eigendecomposition, Daleckii-Krein
    adjoint) and `holonomic_scan` (the holonomic recurrence over a
    left-padded (B, L) token matrix, one node per batch).

Values are numpy arrays; a scalar is a 0-d array. Gradients are bitwise
deterministic for identical tapes: the reverse sweep is a fixed-order
sequential accumulation.
"""

from __future__ import annotations

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

    def __matmul__(self, other: "Var") -> "Var":
        if other.value.ndim == 1:
            return matvec(self, other)
        return matmul(self, other)

    def __mul__(self, other):
        if isinstance(other, Var):
            return hadamard(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self) -> "Var":
        return scale(self, -1.0)

    def __sub__(self, other: "Var") -> "Var":
        return add(self, scale(other, -1.0))

    def __getitem__(self, key) -> "Var":
        return slice_of(self, key)

    @property
    def T(self) -> "Var":
        return transpose(self)


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
        """Reverse sweep from a scalar loss; returns grads keyed by node id."""
        if loss.value.ndim != 0:
            raise ArgumentError(
                f"backward: loss must be scalar, got shape {loss.value.shape}")
        return self.vjp(loss, np.asarray(1.0))

    def vjp(self, node: Var, cotangent: np.ndarray) -> dict[int, np.ndarray]:
        """Vector-Jacobian product seeded with an arbitrary cotangent."""
        cotangent = np.asarray(cotangent, dtype=np.float64)
        if cotangent.shape != node.value.shape:
            raise DimensionError(
                f"vjp: cotangent shape {cotangent.shape} != node shape {node.value.shape}")
        self.grads = [None] * len(self.ops)
        self.grads[node.idx] = cotangent
        for idx in range(node.idx, -1, -1):
            g = self.grads[idx]
            if g is None or self.ops[idx] == "leaf":
                continue
            _BACKWARD[self.ops[idx]](self, idx, g)
        return {i: g for i, g in enumerate(self.grads) if g is not None}

    def _accum(self, idx: int, g: np.ndarray) -> None:
        if self.grads[idx] is None:
            self.grads[idx] = g.astype(np.float64, copy=True)
        else:
            self.grads[idx] = self.grads[idx] + g


# ------------------------------------------------------------------ helpers


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ------------------------------------------------------------------ primitives


def matmul(a: Var, b: Var) -> Var:
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul: {av.shape} @ {bv.shape}")
    return a.tape._push("matmul", (a.idx, b.idx), av @ bv, None)


def _matmul_bwd(t: Tape, idx: int, g):
    ia, ib = t.inputs[idx]
    t._accum(ia, g @ t.values[ib].T)
    t._accum(ib, t.values[ia].T @ g)


def matvec(a: Var, v: Var) -> Var:
    av, vv = a.value, v.value
    if av.ndim != 2 or vv.ndim != 1 or av.shape[1] != vv.shape[0]:
        raise DimensionError(f"matvec: {av.shape} @ {vv.shape}")
    return a.tape._push("matvec", (a.idx, v.idx), av @ vv, None)


def _matvec_bwd(t: Tape, idx: int, g):
    ia, iv = t.inputs[idx]
    t._accum(ia, np.outer(g, t.values[iv]))
    t._accum(iv, t.values[ia].T @ g)


def add(a: Var, b: Var) -> Var:
    av, bv = a.value, b.value
    try:
        out = av + bv
    except ValueError:
        raise DimensionError(f"add: {av.shape} + {bv.shape}")
    return a.tape._push("add", (a.idx, b.idx), out, None)


def _add_bwd(t: Tape, idx: int, g):
    ia, ib = t.inputs[idx]
    t._accum(ia, _unbroadcast(g, t.values[ia].shape))
    t._accum(ib, _unbroadcast(g, t.values[ib].shape))


def scale(a: Var, c: float) -> Var:
    return a.tape._push("scale", (a.idx,), c * a.value, c)


def _scale_bwd(t: Tape, idx: int, g):
    t._accum(t.inputs[idx][0], t.aux[idx] * g)


def hadamard(a: Var, b: Var) -> Var:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"hadamard: {a.value.shape} vs {b.value.shape}")
    return a.tape._push("hadamard", (a.idx, b.idx), a.value * b.value, None)


def _hadamard_bwd(t: Tape, idx: int, g):
    ia, ib = t.inputs[idx]
    t._accum(ia, g * t.values[ib])
    t._accum(ib, g * t.values[ia])


def tanh(a: Var) -> Var:
    y = np.tanh(a.value)
    return a.tape._push("tanh", (a.idx,), y, None)


def _tanh_bwd(t: Tape, idx: int, g):
    t._accum(t.inputs[idx][0], g * (1.0 - t.values[idx] ** 2))


def unit(a: Var) -> Var:
    """Project onto the unit sphere (rows of a matrix are normalized
    independently); zero vectors pass through unchanged."""
    v = a.value
    if v.ndim not in (1, 2):
        raise DimensionError(f"unit: expected vector or row batch, got {v.shape}")
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.where(norm == 0.0, 1.0, norm)
    y = v / safe
    return a.tape._push("unit", (a.idx,), y, (y, safe))


def _unit_bwd(t: Tape, idx: int, g):
    y, norm = t.aux[idx]
    dot = (y * g).sum(axis=-1, keepdims=True)
    t._accum(t.inputs[idx][0], (g - y * dot) / norm)


def transpose(a: Var) -> Var:
    if a.value.ndim != 2:
        raise DimensionError(f"transpose: expected matrix, got {a.value.shape}")
    return a.tape._push("transpose", (a.idx,), a.value.T.copy(), None)


def _transpose_bwd(t: Tape, idx: int, g):
    t._accum(t.inputs[idx][0], g.T)


def layer_norm(x: Var, gain: Var, bias: Var, eps: float = 1e-5) -> Var:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    xv = x.value
    d = xv.shape[-1]
    if gain.value.shape != (d,) or bias.value.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias must have shape ({d},), got "
            f"{gain.value.shape}/{bias.value.shape}")
    mu = xv.mean(axis=-1, keepdims=True)
    var = ((xv - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mu) * inv
    y = xhat * gain.value + bias.value
    return x.tape._push("layer_norm", (x.idx, gain.idx, bias.idx), y, (xhat, inv))


def _layer_norm_bwd(t: Tape, idx: int, g):
    ix, ig, ib = t.inputs[idx]
    xhat, inv = t.aux[idx]
    d = xhat.shape[-1]
    gv = t.values[ig]
    dxhat = g * gv
    dx = (inv / d) * (d * dxhat
                      - dxhat.sum(axis=-1, keepdims=True)
                      - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
    axes = tuple(range(xhat.ndim - 1))
    t._accum(ix, dx)
    t._accum(ig, (g * xhat).sum(axis=axes) if axes else g * xhat)
    t._accum(ib, g.sum(axis=axes) if axes else g)


def softmax_cross_entropy(logits: Var, label: int) -> Var:
    """Fused, shift-stabilized -log softmax(logits)[label]; scalar output."""
    z = logits.value
    if z.ndim != 1:
        raise DimensionError(f"softmax_cross_entropy: logits must be 1-d, got {z.shape}")
    if not 0 <= label < z.shape[0]:
        raise ArgumentError(f"softmax_cross_entropy: label {label} out of range")
    m = z.max()
    exp = np.exp(z - m)
    total = exp.sum()
    loss = np.asarray(np.log(total) + m - z[label])
    probs = exp / total
    return logits.tape._push("softmax_xent", (logits.idx,), loss, (probs, label))


def _softmax_xent_bwd(t: Tape, idx: int, g):
    probs, label = t.aux[idx]
    d = probs.copy()
    d[label] -= 1.0
    t._accum(t.inputs[idx][0], float(g) * d)


def mat_exp(a: Var) -> Var:
    """Matrix exponential node; adjoint is the Frechet derivative at A^T."""
    return a.tape._push("mat_exp", (a.idx,), tensor_core.mat_exp(a.value), None)


def _mat_exp_bwd(t: Tape, idx: int, g):
    ia = t.inputs[idx][0]
    _, adj = tensor_core.mat_exp_frechet(t.values[ia].T, g)
    t._accum(ia, adj)


def embed_lookup(table: Var, ids) -> Var:
    """Gather rows of `table`; an int id yields a vector, a sequence a matrix."""
    tv = table.value
    if tv.ndim != 2:
        raise DimensionError(f"embed_lookup: table must be 2-d, got {tv.shape}")
    if np.isscalar(ids) or isinstance(ids, (int, np.integer)):
        key = int(ids)
        if not 0 <= key < tv.shape[0]:
            raise ArgumentError(f"embed_lookup: id {key} out of range")
        return table.tape._push("embed", (table.idx,), tv[key].copy(), key)
    key = np.asarray(ids, dtype=np.intp)
    if key.size and (key.min() < 0 or key.max() >= tv.shape[0]):
        raise ArgumentError("embed_lookup: id out of range")
    return table.tape._push("embed", (table.idx,), tv[key], key)


def _embed_bwd(t: Tape, idx: int, g):
    ia = t.inputs[idx][0]
    out = np.zeros_like(t.values[ia], dtype=np.float64)
    np.add.at(out, t.aux[idx], g)
    t._accum(ia, out)


def concat(parts: list[Var], axis: int = 0) -> Var:
    if not parts:
        raise ArgumentError("concat: need at least one operand")
    vals = [p.value for p in parts]
    out = np.concatenate(vals, axis=axis)
    sizes = [v.shape[axis] for v in vals]
    return parts[0].tape._push(
        "concat", tuple(p.idx for p in parts), out, (axis, sizes))


def _concat_bwd(t: Tape, idx: int, g):
    axis, sizes = t.aux[idx]
    offset = 0
    for child, size in zip(t.inputs[idx], sizes):
        sl = [slice(None)] * g.ndim
        sl[axis] = slice(offset, offset + size)
        t._accum(child, g[tuple(sl)])
        offset += size


def slice_of(a: Var, key) -> Var:
    out = a.value[key]
    return a.tape._push("slice", (a.idx,), out, key)


def _slice_bwd(t: Tape, idx: int, g):
    ia = t.inputs[idx][0]
    out = np.zeros_like(t.values[ia], dtype=np.float64)
    out[t.aux[idx]] += g
    t._accum(ia, out)


def attention(q: Var, k: Var, v: Var, causal: bool = False) -> Var:
    """Fused scaled-dot-product attention over one head.

    q, k: (L, d_k); v: (L, d_v); returns softmax(q k^T / sqrt(d_k)) v with
    an optional causal mask.
    """
    qv, kv, vv = q.value, k.value, v.value
    if qv.ndim != 2 or kv.ndim != 2 or vv.ndim != 2:
        raise DimensionError("attention: operands must be matrices")
    if qv.shape[1] != kv.shape[1] or qv.shape[0] != kv.shape[0] != vv.shape[0]:
        raise DimensionError(
            f"attention: incompatible shapes {qv.shape}, {kv.shape}, {vv.shape}")
    inv_sqrt = 1.0 / np.sqrt(qv.shape[1])
    scores = (qv @ kv.T) * inv_sqrt
    if causal:
        mask = np.triu(np.ones(scores.shape, dtype=bool), k=1)
        scores = np.where(mask, -np.inf, scores)
    scores = scores - scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=1, keepdims=True)
    out = probs @ vv
    return q.tape._push(
        "attention", (q.idx, k.idx, v.idx), out, (probs, inv_sqrt))


def _attention_bwd(t: Tape, idx: int, g):
    iq, ik, iv = t.inputs[idx]
    probs, inv_sqrt = t.aux[idx]
    qv, kv, vv = t.values[iq], t.values[ik], t.values[iv]
    dv = probs.T @ g
    dp = g @ vv.T
    ds = probs * (dp - (dp * probs).sum(axis=1, keepdims=True))
    t._accum(iq, (ds @ kv) * inv_sqrt)
    t._accum(ik, (ds.T @ qv) * inv_sqrt)
    t._accum(iv, dv)


# ------------------------------------------------------------------ batched ops
#
# Fused batch-level variants used by the trainer: one node per batch instead
# of one subgraph per episode. Each mirrors a scalar primitive (skew_exp:
# mat_exp; holonomic_scan: a chain of matvecs) and is finite-difference
# checked alongside them.


def bmatmul(a: Var, b: Var) -> Var:
    """(B, L, d) @ (d, k) broadcast matmul (weights on the right)."""
    av, bv = a.value, b.value
    if av.ndim != 3 or bv.ndim != 2 or av.shape[-1] != bv.shape[0]:
        raise DimensionError(f"bmatmul: {av.shape} @ {bv.shape}")
    return a.tape._push("bmatmul", (a.idx, b.idx), av @ bv, None)


def _bmatmul_bwd(t: Tape, idx: int, g):
    ia, ib = t.inputs[idx]
    av = t.values[ia]
    t._accum(ia, g @ t.values[ib].T)
    t._accum(ib, np.einsum("bli,blj->ij", av, g))


def skew_exp(generators: Var) -> Var:
    """exp(M - M^T) for each matrix of a (V, n, n) stack of generators.

    One batched eigendecomposition of the Hermitian i(M - M^T) = U diag(mu) U^H
    gives exp(M - M^T) = U diag(e^{-i mu}) U^H; (U, mu) are kept for the
    adjoint. The adjoint is the Daleckii-Krein form U ((U^H G U) o Phi) U^H with
    Phi_jk = e^{i(mu_j + mu_k)/2} sinc((mu_j - mu_k)/2), the divided difference
    of exp at the conjugate eigenvalues, which is exact at repeated angles.
    """
    gv = generators.value
    if gv.ndim != 3 or gv.shape[1] != gv.shape[2]:
        raise DimensionError(f"skew_exp: expected a (V, n, n) stack, got {gv.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        a = gv - gv.transpose(0, 2, 1)
    if not np.all(np.isfinite(a)):
        raise NumericError("skew_exp: M - M^T has non-finite entries")
    try:
        mu, u = np.linalg.eigh(1j * a)
    except np.linalg.LinAlgError as err:
        raise NumericError(f"skew_exp: eigendecomposition failed ({err})")
    out = ((u * np.exp(-1j * mu)[:, None, :]) @ u.conj().transpose(0, 2, 1)).real
    return generators.tape._push("skew_exp", (generators.idx,), out, (u, mu))


def _skew_exp_bwd(t: Tape, idx: int, g):
    u, mu = t.aux[idx]
    uh = u.conj().transpose(0, 2, 1)
    phase = np.exp(0.5j * mu)
    # np.sinc(x) = sin(pi x) / (pi x), so this is sin(d/2) / (d/2)
    phi = (phase[:, :, None] * phase[:, None, :]
           * np.sinc((mu[:, :, None] - mu[:, None, :]) / (2 * np.pi)))
    da = (u @ ((uh @ g @ u) * phi) @ uh).real
    t._accum(t.inputs[idx][0], da - da.transpose(0, 2, 1))


# Id of the identity step in holonomic_scan; left-pads rows shorter than L.
IDENTITY_STEP = -1


def holonomic_scan(ops: Var, ids, h0: Var) -> Var:
    """Final states of h_t = ops[ids[b, t]] h_{t-1}, h_0 = h0, for a (B, L) id
    matrix; returns (B, n).

    An id of IDENTITY_STEP applies the identity, which leaves the state
    bit-identical, so rows of different lengths share one node when left-padded
    with it. The states (L + 1, B, n) are kept; the backward sweeps back
    through time, then forms each operator's gradient
    dU[v] = sum over (t, b) with ids[b, t] = v of g_t h_{t-1}^T as one matmul
    over the rows sorted by token.
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
    n = ov.shape[-1]
    # the identity sits last, so IDENTITY_STEP = -1 indexes it directly
    table = np.concatenate([ov, np.eye(n)[None]])
    states = np.empty((ids.shape[1] + 1, ids.shape[0], n))
    states[0] = hv
    for t in range(ids.shape[1]):
        states[t + 1] = np.einsum("bij,bj->bi", table[ids[:, t]], states[t])
    return ops.tape._push("holonomic_scan", (ops.idx, h0.idx), states[-1].copy(),
                          (table, ids, states))


def _holonomic_scan_bwd(t: Tape, idx: int, g):
    iops, ih = t.inputs[idx]
    table, ids, states = t.aux[idx]
    length, n = ids.shape[1], table.shape[-1]
    cot = np.empty_like(states[1:])     # cot[t] is the cotangent of states[t + 1]
    for step in range(length - 1, -1, -1):
        cot[step] = g
        g = np.einsum("bij,bi->bj", table[ids[:, step]], g)
    t._accum(ih, g.sum(axis=0))
    flat = ids.T.ravel()
    order = np.argsort(flat, kind="stable")
    bounds = np.searchsorted(flat[order], np.arange(table.shape[0]))
    rows_g = cot.reshape(-1, n)[order]
    rows_h = states[:-1].reshape(-1, n)[order]
    # an unused token's empty slice gives a zero block
    t._accum(iops, np.stack([rows_g[lo:hi].T @ rows_h[lo:hi]
                             for lo, hi in zip(bounds[:-1], bounds[1:])]))


def mha(q: Var, k: Var, v: Var, n_heads: int, causal: bool = False) -> Var:
    """Fused multi-head scaled-dot-product attention on (B, L, d) operands."""
    qv, kv, vv = q.value, k.value, v.value
    if qv.shape != kv.shape or qv.shape != vv.shape or qv.ndim != 3:
        raise DimensionError(f"mha: shapes {qv.shape}, {kv.shape}, {vv.shape}")
    b, length, d = qv.shape
    if d % n_heads:
        raise DimensionError(f"mha: d={d} not divisible by {n_heads} heads")
    dk = d // n_heads

    def split(x):  # (B, L, d) -> (B, H, L, dk)
        return x.reshape(b, length, n_heads, dk).transpose(0, 2, 1, 3)

    qh, kh, vh = split(qv), split(kv), split(vv)
    scores = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(dk)
    if causal:
        mask = np.triu(np.ones((length, length), dtype=bool), k=1)
        scores = np.where(mask, -np.inf, scores)
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = (probs @ vh).transpose(0, 2, 1, 3).reshape(b, length, d)
    return q.tape._push("mha", (q.idx, k.idx, v.idx), out, (probs, n_heads))


def _mha_bwd(t: Tape, idx: int, g):
    iq, ik, iv = t.inputs[idx]
    probs, n_heads = t.aux[idx]
    b, h, length, _ = probs.shape
    d = t.values[iq].shape[-1]
    dk = d // n_heads

    def split(x):
        return x.reshape(b, length, n_heads, dk).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(b, length, d)

    qh, kh, vh = split(t.values[iq]), split(t.values[ik]), split(t.values[iv])
    gh = split(g)
    dv = probs.transpose(0, 1, 3, 2) @ gh
    dp = gh @ vh.transpose(0, 1, 3, 2)
    ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True))
    scalefac = 1.0 / np.sqrt(dk)
    t._accum(iq, merge(ds @ kh * scalefac))
    t._accum(ik, merge(ds.transpose(0, 1, 3, 2) @ qh * scalefac))
    t._accum(iv, merge(dv))


def mean_axis1(x: Var) -> Var:
    """Mean over the middle axis of a (B, L, d) tensor."""
    if x.value.ndim != 3:
        raise DimensionError(f"mean_axis1: expected 3-d input, got {x.value.shape}")
    return x.tape._push("mean_axis1", (x.idx,), x.value.mean(axis=1),
                        x.value.shape[1])


def _mean_axis1_bwd(t: Tape, idx: int, g):
    length = t.aux[idx]
    t._accum(t.inputs[idx][0], np.repeat(g[:, None, :], length, axis=1) / length)


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
    dr = np.zeros_like(rv, dtype=np.float64)
    np.add.at(dr, qs, g[:, :, None] * pv[:, None, :])
    t._accum(ir, dr)
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
    "matmul": _matmul_bwd,
    "matvec": _matvec_bwd,
    "add": _add_bwd,
    "scale": _scale_bwd,
    "hadamard": _hadamard_bwd,
    "tanh": _tanh_bwd,
    "unit": _unit_bwd,
    "transpose": _transpose_bwd,
    "layer_norm": _layer_norm_bwd,
    "softmax_xent": _softmax_xent_bwd,
    "mat_exp": _mat_exp_bwd,
    "embed": _embed_bwd,
    "concat": _concat_bwd,
    "slice": _slice_bwd,
    "attention": _attention_bwd,
    "bmatmul": _bmatmul_bwd,
    "skew_exp": _skew_exp_bwd,
    "holonomic_scan": _holonomic_scan_bwd,
    "mha": _mha_bwd,
    "mean_axis1": _mean_axis1_bwd,
    "gather_readout": _gather_readout_bwd,
    "softmax_xent_mean": _softmax_xent_mean_bwd,
}


# ------------------------------------------------------------------ optimizer


class ParamStore:
    """Named parameter tensors plus per-tensor Adam state."""

    def __init__(self, params: dict[str, np.ndarray], dtype=np.float64):
        self.params = {k: np.asarray(v, dtype=dtype) for k, v in params.items()}
        self.m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.step = 0

    def leaves(self, tape: Tape) -> dict[str, Var]:
        return {k: tape.leaf(v) for k, v in self.params.items()}


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
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)
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


def grad_check(build, store: ParamStore, eps: float = 1e-6,
               samples: int = 200, seed: int = 0) -> float:
    """Max relative error between tape gradients and central differences.

    `build(tape, leaves)` must return a scalar loss Var and be deterministic
    in the leaf values. At least `samples` coordinates are probed, sampled
    without replacement across all parameters with a seeded stream. Runs in
    float64 regardless of the store's training dtype.
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
        err = abs(exact - numeric) / max(abs(exact), abs(numeric), 1e-12)
        worst = max(worst, err)
    return worst
