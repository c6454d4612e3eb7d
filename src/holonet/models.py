"""The four sequence classifiers behind a single interface.

Each model exposes:
  * a numpy inference forward (with the energy-normalized noise hook), and
  * a tape forward that builds the training graph on a grad_engine.Tape.

Experiments run recurrent inference through `forward_batch`, one batched
numpy forward over a left-padded id block; the per-episode forwards are its
B = 1 reference. The transformer keeps its own length-grouped batch forward.

Parameters are small dataclasses convertible to/from flat name->array dicts
so the optimizer and checkpoints share one representation. Readouts are
stored as (n_queries, n_classes, n): the S3 task uses a single map
(n_queries=1), the binding task one map per queried variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grad_engine as ge
from . import tensor_core as tc
from .errors import ArgumentError, CapacityError, DimensionError, NumericError
from .group_tasks import Episode

HOLONOMIC = "holonomic"
RNN = "rnn"
NORMALIZED_RNN = "normalized-rnn"
TRANSFORMER = "transformer"
MODEL_KINDS = (HOLONOMIC, RNN, NORMALIZED_RNN, TRANSFORMER)


@dataclass
class NoiseConfig:
    temperature: float = 0.0
    enabled: bool = False
    site: str = "recurrent-state"  # or "residual-stream"

    def __post_init__(self):
        if self.temperature < 0:
            raise ArgumentError("noise temperature must be >= 0")
        if self.site not in ("recurrent-state", "residual-stream"):
            raise ArgumentError(f"unknown noise site: {self.site}")


def inject_noise(h: np.ndarray, temperature: float, n: int, rng: tc.RngState) -> np.ndarray:
    """Energy-normalized perturbation h + g * (T / sqrt(N)) * ||h||."""
    if temperature < 0:
        raise ArgumentError("noise temperature must be >= 0")
    if temperature == 0.0:
        return h
    g = tc.gaussian(rng, h.shape[0])
    return h + g * (temperature / math.sqrt(n)) * float(np.linalg.norm(h))


def _check_tokens(tokens, vocab: int) -> None:
    for t in tokens:
        if not 0 <= t < vocab:
            raise ArgumentError(f"token {t} outside vocabulary of size {vocab}")


def _readout_query(episode: Episode, n_queries: int) -> int:
    if episode.query is None:
        return 0
    if not 0 <= episode.query < n_queries:
        raise ArgumentError(f"query {episode.query} outside readout bank")
    return episode.query


# ===================================================================== holonomic


@dataclass
class HolonomicParams:
    n: int
    vocab: int
    generators: np.ndarray     # (vocab, n, n) unconstrained M matrices
    h0: np.ndarray             # (n,) unit norm
    readout: np.ndarray        # (n_queries, n_classes, n)

    def operators(self) -> np.ndarray:
        """exp(M - M^T) per vocabulary token, stacked (vocab, n, n)."""
        out = np.empty_like(self.generators, dtype=np.float64)
        for t in range(self.vocab):
            out[t] = tc.mat_exp(tc.skew(self.generators[t]))
        return out

    def to_dict(self):
        return {"generators": self.generators, "h0": self.h0, "readout": self.readout}

    def replace_from(self, d):
        return HolonomicParams(self.n, self.vocab, d["generators"], d["h0"], d["readout"])


def init_holonomic(rng: tc.RngState, n: int, vocab: int, n_classes: int,
                   n_queries: int = 1, gen_scale: float | None = None) -> HolonomicParams:
    gen = rng.generator()
    scale = gen_scale if gen_scale is not None else 0.4 / math.sqrt(n)
    generators = scale * gen.standard_normal((vocab, n, n))
    h0 = gen.standard_normal(n)
    h0 /= np.linalg.norm(h0)
    readout = gen.standard_normal((n_queries, n_classes, n)) / math.sqrt(n)
    return HolonomicParams(n, vocab, generators, h0, readout)


def holonomic_forward(p: HolonomicParams, episode: Episode,
                      noise: NoiseConfig = NoiseConfig(),
                      rng: tc.RngState | None = None,
                      operators: np.ndarray | None = None):
    """Multiplicative update h_t = exp(M(x_t) - M(x_t)^T) h_{t-1}.

    Returns (trajectory, logits); trajectory[0] is h0. With noise enabled the
    state is renormalized to unit norm after every injection.
    """
    _check_tokens(episode.tokens, p.vocab)
    if noise.enabled and rng is None:
        raise ArgumentError("noise enabled but no rng supplied")
    ops = operators if operators is not None else p.operators()
    h = p.h0.astype(np.float64, copy=True)
    trajectory = [h.copy()]
    for t, tok in enumerate(episode.tokens):
        h = ops[tok] @ h
        if noise.enabled:
            h = inject_noise(h, noise.temperature, p.n, rng.child(t))
            norm = np.linalg.norm(h)
            if norm > 0:
                h = h / norm
        trajectory.append(h.copy())
    q = _readout_query(episode, p.readout.shape[0])
    return trajectory, p.readout[q] @ h


def holonomic_tape_loss(tape: ge.Tape, leaves: dict, episodes: list[Episode]) -> ge.Var:
    """Mean cross-entropy over a batch, one shared exp node per token."""
    exp_nodes: dict[int, ge.Var] = {}

    def operator(tok: int) -> ge.Var:
        if tok not in exp_nodes:
            m = leaves["generators"][tok]
            exp_nodes[tok] = ge.mat_exp(m - m.T)
        return exp_nodes[tok]

    losses = []
    for ep in episodes:
        h = leaves["h0"]
        for tok in ep.tokens:
            h = ge.matvec(operator(tok), h)
        q = _readout_query(ep, leaves["readout"].value.shape[0])
        logits = ge.matvec(leaves["readout"][q], h)
        losses.append(ge.softmax_cross_entropy(logits, ep.target))
    total = losses[0]
    for extra in losses[1:]:
        total = total + extra
    return ge.scale(total, 1.0 / len(episodes))


# ===================================================================== rnn


@dataclass
class RnnParams:
    n: int
    vocab: int
    w_rec: np.ndarray   # (n, n)
    w_in: np.ndarray    # (vocab, n); row t is W_in @ onehot(t)
    bias: np.ndarray    # (n,)
    readout: np.ndarray  # (n_queries, n_classes, n)

    def to_dict(self):
        return {"w_rec": self.w_rec, "w_in": self.w_in, "bias": self.bias,
                "readout": self.readout}

    def replace_from(self, d):
        return RnnParams(self.n, self.vocab, d["w_rec"], d["w_in"], d["bias"],
                         d["readout"])


def init_rnn(rng: tc.RngState, n: int, vocab: int, n_classes: int,
             n_queries: int = 1) -> RnnParams:
    gen = rng.generator()
    # orthogonal recurrent init keeps early tanh dynamics near-isometric
    w_rec = tc.mat_exp(tc.skew(gen.standard_normal((n, n)) / math.sqrt(n)))
    w_in = 0.5 * gen.standard_normal((vocab, n))
    bias = np.zeros(n)
    readout = gen.standard_normal((n_queries, n_classes, n)) / math.sqrt(n)
    return RnnParams(n, vocab, w_rec, w_in, bias, readout)


def rnn_forward(p: RnnParams, episode: Episode,
                noise: NoiseConfig = NoiseConfig(),
                rng: tc.RngState | None = None,
                normalized: bool = False):
    """tanh recurrence; the normalized variant projects onto the unit sphere
    after every timestep and after every noise injection."""
    _check_tokens(episode.tokens, p.vocab)
    if noise.enabled and rng is None:
        raise ArgumentError("noise enabled but no rng supplied")
    h = np.zeros(p.n)
    trajectory = [h.copy()]
    for t, tok in enumerate(episode.tokens):
        h = np.tanh(p.w_rec @ h + p.w_in[tok] + p.bias)
        if normalized:
            norm = np.linalg.norm(h)
            if norm > 0:
                h = h / norm
        if noise.enabled:
            h = inject_noise(h, noise.temperature, p.n, rng.child(t))
            if normalized:
                norm = np.linalg.norm(h)
                if norm > 0:
                    h = h / norm
        trajectory.append(h.copy())
    q = _readout_query(episode, p.readout.shape[0])
    return trajectory, p.readout[q] @ h


def rnn_tape_loss(tape: ge.Tape, leaves: dict, episodes: list[Episode],
                  normalized: bool = False) -> ge.Var:
    losses = []
    zero = tape.leaf(np.zeros(leaves["bias"].value.shape[0]))
    for ep in episodes:
        h = zero
        for tok in ep.tokens:
            pre = ge.matvec(leaves["w_rec"], h) + ge.embed_lookup(leaves["w_in"], tok) \
                + leaves["bias"]
            h = ge.tanh(pre)
            if normalized:
                h = ge.unit(h)
        q = _readout_query(ep, leaves["readout"].value.shape[0])
        logits = ge.matvec(leaves["readout"][q], h)
        losses.append(ge.softmax_cross_entropy(logits, ep.target))
    total = losses[0]
    for extra in losses[1:]:
        total = total + extra
    return ge.scale(total, 1.0 / len(episodes))


# ===================================================================== transformer


@dataclass
class TransformerParams:
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    vocab: int
    pos_mode: str            # "learned" | "sinusoidal"
    max_len: int             # learned positional capacity
    pool: str                # "final" | "mean"
    weights: dict = field(default_factory=dict)  # flat name -> array

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise DimensionError(
                f"d_model {self.d_model} not divisible by {self.n_heads} heads")
        if self.pos_mode not in ("learned", "sinusoidal"):
            raise ArgumentError(f"unknown positional mode: {self.pos_mode}")
        if self.pool not in ("final", "mean"):
            raise ArgumentError(f"unknown pooling mode: {self.pool}")

    def to_dict(self):
        return self.weights

    def replace_from(self, d):
        out = TransformerParams(self.d_model, self.n_layers, self.n_heads,
                                self.d_ff, self.vocab, self.pos_mode,
                                self.max_len, self.pool, dict(d))
        return out


def sinusoidal_table(length: int, d_model: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    idx = np.arange(0, d_model, 2)[None, :]
    angles = pos / np.power(10000.0, idx / d_model)
    table = np.zeros((length, d_model))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return table


def init_transformer(rng: tc.RngState, d_model: int, n_layers: int, n_heads: int,
                     d_ff: int, vocab: int, n_classes: int, n_queries: int = 1,
                     pos_mode: str = "learned", max_len: int = 64,
                     pool: str = "final") -> TransformerParams:
    gen = rng.generator()
    s = 1.0 / math.sqrt(d_model)
    w = {"embed": s * gen.standard_normal((vocab, d_model))}
    if pos_mode == "learned":
        w["pos"] = s * gen.standard_normal((max_len, d_model))
    for i in range(n_layers):
        pre = f"layer{i}."
        for name in ("wq", "wk", "wv", "wo"):
            w[pre + name] = s * gen.standard_normal((d_model, d_model))
            w[pre + name.replace("w", "b")] = np.zeros(d_model)
        w[pre + "ln1_g"] = np.ones(d_model)
        w[pre + "ln1_b"] = np.zeros(d_model)
        w[pre + "ln2_g"] = np.ones(d_model)
        w[pre + "ln2_b"] = np.zeros(d_model)
        w[pre + "w1"] = s * gen.standard_normal((d_model, d_ff))
        w[pre + "b1"] = np.zeros(d_ff)
        w[pre + "w2"] = gen.standard_normal((d_ff, d_model)) / math.sqrt(d_ff)
        w[pre + "b2"] = np.zeros(d_model)
    w["ln_f_g"] = np.ones(d_model)
    w["ln_f_b"] = np.zeros(d_model)
    w["readout"] = s * gen.standard_normal((n_queries, n_classes, d_model))
    return TransformerParams(d_model, n_layers, n_heads, d_ff, vocab,
                             pos_mode, max_len, pool, w)


def _layer_norm_np(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps=1e-5) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def _positional(p: TransformerParams, length: int) -> np.ndarray:
    if p.pos_mode == "learned":
        if length > p.max_len:
            raise CapacityError(
                f"sequence length {length} exceeds learned positional table "
                f"of {p.max_len}")
        return p.weights["pos"][:length]
    return sinusoidal_table(length, p.d_model)


def transformer_forward_batch(p: TransformerParams, episodes: list[Episode],
                              noise: NoiseConfig = NoiseConfig(),
                              rngs: list[tc.RngState] | None = None,
                              return_repr: bool = False) -> np.ndarray:
    """Batched encoder forward over same-length episodes; returns (B, C) logits
    (or the pooled (B, d) representation when return_repr is set).

    Noise (when enabled) is drawn from one stream per episode so results are
    independent of batch composition.
    """
    if not episodes:
        raise ArgumentError("empty episode batch")
    length = episodes[0].length
    if any(e.length != length for e in episodes):
        raise ArgumentError("batched forward requires equal-length episodes")
    for e in episodes:
        _check_tokens(e.tokens, p.vocab)
    if noise.enabled and rngs is None:
        raise ArgumentError("noise enabled but no rng supplied")
    w = p.weights
    d, heads = p.d_model, p.n_heads
    dk = d // heads
    ids = np.array([e.tokens for e in episodes])
    x = w["embed"][ids] + _positional(p, length)[None, :, :]
    for i in range(p.n_layers):
        pre = f"layer{i}."
        y = _layer_norm_np(x, w[pre + "ln1_g"], w[pre + "ln1_b"])
        q = y @ w[pre + "wq"] + w[pre + "bq"]
        k = y @ w[pre + "wk"] + w[pre + "bk"]
        v = y @ w[pre + "wv"] + w[pre + "bv"]
        out = np.empty_like(q)
        for h in range(heads):
            sl = slice(h * dk, (h + 1) * dk)
            scores = q[:, :, sl] @ k[:, :, sl].transpose(0, 2, 1) / math.sqrt(dk)
            scores -= scores.max(axis=-1, keepdims=True)
            probs = np.exp(scores)
            probs /= probs.sum(axis=-1, keepdims=True)
            out[:, :, sl] = probs @ v[:, :, sl]
        x = x + out @ w[pre + "wo"] + w[pre + "bo"]
        y = _layer_norm_np(x, w[pre + "ln2_g"], w[pre + "ln2_b"])
        x = x + np.tanh(y @ w[pre + "w1"] + w[pre + "b1"]) @ w[pre + "w2"] + w[pre + "b2"]
        if noise.enabled and noise.site == "residual-stream":
            for b in range(len(episodes)):
                g = rngs[b].child(i).generator().standard_normal((length, d))
                norms = np.linalg.norm(x[b], axis=-1, keepdims=True)
                x[b] = x[b] + g * (noise.temperature / math.sqrt(d)) * norms
    x = _layer_norm_np(x, w["ln_f_g"], w["ln_f_b"])
    pooled = x.mean(axis=1) if p.pool == "mean" else x[:, -1, :]
    if return_repr:
        return pooled
    readout = w["readout"]
    logits = np.empty((len(episodes), readout.shape[1]))
    for b, e in enumerate(episodes):
        logits[b] = readout[_readout_query(e, readout.shape[0])] @ pooled[b]
    return logits


def transformer_forward(p: TransformerParams, episode: Episode,
                        noise: NoiseConfig = NoiseConfig(),
                        rng: tc.RngState | None = None) -> np.ndarray:
    return transformer_forward_batch(
        p, [episode], noise, None if rng is None else [rng])[0]


def transformer_tape_loss(tape: ge.Tape, leaves: dict, episodes: list[Episode],
                          p: TransformerParams) -> ge.Var:
    d, heads = p.d_model, p.n_heads
    dk = d // heads
    losses = []
    for ep in episodes:
        length = ep.length
        if p.pos_mode == "learned":
            if length > p.max_len:
                raise CapacityError(
                    f"sequence length {length} exceeds learned positional table")
            pos = leaves["pos"][0:length]
        else:
            pos = tape.leaf(sinusoidal_table(length, d))
        x = ge.embed_lookup(leaves["embed"], list(ep.tokens)) + pos
        for i in range(p.n_layers):
            pre = f"layer{i}."
            y = ge.layer_norm(x, leaves[pre + "ln1_g"], leaves[pre + "ln1_b"])
            q = ge.matmul(y, leaves[pre + "wq"]) + leaves[pre + "bq"]
            k = ge.matmul(y, leaves[pre + "wk"]) + leaves[pre + "bk"]
            v = ge.matmul(y, leaves[pre + "wv"]) + leaves[pre + "bv"]
            heads_out = []
            for h in range(heads):
                sl = (slice(None), slice(h * dk, (h + 1) * dk))
                heads_out.append(ge.attention(q[sl], k[sl], v[sl]))
            att = ge.concat(heads_out, axis=1)
            x = x + ge.matmul(att, leaves[pre + "wo"]) + leaves[pre + "bo"]
            y = ge.layer_norm(x, leaves[pre + "ln2_g"], leaves[pre + "ln2_b"])
            mlp = ge.matmul(ge.tanh(ge.matmul(y, leaves[pre + "w1"])
                                    + leaves[pre + "b1"]), leaves[pre + "w2"]) \
                + leaves[pre + "b2"]
            x = x + mlp
        x = ge.layer_norm(x, leaves["ln_f_g"], leaves["ln_f_b"])
        if p.pool == "mean":
            ones = tape.leaf(np.full((1, length), 1.0 / length))
            pooled = ge.matmul(ones, x)[0]
        else:
            pooled = x[length - 1]
        qix = _readout_query(ep, leaves["readout"].value.shape[0])
        logits = ge.matvec(leaves["readout"][qix], pooled)
        losses.append(ge.softmax_cross_entropy(logits, ep.target))
    total = losses[0]
    for extra in losses[1:]:
        total = total + extra
    return ge.scale(total, 1.0 / len(episodes))


# ===================================================================== batched tape losses
#
# Trainer-facing graphs. The holonomic graph is one skew_exp node for the whole
# operator stack and one holonomic_scan node over the left-padded batch, so its
# size does not depend on the episode lengths. The RNN and transformer group
# episodes by length, one fused node per batch step. The per-episode losses
# above are kept as the reference the batched paths are tested against.


def _grouped_by_length(episodes: list[Episode]) -> list[list[Episode]]:
    groups: dict[int, list[Episode]] = {}
    for e in episodes:
        groups.setdefault(e.length, []).append(e)
    return [groups[k] for k in sorted(groups)]


def _combine_group_losses(parts: list[tuple[ge.Var, int]], total: int) -> ge.Var:
    out = None
    for loss, count in parts:
        term = ge.scale(loss, count / total)
        out = term if out is None else out + term
    return out


def _queries_and_targets(group: list[Episode], n_queries: int):
    qs = [0 if e.query is None else _readout_query(e, n_queries) for e in group]
    return qs, [e.target for e in group]


def _left_padded(episodes: list[Episode], vocab: int) -> np.ndarray:
    """(B, L_max) token ids; shorter episodes are left-padded with identity
    steps, so they end at the last column with unchanged states."""
    width = max(e.length for e in episodes)
    ids = np.full((len(episodes), width), ge.IDENTITY_STEP, dtype=np.intp)
    for row, e in zip(ids, episodes):
        _check_tokens(e.tokens, vocab)
        row[width - e.length:] = e.tokens
    return ids


def holonomic_tape_loss_batched(tape: ge.Tape, leaves: dict,
                                episodes: list[Episode]) -> ge.Var:
    generators = leaves["generators"]
    ids = _left_padded(episodes, generators.value.shape[0])
    h = ge.holonomic_scan(ge.skew_exp(generators), ids, leaves["h0"])
    qs, targets = _queries_and_targets(episodes, leaves["readout"].value.shape[0])
    logits = ge.gather_readout(leaves["readout"], h, qs)
    return ge.softmax_xent_mean(logits, targets)


def rnn_tape_loss_batched(tape: ge.Tape, leaves: dict, episodes: list[Episode],
                          normalized: bool = False) -> ge.Var:
    n = leaves["bias"].value.shape[0]
    n_queries = leaves["readout"].value.shape[0]
    w_rec_t = leaves["w_rec"].T
    parts = []
    for group in _grouped_by_length(episodes):
        b = len(group)
        ids = np.array([e.tokens for e in group])
        h = tape.leaf(np.zeros((b, n)))
        for t in range(ids.shape[1]):
            pre = ge.matmul(h, w_rec_t) + ge.embed_lookup(leaves["w_in"], ids[:, t]) \
                + leaves["bias"]
            h = ge.tanh(pre)
            if normalized:
                h = ge.unit(h)
        qs, targets = _queries_and_targets(group, n_queries)
        logits = ge.gather_readout(leaves["readout"], h, qs)
        parts.append((ge.softmax_xent_mean(logits, targets), b))
    return _combine_group_losses(parts, len(episodes))


def transformer_tape_loss_batched(tape: ge.Tape, leaves: dict,
                                  episodes: list[Episode],
                                  p: TransformerParams) -> ge.Var:
    n_queries = leaves["readout"].value.shape[0]
    parts = []
    for group in _grouped_by_length(episodes):
        b = len(group)
        length = group[0].length
        if p.pos_mode == "learned":
            if length > p.max_len:
                raise CapacityError(
                    f"sequence length {length} exceeds learned positional table")
            pos = leaves["pos"][0:length]
        else:
            pos = tape.leaf(sinusoidal_table(length, p.d_model))
        ids = np.array([e.tokens for e in group])
        x = ge.embed_lookup(leaves["embed"], ids) + pos
        for i in range(p.n_layers):
            pre = f"layer{i}."
            y = ge.layer_norm(x, leaves[pre + "ln1_g"], leaves[pre + "ln1_b"])
            q = ge.bmatmul(y, leaves[pre + "wq"]) + leaves[pre + "bq"]
            k = ge.bmatmul(y, leaves[pre + "wk"]) + leaves[pre + "bk"]
            v = ge.bmatmul(y, leaves[pre + "wv"]) + leaves[pre + "bv"]
            att = ge.mha(q, k, v, p.n_heads)
            x = x + ge.bmatmul(att, leaves[pre + "wo"]) + leaves[pre + "bo"]
            y = ge.layer_norm(x, leaves[pre + "ln2_g"], leaves[pre + "ln2_b"])
            mlp = ge.bmatmul(ge.tanh(ge.bmatmul(y, leaves[pre + "w1"])
                                     + leaves[pre + "b1"]), leaves[pre + "w2"]) \
                + leaves[pre + "b2"]
            x = x + mlp
        x = ge.layer_norm(x, leaves["ln_f_g"], leaves["ln_f_b"])
        if p.pool == "mean":
            pooled = ge.mean_axis1(x)
        else:
            pooled = x[:, length - 1, :]
        qs, targets = _queries_and_targets(group, n_queries)
        logits = ge.gather_readout(leaves["readout"], pooled, qs)
        parts.append((ge.softmax_xent_mean(logits, targets), b))
    return _combine_group_losses(parts, len(episodes))


# ===================================================================== dispatch


def _unit_rows(h: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    return np.divide(h, norms, out=h.copy(), where=norms > 0)


def _apply_tokens(h: np.ndarray, col: np.ndarray, mats: np.ndarray) -> None:
    """h[b] <- h[b] @ mats[col[b]] in place, one matmul per token over the rows
    that hold it; rows with IDENTITY_STEP are left alone."""
    order = np.argsort(col, kind="stable")
    cuts = np.searchsorted(col[order], np.arange(mats.shape[0] + 1))
    rows = order[cuts[0]:]
    hs = h[rows]
    cuts = (cuts - cuts[0]).tolist()
    for tok, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        if hi > lo:
            hs[lo:hi] = hs[lo:hi] @ mats[tok]
    h[rows] = hs


def forward_batch(kind: str, params, ids, queries=None,
                  noise: NoiseConfig = NoiseConfig(),
                  rng: tc.RngState | None = None, *,
                  operators: np.ndarray | None = None,
                  renorm_interval: int = 0):
    """Final states (B, n) and logits (B, C) of the holonomic model, the RNN or
    the normalized RNN over a (B, L) id block left-padded with IDENTITY_STEP.

    Padded steps leave a row's state unchanged, so each row matches its
    per-episode forward. With noise enabled, one (L, B, n) Gaussian block is
    drawn step by step from the single generator of `rng`, and only live
    steps get the energy-normalized update. `queries` selects each row's
    readout (None: readout 0). Holonomic inference may take precomputed
    `operators` (float32 for low-precision runs) and rescale each state to
    ||h0|| after every `renorm_interval` of its own steps (0: never).
    Raises NumericError on non-finite logits.
    """
    if kind not in (HOLONOMIC, RNN, NORMALIZED_RNN):
        raise ArgumentError(f"forward_batch has no path for model kind {kind!r}")
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 2:
        raise DimensionError(f"forward_batch: need a (B, L) id block, got {ids.shape}")
    b = ids.shape[0]
    if ids.size and (ids.min() < ge.IDENTITY_STEP or ids.max() >= params.vocab):
        raise ArgumentError(f"token outside vocabulary of size {params.vocab}")
    n_queries = params.readout.shape[0]
    queries = np.zeros(b, dtype=np.intp) if queries is None \
        else np.asarray(queries, dtype=np.intp)
    if queries.shape != (b,) or (b and (queries.min() < 0 or queries.max() >= n_queries)):
        raise ArgumentError(f"queries must be {b} ids in [0, {n_queries})")
    if noise.enabled and rng is None:
        raise ArgumentError("noise enabled but no rng supplied")
    if kind == HOLONOMIC:
        ops = params.operators() if operators is None else operators
        mats = ops.transpose(0, 2, 1)   # row states: (U h)^T = h^T U^T
        h = np.tile(params.h0.astype(ops.dtype), (b, 1))
        h0_norm = np.linalg.norm(params.h0)
    else:
        h = np.zeros((b, params.n))
        w_rec_t = params.w_rec.T
    gen = rng.generator() if noise.enabled else None
    scale = noise.temperature / math.sqrt(params.n)
    steps = np.zeros(b, dtype=np.intp)
    for col in ids.T:
        live = np.flatnonzero(col != ge.IDENTITY_STEP)
        steps[live] += 1
        if kind == HOLONOMIC:
            _apply_tokens(h, col, mats)
            if renorm_interval:
                due = live[steps[live] % renorm_interval == 0]
                norms = np.linalg.norm(h[due], axis=1, keepdims=True)
                h[due] *= np.divide(h0_norm, norms, out=np.ones_like(norms),
                                    where=norms > 0)
        else:
            hl = np.tanh(h[live] @ w_rec_t + params.w_in[col[live]] + params.bias)
            h[live] = _unit_rows(hl) if kind == NORMALIZED_RNN else hl
        if gen is not None:
            hl = h[live]
            if noise.temperature > 0:
                g = gen.standard_normal(h.shape)[live]
                hl = hl + g * scale * np.linalg.norm(hl, axis=1, keepdims=True)
            h[live] = hl if kind == RNN else _unit_rows(hl)
    readout = params.readout
    q, c, n = readout.shape
    logits = (h @ readout.reshape(q * c, n).T).reshape(b, q, c)[np.arange(b), queries]
    if not np.all(np.isfinite(logits)):
        raise NumericError("forward_batch: non-finite logits")
    return h, logits


def forward_logits(kind: str, params, episode: Episode,
                   noise: NoiseConfig = NoiseConfig(),
                   rng: tc.RngState | None = None) -> np.ndarray:
    if kind == HOLONOMIC:
        return holonomic_forward(params, episode, noise, rng)[1]
    if kind == RNN:
        return rnn_forward(params, episode, noise, rng, normalized=False)[1]
    if kind == NORMALIZED_RNN:
        return rnn_forward(params, episode, noise, rng, normalized=True)[1]
    if kind == TRANSFORMER:
        return transformer_forward(params, episode, noise, rng)
    raise ArgumentError(f"unknown model kind: {kind}")


def tape_batch_loss(kind: str, tape: ge.Tape, leaves: dict,
                    episodes: list[Episode], params=None) -> ge.Var:
    if kind == HOLONOMIC:
        return holonomic_tape_loss_batched(tape, leaves, episodes)
    if kind == RNN:
        return rnn_tape_loss_batched(tape, leaves, episodes, normalized=False)
    if kind == NORMALIZED_RNN:
        return rnn_tape_loss_batched(tape, leaves, episodes, normalized=True)
    if kind == TRANSFORMER:
        return transformer_tape_loss_batched(tape, leaves, episodes, params)
    raise ArgumentError(f"unknown model kind: {kind}")


def param_count(params) -> tuple[int, dict]:
    """Exact trainable-scalar count, itemized per component."""
    items = {}
    if isinstance(params, TransformerParams):
        for name, arr in params.weights.items():
            comp = name.split(".")[0]
            items[comp] = items.get(comp, 0) + arr.size
    else:
        for name, arr in params.to_dict().items():
            items[name] = arr.size
    return sum(items.values()), items
