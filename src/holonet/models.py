"""The four sequence classifiers behind a single interface.

Each model has one numpy inference forward (`forward_batch`) and one training
graph on a grad_engine.Tape (`tape_batch_loss`). Both read a batch as the
sampler holds it: a (B, L) id block left-padded with IDENTITY_STEP and one
readout id per row (None: readout 0), under one row-layout rule
(`_checked_block`). Noise is a temperature T, one per block of rows when a
probe stacks several batches, and one function, `inject_noise`: the
energy-normalized update x + g * (T / sqrt(N)) * ||x|| hits the recurrent
state of the holonomic model and the RNNs and the residual stream of the
transformer. A forward can also return the states after chosen columns: a
recurrent one reads every prefix of a block off one pass, and the
transformer runs each prefix alone.

At inference each model runs its training nodes' kernels, so the two agree
bit for bit. The holonomic operators are `HolonomicParams.operators`, the
`skew_exp` kernel over the whole vocabulary, and the holonomic step is
`grad_engine.token_step` (the `holonomic_scan` kernel) over a token schedule
computed once per block, in the layout, grouped or padded, that
`grad_engine.token_schedule` picks; float32 operators (genlen at precision
32) keep their dtype. The RNN step is `grad_engine.rnn_step` (the `rnn_scan`
kernel) over each column's live rows. The transformer packs the block once
(`_pack`): the live tokens of the rows, sorted by length, as one (T, d) stream
with equal-length segments, and each layer is one call of
`grad_engine.encoder_layer_kernel` over it (`transformer_forward_batch`).
`holonomic_forward` and `rnn_forward` are the recurrent models' noiseless
per-episode (B = 1) references.

Training builds one graph per batch, and its size depends on neither the
length mix nor L_max: the holonomic model and the RNNs run one scan node over
the left-padded (B, L_max) block, the transformer one node per layer over the
packed stream. There every LayerNorm and GEMM runs once over all T tokens and
only attention loops over the segments, the unpadded "varlen" layout of
FlashAttention (Dao et al., 2022) that packs sequences without
cross-contamination (Krell et al., 2021): no pad token costs attention's L^2
and no key mask is needed.

A model is one value, its params, and each kind's parameter dataclass
(`PARAMS`) is its one description: `kind` names it (`NormalizedRnnParams` is
the RNN's arrays under their own kind), `HEADER` names its structural fields
and the rule each meets, `layout` derives every array's name and shape from
them, and `to_dict` gives the arrays, the ones the optimizer updates in
place, so training updates the model it built. `ModelConfig.build` makes
one, and `operators`, `project` and `capacity` answer the other per-kind
questions of training and the probes, so their callers test no kind.
Readouts are stored as (n_queries, n_classes, n): the S3 task uses a single
map (n_queries=1), the binding task one map per queried variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from . import grad_engine as ge
from . import tensor_core as tc
from .errors import ArgumentError, CapacityError, DimensionError, NumericError
from .group_tasks import Batch, Episode, TaskConfig

HOLONOMIC = "holonomic"
RNN = "rnn"
NORMALIZED_RNN = "normalized-rnn"
TRANSFORMER = "transformer"


def inject_noise(x: np.ndarray, temperature: float, g: np.ndarray) -> np.ndarray:
    """Energy-normalized perturbation x + g * (T / sqrt(N)) * ||x||, row-wise
    over the last axis (N = x.shape[-1]); g is a Gaussian draw shaped like x."""
    return x + g * (temperature / math.sqrt(x.shape[-1])) \
        * np.linalg.norm(x, axis=-1, keepdims=True)


def _checked_block(ids, queries, vocab: int, n_queries: int) -> tuple:
    """A batch's (B, L) id block and (B,) readout ids as intp arrays.

    The one row-layout rule of inference and training: every id is a token
    or IDENTITY_STEP, each row is padded on the left only and holds at least
    one token, and each readout id indexes the bank (None: readout 0).
    Otherwise raises ArgumentError (DimensionError for a block not 2-d).
    """
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 2:
        raise DimensionError(f"need a (B, L) id block, got shape {ids.shape}")
    if ids.size and (ids.min() < ge.IDENTITY_STEP or ids.max() >= vocab):
        raise ArgumentError(f"token outside vocabulary of size {vocab}")
    live = ids != ge.IDENTITY_STEP
    if np.any(live[:, :-1] > live[:, 1:]) or not live.any(axis=1).all():
        raise ArgumentError("rows must be padded on the left only and hold at "
                            "least one token")
    b = ids.shape[0]
    queries = np.zeros(b, dtype=np.intp) if queries is None \
        else np.asarray(queries, dtype=np.intp)
    if queries.shape != (b,) or (b and (queries.min() < 0 or queries.max() >= n_queries)):
        raise ArgumentError(f"queries must be {b} ids in [0, {n_queries})")
    return ids, queries


def header(params) -> dict:
    """The structural fields of a model, by name: its class's HEADER."""
    return {key: getattr(params, key) for key in params.HEADER}


def check(name: str, rule, value, error=ArgumentError) -> None:
    """Raise `error` naming `name` unless `value` meets `rule`, in the one
    form of every field rule (a params class's HEADER, a config field's type):
    an int k (an int, not a bool, at least k); a tuple (one of its values);
    an interval string such as "(0, 1]" or "[0, inf)" (an int or a float in
    it, each end open or closed); or a list or a set of one rule (a non-empty
    tuple whose every entry meets that rule, no entry twice for a set)."""
    if isinstance(rule, (list, set)):
        if not (isinstance(value, tuple) and value) \
                or isinstance(rule, set) and len(set(value)) < len(value):
            distinct = " of distinct entries" if isinstance(rule, set) else ""
            raise error(f"{name} must be a non-empty list{distinct}, got {value!r}")
        for entry in value:
            check(f"each {name} entry", next(iter(rule)), entry, error)
        return
    if isinstance(rule, tuple):
        ok, text = value in rule, "one of " + ", ".join(map(str, rule))
    elif isinstance(rule, int):
        ok, text = type(value) is int and value >= rule, f"an int >= {rule}"
    else:
        lo, hi = (float(end) for end in rule[1:-1].split(","))
        ok = type(value) in (int, float) and (lo < value if rule[0] == "(" else lo <= value) \
            and (value < hi if rule[-1] == ")" else value <= hi)
        text = f"a number in {rule}"
    if not ok:
        raise error(f"{name} must be {text}, got {value!r}")


# ===================================================================== holonomic


@dataclass
class HolonomicParams:
    n: int
    vocab: int
    generators: np.ndarray     # (vocab, n, n) unconstrained M matrices
    h0: np.ndarray             # (n,) unit norm
    readout: np.ndarray        # (n_queries, n_classes, n)

    kind = HOLONOMIC
    HEADER = {"n": 0, "vocab": 0}   # field -> its rule (see check)

    @staticmethod
    def layout(n: int, vocab: int) -> dict:
        """Array name -> shape; None matches any extent (the header does not
        record the readout's query and class counts)."""
        return {"generators": (vocab, n, n), "h0": (n,), "readout": (None, None, n)}

    def operators(self) -> np.ndarray:
        """exp(M - M^T) per vocabulary token, stacked (vocab, n, n) in float64
        by the training graph's `skew_exp` kernel, which picks its algorithm
        from the stack's shape and scale alone: the trained bits."""
        return ge.skew_exp_kernel(np.asarray(self.generators, dtype=np.float64))[0]

    def to_dict(self):
        return {"generators": self.generators, "h0": self.h0, "readout": self.readout}


def init_holonomic(rng: tc.RngState, n: int, vocab: int, n_classes: int,
                   n_queries: int = 1, gen_scale: float | None = None) -> HolonomicParams:
    gen = rng.generator()
    scale = gen_scale if gen_scale is not None else 0.4 / math.sqrt(n)
    generators = scale * gen.standard_normal((vocab, n, n))
    h0 = gen.standard_normal(n)
    h0 /= np.linalg.norm(h0)
    readout = gen.standard_normal((n_queries, n_classes, n)) / math.sqrt(n)
    return HolonomicParams(n, vocab, generators, h0, readout)


def holonomic_forward(p: HolonomicParams, episode: Episode):
    """Multiplicative update h_t = exp(M(x_t) - M(x_t)^T) h_{t-1}, the
    noiseless per-episode reference for `forward_batch`.

    Returns (trajectory, logits); trajectory[0] is h0.
    """
    ids, queries = _checked_block([episode.tokens], [episode.query or 0], p.vocab,
                                  p.readout.shape[0])
    ops = p.operators()
    h = p.h0.astype(np.float64, copy=True)
    trajectory = [h]
    for tok in ids[ids != ge.IDENTITY_STEP]:
        h = ops[tok] @ h
        trajectory.append(h)
    return trajectory, p.readout[queries[0]] @ h


# ===================================================================== rnn


@dataclass
class RnnParams:
    n: int
    vocab: int
    w_rec: np.ndarray   # (n, n)
    w_in: np.ndarray    # (vocab, n); row t is W_in @ onehot(t)
    bias: np.ndarray    # (n,)
    readout: np.ndarray  # (n_queries, n_classes, n)

    kind = RNN
    HEADER = {"n": 0, "vocab": 0}

    @staticmethod
    def layout(n: int, vocab: int) -> dict:
        return {"w_rec": (n, n), "w_in": (vocab, n), "bias": (n,), "readout": (None, None, n)}

    def to_dict(self):
        return {"w_rec": self.w_rec, "w_in": self.w_in, "bias": self.bias,
                "readout": self.readout}


class NormalizedRnnParams(RnnParams):
    kind = NORMALIZED_RNN   # the state is projected onto the unit sphere every step


def init_rnn(rng: tc.RngState, n: int, vocab: int, n_classes: int,
             n_queries: int = 1, normalized: bool = False) -> RnnParams:
    gen = rng.generator()
    # orthogonal recurrent init keeps early tanh dynamics near-isometric
    w_rec = ge.skew_exp_kernel(gen.standard_normal((1, n, n)) / math.sqrt(n))[0][0]
    w_in = 0.5 * gen.standard_normal((vocab, n))
    bias = np.zeros(n)
    readout = gen.standard_normal((n_queries, n_classes, n)) / math.sqrt(n)
    cls = NormalizedRnnParams if normalized else RnnParams
    return cls(n, vocab, w_rec, w_in, bias, readout)


def rnn_forward(p: RnnParams, episode: Episode):
    """tanh recurrence, the noiseless per-episode reference for
    `forward_batch`; the normalized RNN projects onto the unit sphere after
    every timestep."""
    ids, queries = _checked_block([episode.tokens], [episode.query or 0], p.vocab,
                                  p.readout.shape[0])
    h = np.zeros(p.n)
    trajectory = [h]
    for tok in ids[ids != ge.IDENTITY_STEP]:
        h = np.tanh(p.w_rec @ h + p.w_in[tok] + p.bias)
        if p.kind == NORMALIZED_RNN:
            h = ge.unit_kernel(h)[0]
        trajectory.append(h)
    return trajectory, p.readout[queries[0]] @ h


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

    kind = TRANSFORMER
    HEADER = {"d_model": 0, "n_layers": 0, "n_heads": 1, "d_ff": 0, "vocab": 0,
              "pos_mode": ("learned", "sinusoidal"), "max_len": 0, "pool": ("final", "mean")}

    def __post_init__(self):
        for key, rule in self.HEADER.items():
            check(f"TransformerParams field {key!r}", rule, getattr(self, key))
        if self.d_model % self.n_heads != 0:
            raise DimensionError(
                f"d_model {self.d_model} not divisible by {self.n_heads} heads")

    @staticmethod
    def layout(d_model, n_layers, d_ff, vocab, pos_mode, max_len, **_) -> dict:
        """Array name -> shape, in `init_transformer`'s draw order: layer i's
        arrays are `layer{i}.<name>`, shaped by grad_engine.encoder_shapes."""
        d = d_model
        shapes = {"embed": (vocab, d)}
        if pos_mode == "learned":
            shapes["pos"] = (max_len, d)
        for i in range(n_layers):
            shapes.update({f"layer{i}.{k}": v for k, v in ge.encoder_shapes(d, d_ff).items()})
        return {**shapes, "ln_f_g": (d,), "ln_f_b": (d,), "readout": (None, None, d)}

    def to_dict(self):
        return self.weights


PARAMS = {cls.kind: cls for cls in (HolonomicParams, RnnParams, NormalizedRnnParams,
                                     TransformerParams)}


def rebuild(kind: str, fields: dict, arrays: dict):
    """The `kind` model of its header fields and its arrays by name: the
    inverse of `header` and `to_dict`."""
    cls = PARAMS[kind]
    return cls(**fields, weights=arrays) if cls is TransformerParams \
        else cls(**fields, **arrays)


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
    p = TransformerParams(d_model, n_layers, n_heads, d_ff, vocab, pos_mode, max_len, pool)
    gen = rng.generator()
    s = 1.0 / math.sqrt(d_model)
    for name, shape in p.layout(**header(p)).items():
        leaf = name.rpartition(".")[2]
        if leaf == "readout":
            shape = (n_queries, n_classes, d_model)
        if leaf == "w2":
            arr = gen.standard_normal(shape) / math.sqrt(d_ff)
        elif leaf in ("embed", "pos", "readout") or leaf[0] == "w":
            arr = s * gen.standard_normal(shape)
        else:   # biases and LayerNorm shifts 0, LayerNorm gains 1
            arr = np.ones(shape) if leaf.endswith("_g") else np.zeros(shape)
        p.weights[name] = arr
    return p


# ===================================================================== per-kind answers


@dataclass(frozen=True)
class ModelConfig:
    """A model's settings, the [model] section: `build` makes the model."""

    kind: Annotated[str, tuple(PARAMS)] = HOLONOMIC
    n: Annotated[int, 1] = 32                   # hidden dim / d_model
    layers: Annotated[int, 1] = 3
    heads: Annotated[int, 1] = 8
    d_ff: Annotated[int, 0] = 0                 # 0 -> 2 * d_model
    positional: Annotated[str, TransformerParams.HEADER["pos_mode"]] = "learned"
    max_len: Annotated[int, 1] = 64
    pool: Annotated[str, TransformerParams.HEADER["pool"]] = "final"
    gen_scale: Annotated[float, "[0, inf)"] = 0.0   # 0 -> default holonomic init scale

    def build(self, rng: tc.RngState, task: TaskConfig):
        """The untrained model, shaped for `task`'s vocabulary and readouts."""
        shape = (task.vocab, task.n_classes, task.n_queries)
        if self.kind == HOLONOMIC:
            return init_holonomic(rng, self.n, *shape, gen_scale=self.gen_scale or None)
        if self.kind in (RNN, NORMALIZED_RNN):
            return init_rnn(rng, self.n, *shape, self.kind == NORMALIZED_RNN)
        if self.kind == TRANSFORMER:
            return init_transformer(rng, self.n, self.layers, self.heads,
                                    self.d_ff or 2 * self.n, *shape, self.positional,
                                    self.max_len, self.pool)
        raise ArgumentError(f"unknown model kind: {self.kind}")


def operators(params, precision: int = 64) -> np.ndarray | None:
    """The holonomic operators (`HolonomicParams.operators`) in `precision`,
    built once for a probe or an eval point that runs many batches; None for
    the other kinds."""
    if params.kind != HOLONOMIC:
        return None
    ops = params.operators()
    return ops.astype(np.float32) if precision == 32 else ops


def project(params) -> None:
    """Put the holonomic h0 back on the unit sphere, in place, after an
    optimizer step; the other kinds have no constrained array."""
    if params.kind == HOLONOMIC:
        params.h0 /= np.linalg.norm(params.h0)


def capacity(params) -> int | None:
    """The longest row a model can read: a learned positional table's
    length, else None (no limit)."""
    if params.kind == TRANSFORMER and params.pos_mode == "learned":
        return params.max_len
    return None


def _pack(p: TransformerParams, ids: np.ndarray) -> tuple:
    """A checked left-padded block's live tokens as one stream, the layout of
    `grad_engine.encoder_layer_kernel`, its rows sorted by length, stably:
    (tokens, each token's position in its row, the segments, each packed
    row's length and its block row). Raises CapacityError for a row longer
    than a learned positional table."""
    lengths = (ids != ge.IDENTITY_STEP).sum(axis=1)
    limit = capacity(p)
    if limit is not None and lengths.max(initial=0) > limit:
        raise CapacityError(
            f"sequence length {lengths.max()} exceeds learned positional table of {limit}")
    rows = np.argsort(lengths, kind="stable")
    lengths, block = lengths[rows], ids[rows]
    live = block != ge.IDENTITY_STEP
    positions = live.cumsum(axis=1)[live] - 1
    lens, counts = np.unique(lengths, return_counts=True)
    sizes = lens * counts
    segments = tuple(zip((np.cumsum(sizes) - sizes).tolist(), counts.tolist(),
                         lens.tolist()))
    return block[live], positions, segments, lengths, rows


def _layer_weights(source: dict, i: int) -> dict:
    """Layer i's entries of a flat weight dict (arrays or leaves), keyed by
    grad_engine.ENCODER_WEIGHTS."""
    return {name: source[f"layer{i}.{name}"] for name in ge.ENCODER_WEIGHTS}


def transformer_forward_batch(p: TransformerParams, ids: np.ndarray,
                              noise: tuple = ((), None)) -> np.ndarray:
    """Pooled (B, d) encodings of a checked left-padded (B, L) id block,
    packed once (`_pack`): each layer is one `encoder_layer_kernel` call over
    the (T, d) token stream.

    With `noise` (the blocks and per-row temperatures of `forward_batch`),
    each layer's output x then takes `inject_noise` per token: each noised
    block draws one Gaussian block over its own tokens, in the order they
    would pack alone (the packing sort is stable).
    """
    w = p.weights
    tokens, positions, segments, lengths, rows = _pack(p, ids)
    table = w["pos"] if p.pos_mode == "learned" \
        else sinusoidal_table(ids.shape[1], p.d_model)
    x = w["embed"][tokens] + table[positions]
    blocks, scale = noise
    if blocks:
        owner = np.repeat(rows, lengths)    # the block row of each stream token
        streams = [(np.flatnonzero((owner >= block.start) & (owner < block.stop)), gen)
                   for block, gen in blocks]
        noised = _rows(scale[owner, 0] > 0)
        g = np.empty(x.shape)
    for i in range(p.n_layers):
        x = ge.encoder_layer_kernel(x, segments, _layer_weights(w, i),
                                    p.n_heads)[0]
        if blocks:
            for stream, gen in streams:
                g[stream] = gen.standard_normal((stream.size, p.d_model))
            x[noised] = inject_noise(x[noised], scale[owner[noised]], g[noised])
    x = ge.layer_norm_kernel(x, w["ln_f_g"], w["ln_f_b"])[0]
    return ge.segment_pool_kernel(x, lengths, rows, p.pool == "mean")


# ===================================================================== batched tape losses
#
# Trainer-facing graphs, one per batch, whose size depends on neither the
# length mix nor L_max. The holonomic model and the RNNs run over the
# left-padded (B, L_max) block: the holonomic graph is one skew_exp node for
# the operator stack and one holonomic_scan node, the RNN one rnn_scan node.
# The transformer runs the packed stream: one encoder_layer node per layer.


def _readout_loss(leaves: dict, states: ge.Var, queries, targets) -> ge.Var:
    """Mean cross-entropy of each row's queried readout of its final state."""
    return ge.softmax_xent_mean(ge.gather_readout(leaves["readout"], states, queries),
                                targets)


def _transformer_tape_states(tape: ge.Tape, leaves: dict, ids: np.ndarray,
                             p: TransformerParams) -> ge.Var:
    """The embedding and one positional gather of the packed stream, one
    encoder_layer node per layer, the final LayerNorm and one segment_pool
    node: the arithmetic of `transformer_forward_batch`, noiseless."""
    tokens, positions, segments, lengths, rows = _pack(p, ids)
    table = leaves["pos"] if p.pos_mode == "learned" \
        else tape.leaf(sinusoidal_table(ids.shape[1], p.d_model))
    x = ge.embed_lookup(leaves["embed"], tokens) \
        + ge.embed_lookup(table, positions)
    for i in range(p.n_layers):
        x = ge.encoder_layer(x, segments, _layer_weights(leaves, i), p.n_heads)
    x = ge.layer_norm(x, leaves["ln_f_g"], leaves["ln_f_b"])
    return ge.segment_pool(x, lengths, rows, p.pool == "mean")


# ===================================================================== dispatch


def _rows(mask: np.ndarray):
    """The rows a (B,) mask holds: a slice when they are one run, so that
    indexing them takes a view, not a copy; else their indices."""
    idx = np.flatnonzero(mask)
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _noise_blocks(b: int, temperature, rng) -> tuple:
    """(blocks, scale) of a B-row batch's noise. One temperature and one
    RngState noise every row; G temperatures and G RngStates split the rows
    into G equal blocks, block k at temperature[k] from rng[k]. `blocks`
    holds (rows, generator) of each block above temperature 0, `scale` each
    row's temperature as a (B, 1) column."""
    temps = np.atleast_1d(np.asarray(temperature, dtype=np.float64))
    rngs = [rng] if rng is None or isinstance(rng, tc.RngState) else list(rng)
    if temps.ndim != 1 or len(rngs) != temps.size or b % temps.size:
        raise ArgumentError(f"need one rng per temperature, the {b} rows split "
                            f"evenly among the {temps.size} temperatures")
    if np.any(temps < 0):
        raise ArgumentError("noise temperature must be >= 0")
    size, blocks = b // temps.size, []
    for k, (temp, r) in enumerate(zip(temps.tolist(), rngs)):
        if temp > 0:
            if r is None:
                raise ArgumentError("noise temperature > 0 but no rng supplied")
            blocks.append((slice(k * size, (k + 1) * size), r.generator()))
    return blocks, np.repeat(temps, size)[:, None]


def _recurrent_states(params, ids: np.ndarray, noise: tuple,
                      operators: np.ndarray | None, columns) -> np.ndarray:
    """States of the holonomic model or an RNN, one column at a time, by the
    step kernels of their training nodes: `grad_engine.token_step` over the
    block's token schedule, in the layout it picked (`holonomic_scan`), or
    `grad_engine.rnn_step` over the column's live rows (`rnn_scan`). Returns
    the final states (B, n), or with `columns` the states after each listed
    column (K, B, n). Each noised block draws its (rows, n) Gaussian block per
    column into one preallocated (B, n) block."""
    b, kind = ids.shape[0], params.kind
    if kind == HOLONOMIC:
        ops = params.operators() if operators is None else operators
        mats = ops.transpose(0, 2, 1)   # row states: (U h)^T = h^T U^T
        h = np.tile(params.h0.astype(ops.dtype), (b, 1))
        schedule = ge.token_schedule(ids, ops)
    else:
        h = np.zeros((b, params.n))
        w_rec_t = params.w_rec.T
    blocks, scale = noise
    if blocks:
        g = np.empty(h.shape)
        hot = scale[:, 0] > 0
    if columns is not None:
        out = np.empty((columns.size,) + h.shape, h.dtype)
        ids, wanted = ids[:, :columns.max() + 1], set(columns.tolist())
    for t, col in enumerate(ids.T):
        if kind == HOLONOMIC:
            ge.token_step(h, schedule, t, mats)
        else:
            rows = _rows(col != ge.IDENTITY_STEP)
            h[rows] = ge.rnn_step(h, rows, col[rows], w_rec_t, params.w_in, params.bias,
                                  kind == NORMALIZED_RNN)[0]
        if blocks:
            for block, gen in blocks:
                gen.standard_normal(out=g[block])
            rows = _rows((col != ge.IDENTITY_STEP) & hot)
            hl = inject_noise(h[rows], scale[rows], g[rows])
            h[rows] = hl if kind == RNN else ge.unit_kernel(hl)[0]
        if columns is not None and t in wanted:
            out[columns == t] = h
    return h if columns is None else out


def forward_batch(params, ids, queries=None, temperature=0.0, rng=None, *,
                  operators: np.ndarray | None = None, columns=None):
    """Final states (B, n) and logits (B, C) of any model over a (B, L)
    id block left-padded with IDENTITY_STEP (see `_checked_block`); the
    transformer's state is its pooled encoding.

    Padded steps leave a recurrent row's state unchanged, so each row matches
    its per-episode forward. With temperature > 0 all noise comes from the
    single generator of `rng`: for recurrent models one (B, n) Gaussian block
    per column, of which only live steps get `inject_noise`, for the
    transformer one (T, d) block per layer over the T live tokens. G
    temperatures and G RngStates run G equal blocks of rows as one forward,
    block k with the noise that forward_batch(block k, ..., temperature[k],
    rng[k]) draws. Given `columns`, any model returns the states (K, B, n)
    and logits (K, B, C) after each listed column c, on equal-length rows
    those of forward_batch(ids[:, :c + 1], ...): a recurrent model from one
    pass, bit for bit wherever each column's products hold two or more rows
    both ways (numpy multiplies a lone row by a matrix-vector routine, which
    rounds differently); the transformer by running each prefix alone, so a
    prefix with a row that holds no token raises ArgumentError. `queries`
    selects each row's readout (None: readout 0). Holonomic inference may
    take precomputed `operators` (float32 for low-precision runs). Raises
    NumericError on non-finite logits.
    """
    readout = params.to_dict()["readout"]
    ids, queries = _checked_block(ids, queries, params.vocab, readout.shape[0])
    if columns is not None:
        columns = np.asarray(columns, dtype=np.intp)
        if not columns.size or columns.min() < 0 or columns.max() >= ids.shape[1]:
            raise ArgumentError(f"need columns among the block's {ids.shape[1]}")
        if params.kind == TRANSFORMER:
            prefixes = [forward_batch(params, ids[:, :c + 1], queries, temperature, rng)
                        for c in columns.tolist()]
            return tuple(np.stack(parts) for parts in zip(*prefixes))
    noise = _noise_blocks(ids.shape[0], temperature, rng)
    if params.kind == TRANSFORMER:
        h = transformer_forward_batch(params, ids, noise)
    else:
        h = _recurrent_states(params, ids, noise, operators, columns)
    # a row's logits do not depend on the other rows, bit for bit
    weights = readout[queries]
    logits = np.einsum("bn,bcn->bc", h, weights) if columns is None \
        else np.stack([np.einsum("bn,bcn->bc", hk, weights) for hk in h])
    if not np.all(np.isfinite(logits)):
        raise NumericError("forward_batch: non-finite logits")
    return h, logits


def tape_batch_loss(params, tape: ge.Tape, leaves: dict, batch: Batch) -> ge.Var:
    """Mean cross-entropy of a sampler `Batch`: each row's target against the
    queried readout of its final state (the transformer's pooled encoding).
    `leaves` are tape leaves of the arrays of the model `params`, and the
    batch is checked against them as `forward_batch` checks its block."""
    ids, queries = _checked_block(batch.ids, batch.queries, params.vocab,
                                  leaves["readout"].value.shape[0])
    if params.kind == TRANSFORMER:
        h = _transformer_tape_states(tape, leaves, ids, params)
    elif params.kind == HOLONOMIC:
        h = ge.holonomic_scan(ge.skew_exp(leaves["generators"]), ids, leaves["h0"])
    else:
        h = ge.rnn_scan(leaves["w_rec"], leaves["w_in"], leaves["bias"], ids,
                        params.kind == NORMALIZED_RNN)
    return _readout_loss(leaves, h, queries, batch.targets)


def param_count(params) -> tuple[int, dict]:
    """Exact trainable-scalar count, itemized per component: the array name
    before its first "." (a transformer layer counts as one)."""
    items = {}
    for name, arr in params.to_dict().items():
        comp = name.split(".")[0]
        items[comp] = items.get(comp, 0) + arr.size
    return sum(items.values()), items
