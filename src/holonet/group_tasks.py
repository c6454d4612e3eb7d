"""Sequence-task generators: S3 composition and variable binding.

Both tasks are exactly solvable, so every episode carries a ground-truth
label computed by construction, and an independent naive simulator is
provided for each task to cross-check the generators (the simulators follow
a different route: point tracking instead of table folding / array replay).

Episodes are sampled a batch at a time from one generator: a (B, L_max)
token block, of which row i keeps its first lengths[i] tokens, then (binding)
a (B,) query vector. The per-episode samplers are the B = 1 case.

Composition convention: later sequence elements act on the left, so an
episode's product is g_L . ... . g_1 applied left-to-right onto a point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError
from .tensor_core import RngState

# Left padding in a batch's id block: an identity step, the same id as
# grad_engine.IDENTITY_STEP, so every episode ends at the last column.
PAD_ID = -1


@dataclass(frozen=True)
class Perm:
    """A permutation of [0, V) stored as its image array."""

    image: tuple

    def __post_init__(self):
        v = len(self.image)
        if sorted(self.image) != list(range(v)):
            raise ArgumentError(f"not a permutation image: {self.image}")

    @property
    def size(self) -> int:
        return len(self.image)

    def __call__(self, point: int) -> int:
        return self.image[point]


def perm_identity(v: int) -> Perm:
    return Perm(tuple(range(v)))


def perm_compose(a: Perm, b: Perm) -> Perm:
    """(a . b).image[i] = a.image[b.image[i]]  (b acts first)."""
    if a.size != b.size:
        raise ArgumentError(f"perm_compose: size mismatch {a.size} vs {b.size}")
    return Perm(tuple(a.image[b.image[i]] for i in range(a.size)))


def perm_inverse(a: Perm) -> Perm:
    inv = [0] * a.size
    for i, j in enumerate(a.image):
        inv[j] = i
    return Perm(tuple(inv))


# S3 elements in lexicographic image order; ids are indices into this list.
S3_ELEMENTS = tuple(Perm(p) for p in itertools.permutations(range(3)))
S3_INDEX = {p.image: i for i, p in enumerate(S3_ELEMENTS)}


def s3_id(p: Perm) -> int:
    return S3_INDEX[p.image]


# S3_CAYLEY[a, b] is the id of a . b (b acts first)
S3_CAYLEY = np.array([[s3_id(perm_compose(a, b)) for b in S3_ELEMENTS]
                      for a in S3_ELEMENTS])


@dataclass(frozen=True)
class Episode:
    """One task instance; `query` is None for the S3 task."""

    tokens: tuple
    target: int
    length: int
    query: int | None = None


@dataclass(frozen=True, eq=False)
class Batch:
    """B episodes as arrays; `queries` is None for the S3 task.

    Row i of `ids` is episode i left-padded with PAD_ID to the longest
    length, so all episodes end at the last column.
    """

    ids: np.ndarray       # (B, L_max)
    lengths: np.ndarray   # (B,)
    targets: np.ndarray   # (B,)
    queries: np.ndarray | None = None

    def episodes(self) -> list[Episode]:
        width = self.ids.shape[1]
        queries = [None] * len(self.targets) if self.queries is None \
            else self.queries.tolist()
        return [Episode(tuple(row[width - n:]), target, n, q)
                for row, n, target, q in zip(self.ids.tolist(), self.lengths.tolist(),
                                             self.targets.tolist(), queries)]


def _token_block(gen: np.random.Generator, vocab: int, lengths) -> tuple:
    """Lengths as an array and a left-padded id block whose row i holds the
    first lengths[i] tokens of row i of one (B, L_max) draw."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1:
        raise ArgumentError(f"need a non-empty vector of lengths >= 1, got {lengths}")
    width = int(lengths.max())
    raw = gen.integers(0, vocab, size=(lengths.size, width))
    shift = width - lengths
    if not shift.any():
        return lengths, raw
    src = np.arange(width) - shift[:, None]
    ids = np.where(src >= 0, np.take_along_axis(raw, np.maximum(src, 0), axis=1), PAD_ID)
    return lengths, ids


def _one_row(tokens) -> np.ndarray:
    return np.asarray(tokens, dtype=np.intp).reshape(1, -1)


# ------------------------------------------------------------------ S3 task


def s3_targets(ids: np.ndarray) -> np.ndarray:
    """Product class id per row of a left-padded id block, folding the Cayley
    table column by column."""
    acc = np.zeros(ids.shape[0], dtype=np.intp)
    for col in np.where(ids == PAD_ID, 0, ids).T:   # id 0 is the identity
        acc = S3_CAYLEY[col, acc]
    return acc


def s3_target(tokens) -> int:
    """Path-ordered product class id of one episode."""
    return int(s3_targets(_one_row(tokens))[0])


def naive_s3_target(tokens) -> int:
    """Independent oracle: track each point through the sequence."""
    image = []
    for start in range(3):
        w = start
        for tok in tokens:
            w = S3_ELEMENTS[tok].image[w]
        image.append(w)
    return S3_INDEX[tuple(image)]


def s3_sample_batch(gen: np.random.Generator, lengths) -> Batch:
    lengths, ids = _token_block(gen, 6, lengths)
    return Batch(ids, lengths, s3_targets(ids))


def s3_sample_episode(rng: RngState, length: int) -> Episode:
    if length < 1:
        raise ArgumentError(f"episode length must be >= 1, got {length}")
    return s3_sample_batch(rng.generator(), [length]).episodes()[0]


# ------------------------------------------------------------------ binding task


def swap_vocabulary(v: int) -> list[tuple]:
    """Unordered pairs (i, j), i < j, in lexicographic order."""
    if v < 2:
        raise ArgumentError(f"need at least 2 variables, got {v}")
    return [(i, j) for i in range(v) for j in range(i + 1, v)]


def swap_token(v: int, i: int, j: int) -> int:
    """Vocabulary id of SWAP(i, j); insensitive to argument order."""
    if i == j or not (0 <= i < v and 0 <= j < v):
        raise ArgumentError(f"invalid swap ({i}, {j}) for {v} variables")
    if i > j:
        i, j = j, i
    # triangular index of (i, j) in the lexicographic pair list
    return i * (2 * v - i - 1) // 2 + (j - i - 1)


def binding_targets(ids: np.ndarray, v: int, queries: np.ndarray) -> np.ndarray:
    """Replay each row's swaps on the identity assignment, then read the row's
    query slot; ids is a left-padded block."""
    # the appended last pair, which PAD_ID = -1 picks, swaps slot 0 with itself
    pairs = np.concatenate([swap_vocabulary(v), [(0, 0)]])
    base = v * np.arange(ids.shape[0])[:, None]
    values = np.tile(np.arange(v), ids.shape[0])   # row r holds slots v*r .. v*r + v-1
    for i, j in zip((base + pairs[ids, 0]).T, (base + pairs[ids, 1]).T):
        values[i], values[j] = values[j], values[i]
    return values[base[:, 0] + queries]


def binding_target(tokens, v: int, query: int) -> int:
    """Answer of one episode: the value in slot `query` after all swaps."""
    return int(binding_targets(_one_row(tokens), v, np.array([query]))[0])


def naive_binding_target(tokens, v: int, query: int) -> int:
    """Independent oracle: trace the query slot backwards through the swaps."""
    pairs = swap_vocabulary(v)
    w = query
    for tok in reversed(tokens):
        i, j = pairs[tok]
        if w == i:
            w = j
        elif w == j:
            w = i
    return w


def sv_sample_batch(gen: np.random.Generator, v: int, lengths) -> Batch:
    if v < 2:
        raise ArgumentError(f"need at least 2 variables, got {v}")
    lengths, ids = _token_block(gen, v * (v - 1) // 2, lengths)
    queries = gen.integers(0, v, size=ids.shape[0])
    return Batch(ids, lengths, binding_targets(ids, v, queries), queries)


def sv_sample_episode(rng: RngState, v: int, length: int) -> Episode:
    if v < 2 or length < 1:
        raise ArgumentError(f"need v >= 2 and length >= 1, got v={v}, L={length}")
    return sv_sample_batch(rng.generator(), v, [length]).episodes()[0]


# ------------------------------------------------------------------ curricula


@dataclass(frozen=True)
class Curriculum:
    """Length scheduler: stepwise accuracy gate or linear ramp with end bias.

    `ramp_start` is where the ramp begins (defaults to l_min); sampling is
    uniform on [l_min, max_len] until the ramp completes, after which the
    maximum length is drawn with probability `max_bias`.
    """

    kind: str  # "stepwise" | "ramp"
    l_min: int
    l_max: int
    max_len: int = 0
    gate_threshold: float = 1.0
    progress: float = 0.0
    ramp_start: int = 0
    ramp_fraction: float = 0.7
    max_bias: float = 0.5

    def __post_init__(self):
        if self.kind not in ("stepwise", "ramp"):
            raise ArgumentError(f"unknown curriculum kind: {self.kind}")
        if not 1 <= self.l_min <= self.l_max:
            raise ArgumentError(f"bad length range [{self.l_min}, {self.l_max}]")
        if self.max_len == 0:
            start = self.ramp_start or self.l_min
            object.__setattr__(self, "max_len", self.l_min if self.kind == "stepwise" else start)
        if self.ramp_start == 0:
            object.__setattr__(self, "ramp_start", self.l_min)


def curriculum_advance(c: Curriculum, metric: float) -> Curriculum:
    """Advance with a gate accuracy (stepwise) or a step fraction (ramp)."""
    if c.kind == "stepwise":
        if metric >= c.gate_threshold and c.max_len < c.l_max:
            return replace(c, max_len=c.max_len + 1)
        return c
    frac = min(metric / c.ramp_fraction, 1.0)
    new_max = int(round(c.ramp_start + (c.l_max - c.ramp_start) * frac))
    return replace(c, progress=metric, max_len=max(c.max_len, new_max))


def sample_lengths(c: Curriculum, gen: np.random.Generator, size: int) -> np.ndarray:
    """`size` episode lengths from the curriculum's current distribution.

    A ramp still ramping draws uniformly on [l_min, max_len]. Otherwise the
    top length (l_max for a finished ramp; the gated max_len for stepwise,
    which rehearses shorter ones) is drawn with probability max_bias and the
    rest uniformly up to it.
    """
    if c.kind == "ramp" and c.progress < c.ramp_fraction:
        return gen.integers(c.l_min, c.max_len + 1, size=size)
    top = c.l_max if c.kind == "ramp" else c.max_len
    biased = gen.random(size) < c.max_bias
    return np.where(biased, top, gen.integers(c.l_min, top + 1, size=size))


def sample_length(c: Curriculum, rng: RngState) -> int:
    return int(sample_lengths(c, rng.generator(), 1)[0])


# ------------------------------------------------------------------ serialization


def episode_to_line(e: Episode) -> str:
    """`L;tok,tok,...;query;target` with an empty query field for S3."""
    toks = ",".join(str(t) for t in e.tokens)
    query = "" if e.query is None else str(e.query)
    return f"{e.length};{toks};{query};{e.target}"


def episode_from_line(line: str) -> Episode:
    parts = line.strip().split(";")
    if len(parts) != 4:
        raise ArgumentError(f"malformed episode line: {line!r}")
    length = int(parts[0])
    tokens = tuple(int(t) for t in parts[1].split(",")) if parts[1] else ()
    if len(tokens) != length:
        raise ArgumentError(f"length field {length} != {len(tokens)} tokens")
    query = int(parts[2]) if parts[2] else None
    return Episode(tokens=tokens, target=int(parts[3]), length=length, query=query)
