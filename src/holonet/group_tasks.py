"""Sequence tasks: S3 composition and variable binding.

A task is one value, `TaskConfig`: its kind (and, for binding, its number of
variables) fixes the vocabulary, the classes and the queries, and its
methods draw episodes, label them and pick the episodes that validation
scores. Both tasks are exactly solvable, so every episode carries a
ground-truth label computed by construction, and an independent naive
simulator is provided for each task to cross-check the labeller (the
simulators follow a different route: point tracking instead of table
folding / array replay).

Episodes are drawn a batch at a time from one generator: a (B, L_max) token
block, of which row i keeps its first lengths[i] tokens, then (binding) a
(B,) query vector. `TaskConfig.prefix_targets` labels the block column by
column, giving each row's target after every column; a sampled batch's
targets are its last column's. That `Batch` is the one batch format from
sampling to the loss: training and inference read its arrays, and iterating
it yields its rows as `Episode`s for the oracles. The per-episode samplers,
`s3_sample_episode` and `sv_sample_episode`, are a task's B = 1 rows.

Composition convention: later sequence elements act on the left, so an
episode's product is g_L . ... . g_1 applied left-to-right onto a point.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import ArgumentError
from .grad_engine import IDENTITY_STEP
from .tensor_core import RngState


def perm_compose(a: tuple, b: tuple) -> tuple:
    """The permutation a . b of [0, V), each as its image tuple:
    (a . b)[i] = a[b[i]]  (b acts first)."""
    if len(a) != len(b):
        raise ArgumentError(f"perm_compose: size mismatch {len(a)} vs {len(b)}")
    return tuple(a[i] for i in b)


# S3 elements as image tuples in lexicographic order; ids are indices into this list.
S3_ELEMENTS = tuple(itertools.permutations(range(3)))
S3_INDEX = {p: i for i, p in enumerate(S3_ELEMENTS)}


def s3_id(p: tuple) -> int:
    return S3_INDEX[p]


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

    Row i of `ids` is episode i left-padded with IDENTITY_STEP to the
    longest length, so all episodes end at the last column; its length is
    the number of its columns that hold a token.
    """

    ids: np.ndarray       # (B, L_max)
    targets: np.ndarray   # (B,)
    queries: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.targets)

    def __getitem__(self, rows) -> Batch:
        """The batch of the selected rows (a slice or an index array)."""
        return Batch(self.ids[rows], self.targets[rows],
                     None if self.queries is None else self.queries[rows])

    @staticmethod
    def stack(batches) -> Batch:
        """The rows of equally wide batches of one task as one batch, in order."""
        queries = [b.queries for b in batches]
        return Batch(np.concatenate([b.ids for b in batches]),
                     np.concatenate([b.targets for b in batches]),
                     None if queries[0] is None else np.concatenate(queries))

    def __iter__(self):
        """The rows as `Episode`s, in order."""
        width = self.ids.shape[1]
        pads = np.count_nonzero(self.ids == IDENTITY_STEP, axis=1)
        queries = [None] * len(self) if self.queries is None else self.queries.tolist()
        for row, pad, target, q in zip(self.ids.tolist(), pads.tolist(),
                                       self.targets.tolist(), queries):
            yield Episode(tuple(row[pad:]), target, width - pad, q)


def _token_block(gen: np.random.Generator, vocab: int, lengths) -> np.ndarray:
    """A left-padded id block whose row i holds the first lengths[i] tokens
    of row i of one (B, L_max) draw."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1:
        raise ArgumentError(f"need a non-empty vector of lengths >= 1, got {lengths}")
    width = int(lengths.max())
    raw = gen.integers(0, vocab, size=(lengths.size, width))
    shift = width - lengths
    if not shift.any():
        return raw
    src = np.arange(width) - shift[:, None]
    return np.where(src >= 0, np.take_along_axis(raw, np.maximum(src, 0), axis=1), IDENTITY_STEP)


# ------------------------------------------------------------------ oracles


def naive_s3_target(tokens) -> int:
    """Independent oracle: track each point through the sequence."""
    image = []
    for start in range(3):
        w = start
        for tok in tokens:
            w = S3_ELEMENTS[tok][w]
        image.append(w)
    return S3_INDEX[tuple(image)]


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


# ------------------------------------------------------------------ tasks


S3 = "s3"
BINDING = "binding"
# S3 validation scores every length-l_max sequence when there are at most this many
EXHAUSTIVE_S3_LIMIT = 8192


@dataclass(frozen=True)
class TaskConfig:
    """A task: S3 composition, or binding over `variables` slots."""

    kind: Annotated[str, (S3, BINDING)] = S3
    variables: Annotated[int, 2] = 10  # binding only

    def __post_init__(self):
        if self.variables < 2:
            raise ArgumentError(f"need at least 2 variables, got {self.variables}")

    @property
    def vocab(self) -> int:
        return 6 if self.kind == S3 else self.variables * (self.variables - 1) // 2

    @property
    def n_classes(self) -> int:
        return 6 if self.kind == S3 else self.variables

    @property
    def n_queries(self) -> int:
        return 1 if self.kind == S3 else self.variables

    def trivial_accuracy(self, length: int) -> float:
        """Accuracy at one length of the best answer that ignores the tokens.

        S3: 1/6. Binding: one swap moves the queried slot's own value with
        probability 2/v, to a uniform other slot, so it is back home after L
        swaps with probability p = 1/v + (1 - 1/v)(1 - 2/(v - 1))^L, and every
        other value with (1 - p)/(v - 1); p is the larger one for v >= 3.
        """
        if self.kind == S3:
            return 1.0 / 6.0
        v = self.variables
        home = 1.0 / v + (1.0 - 1.0 / v) * (1.0 - 2.0 / (v - 1)) ** length
        return max(home, (1.0 - home) / (v - 1))

    def draw(self, gen: np.random.Generator, lengths) -> tuple:
        """Unlabelled episodes from one generator: the left-padded id block
        (`_token_block`), then for binding a query per row (None for S3)."""
        ids = _token_block(gen, self.vocab, lengths)
        queries = None if self.kind == S3 else gen.integers(0, self.variables, size=ids.shape[0])
        return ids, queries

    def prefix_targets(self, ids: np.ndarray, queries: np.ndarray | None = None):
        """Each row's target after each column of a left-padded id block, one
        (B,) array per column. S3 folds the Cayley table; binding replays
        each row's swaps on the identity assignment and reads the row's query
        slot."""
        if self.kind == S3:
            acc = np.zeros(ids.shape[0], dtype=np.intp)
            for col in np.where(ids == IDENTITY_STEP, 0, ids).T:   # id 0 is the identity
                acc = S3_CAYLEY[col, acc]
                yield acc
            return
        v = self.variables
        # the appended last pair, which IDENTITY_STEP (-1) picks, swaps slot 0 with itself
        pairs = np.concatenate([swap_vocabulary(v), [(0, 0)]])
        base = v * np.arange(ids.shape[0])[:, None]
        values = np.tile(np.arange(v), ids.shape[0])   # row r holds slots v*r .. v*r + v-1
        read = base[:, 0] + queries
        for i, j in zip((base + pairs[ids, 0]).T, (base + pairs[ids, 1]).T):
            values[i], values[j] = values[j], values[i]
            yield values[read]

    def label(self, ids: np.ndarray, queries: np.ndarray | None = None) -> Batch:
        """The batch of these episodes, each row's target the last value of
        `prefix_targets`."""
        return Batch(ids, deque(self.prefix_targets(ids, queries), maxlen=1)[0], queries)

    def sample_batch(self, gen: np.random.Generator, lengths) -> Batch:
        """`draw`, labelled."""
        return self.label(*self.draw(gen, lengths))

    def validation_batch(self, curriculum: Curriculum, episodes: int,
                         rng: RngState) -> Batch:
        """The episodes that decide convergence: every length-l_max S3
        sequence when there are at most EXHAUSTIVE_S3_LIMIT of them, else
        `episodes` drawn from `rng`, S3 at l_max and binding cycling through
        [l_min, l_max]."""
        top = curriculum.l_max
        if self.kind == S3 and 6 ** top <= EXHAUSTIVE_S3_LIMIT:
            return self.label(np.indices((6,) * top).reshape(top, -1).T)
        low = top if self.kind == S3 else curriculum.l_min
        return self.sample_batch(rng.generator(), low + np.arange(episodes) % (top - low + 1))


def s3_sample_episode(rng: RngState, length: int) -> Episode:
    """The B = 1 row of an S3 batch."""
    return next(iter(TaskConfig(S3).sample_batch(rng.generator(), [length])))


def sv_sample_episode(rng: RngState, v: int, length: int) -> Episode:
    """The B = 1 row of a binding batch over v variables."""
    return next(iter(TaskConfig(BINDING, v).sample_batch(rng.generator(), [length])))


# ------------------------------------------------------------------ curricula


@dataclass(frozen=True)
class Curriculum:
    """Length scheduler settings: stepwise accuracy gate or linear ramp with
    end bias. Each setting's rule is on its type.

    A run's place in the curriculum is two numbers the trainer holds: the
    share of training done, `fraction`, and the number of gates cleared,
    `gates` (eval points whose gate accuracy reached `gate_threshold`). A
    stepwise curriculum's top length is l_min plus the gates cleared, up to
    l_max. A ramp's rises linearly from `ramp_start` (in
    [l_min, l_max]; 0: l_min) to l_max over the first `ramp_fraction` of
    training. Sampling is uniform on [l_min, top] while the ramp ramps; after
    it, and throughout a stepwise curriculum, the top length is drawn with
    probability `max_bias` and the rest uniformly up to it.
    """

    kind: Annotated[str, ("stepwise", "ramp")]
    l_min: Annotated[int, 1]
    l_max: Annotated[int, 1]
    gate_threshold: Annotated[float, "(0, 1]"] = 1.0
    ramp_start: Annotated[int, 0] = 0
    ramp_fraction: Annotated[float, "(0, 1]"] = 0.7
    max_bias: Annotated[float, "[0, 1]"] = 0.5

    def __post_init__(self):
        if not self.l_min <= self.l_max:
            raise ArgumentError(f"bad length range [{self.l_min}, {self.l_max}]")
        if self.ramp_start and not self.l_min <= self.ramp_start <= self.l_max:
            raise ArgumentError(f"ramp_start {self.ramp_start} outside "
                                f"[{self.l_min}, {self.l_max}]")
        if self.ramp_start == 0:
            object.__setattr__(self, "ramp_start", self.l_min)

    def top(self, fraction: float, gates: int) -> int:
        """The longest length trained after `fraction` of training with
        `gates` gates cleared."""
        if self.kind == "stepwise":
            return min(self.l_min + gates, self.l_max)
        rise = min(fraction / self.ramp_fraction, 1.0)
        return int(round(self.ramp_start + (self.l_max - self.ramp_start) * rise))

    def ramping(self, fraction: float) -> bool:
        """Whether a ramp is still rising after `fraction` of training."""
        return self.kind == "ramp" and fraction < self.ramp_fraction


def sample_lengths(c: Curriculum, gen: np.random.Generator, size: int,
                   fraction: float, gates: int) -> np.ndarray:
    """`size` episode lengths from the curriculum's distribution after
    `fraction` of training with `gates` gates cleared: uniform on
    [l_min, top] while a ramp ramps, else the top length with probability
    max_bias and the rest uniform up to it (stepwise rehearses the shorter
    ones)."""
    top = c.top(fraction, gates)
    if c.ramping(fraction):
        return gen.integers(c.l_min, top + 1, size=size)
    biased = gen.random(size) < c.max_bias
    return np.where(biased, top, gen.integers(c.l_min, top + 1, size=size))


def sample_length(c: Curriculum, rng: RngState, fraction: float, gates: int) -> int:
    return int(sample_lengths(c, rng.generator(), 1, fraction, gates)[0])
