"""Training plus six experiment pipelines: noise sweep and T_c, finite-size
scaling, length generalization, Jacobian horizon, mass gap and PCA.

Every pipeline is a pure function of (config, RngState) and is therefore
bit-reproducible: the same seed and call give the same bits. Randomness
comes from named child streams of one master seed, one stream per batch:
each training step draws its lengths and episodes from one generator, each
evaluation its episodes from one, and each noise level of a sweep its
episodes from one and its noise from another. Bootstrap resamples have their
own streams.
Every probe takes a model as one value, its params, which carry its kind,
and a task as one value, a `group_tasks.TaskConfig`: the task draws, labels
and picks the validation episodes, so nothing here tests a task's kind.
`train` holds its place in a curriculum as two numbers and asks the
`Curriculum` for the top length, so nothing tests a curriculum's kind either.
Inference for all four model kinds runs through `models.forward_batch`, so
a batch's noise, recurrent-state or residual-stream, comes from one stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Annotated

import numpy as np

from . import grad_engine as ge
from . import models as md
from . import scan_engine as se
from . import tensor_core as tc
from .errors import ArgumentError, NumericError
from .group_tasks import Batch, Curriculum, TaskConfig, sample_lengths
# perfbench/tracing.py wraps the per-episode samplers under these names here
from .group_tasks import s3_sample_episode, sample_length, sv_sample_episode  # noqa: F401

SCORE_BLOCK = 1024      # rows per forward when scoring a validation batch
STACK_FLOATS = 2 ** 17  # state entries per forward of a sweep's stacked levels


@dataclass(frozen=True)
class ModelConfig:
    kind: Annotated[str, tuple(md.PARAMS)] = md.HOLONOMIC
    n: Annotated[int, 1] = 32                   # hidden dim / d_model
    layers: Annotated[int, 1] = 3
    heads: Annotated[int, 1] = 8
    d_ff: Annotated[int, 0] = 0                 # 0 -> 2 * d_model
    pos_mode: Annotated[str, md.TransformerParams.HEADER["pos_mode"]] = "learned"
    max_len: Annotated[int, 1] = 64
    pool: Annotated[str, md.TransformerParams.HEADER["pool"]] = "final"
    gen_scale: Annotated[float, "[0, inf)"] = 0.0   # 0 -> default holonomic init scale

    def build(self, rng: tc.RngState, task: TaskConfig):
        if self.kind == md.HOLONOMIC:
            scale = self.gen_scale if self.gen_scale > 0 else None
            return md.init_holonomic(rng, self.n, task.vocab, task.n_classes,
                                     task.n_queries, gen_scale=scale)
        if self.kind in (md.RNN, md.NORMALIZED_RNN):
            return md.init_rnn(rng, self.n, task.vocab, task.n_classes,
                               task.n_queries, self.kind == md.NORMALIZED_RNN)
        if self.kind == md.TRANSFORMER:
            d_ff = self.d_ff if self.d_ff > 0 else 2 * self.n
            return md.init_transformer(
                rng, self.n, self.layers, self.heads, d_ff, task.vocab,
                task.n_classes, task.n_queries, self.pos_mode, self.max_len, self.pool)
        raise ArgumentError(f"unknown model kind: {self.kind}")


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer, evaluation and stopping settings.

    Validation (the early-stop check once the gate passes at the top length,
    and the final `converged` evaluation) scores the task's validation batch,
    `TaskConfig.validation_batch`: `val_episodes` fresh episodes, or every
    length-l_max S3 sequence once where there are few enough, so "converged"
    is exact there. `clip` bounds the global
    gradient norm before each update; `clip = 0` turns clipping off.
    """

    steps: Annotated[int, 1] = 3000
    batch: Annotated[int, 1] = 64
    lr: Annotated[float, "(0, inf)"] = 1e-3
    beta1: Annotated[float, "[0, 1)"] = 0.9
    beta2: Annotated[float, "[0, 1)"] = 0.999
    eps: Annotated[float, "(0, inf)"] = 1e-8
    clip: Annotated[float, "[0, inf)"] = 1.0
    eval_interval: Annotated[int, 1] = 25
    gate_episodes: Annotated[int, 1] = 256
    val_episodes: Annotated[int, 1] = 512
    target_accuracy: Annotated[float, "(0, 1]"] = 1.0
    lr_schedule: Annotated[str, ("constant", "cosine")] = "constant"
    lr_floor: Annotated[float, "[0, inf)"] = 1e-4
    early_stop: bool = True


@dataclass
class TrainResult:
    params: object
    converged: bool
    steps_used: int
    final_accuracy: float
    log: list = field(default_factory=list)


@dataclass
class SweepResult:
    grid: np.ndarray
    outcomes: np.ndarray    # (len(grid), episodes) bools: whether each episode was right

    def __post_init__(self):
        if np.any(np.diff(self.grid) <= 0):
            raise ArgumentError("noise grid must be strictly increasing")

    @property
    def acc_mean(self) -> np.ndarray:
        return self.outcomes.mean(axis=1)

    @property
    def episodes(self) -> int:
        return self.outcomes.shape[1]


@dataclass
class TcEstimate:
    value: float
    lo: float
    hi: float
    censored: str | None = None  # None | "right" | "all-fail"
    acc_lo: np.ndarray | None = None    # each level's 2.5-97.5% accuracy band
    acc_hi: np.ndarray | None = None


@dataclass
class ScalingFit:
    alpha: float
    beta: float
    r_squared: float


@dataclass
class HorizonCurve:
    t_grid: np.ndarray
    j_values: np.ndarray
    lambda_max: float
    fit_r_squared: float
    note: str = ""      # "flat": log J spread below HORIZON_FLAT_SPREAD, nothing fit


@dataclass
class MassGapResult:
    delta: float
    centroids: dict
    counts: dict
    geodesics: list     # (class_a, class_b, angle) per pair, a < b


# ===================================================================== evaluation


def _operators(params) -> np.ndarray | None:
    """The holonomic operators, for an evaluation that runs many batches."""
    return params.operators() if params.kind == md.HOLONOMIC else None


def _hits(params, batch: Batch, temperature=0.0, rng=None,
          operators: np.ndarray | None = None) -> np.ndarray:
    """Whether each episode's predicted label is its target, the noise as
    `models.forward_batch` takes it. Holonomic `operators` built once by the
    caller skip their rebuild."""
    _, logits = md.forward_batch(params, batch.ids, batch.queries, temperature, rng,
                                 operators=operators)
    return np.argmax(logits, axis=1) == batch.targets


def evaluate_accuracy(params, task: TaskConfig, lengths,
                      episodes: int, rng: tc.RngState,
                      operators: np.ndarray | None = None) -> float:
    """Accuracy on `episodes` fresh episodes drawn from one stream; episode i
    has length lengths[i % len(lengths)] (lengths: an int or a list).
    Holonomic `operators` built once by the caller skip their rebuild."""
    lengths = np.atleast_1d(np.asarray(lengths, dtype=np.intp))
    batch = task.sample_batch(rng.child(0).generator(),
                              lengths[np.arange(episodes) % lengths.size])
    return float(np.mean(_hits(params, batch, operators=operators)))


def validation_accuracy(params, task: TaskConfig, curriculum: Curriculum,
                        episodes: int, rng: tc.RngState,
                        operators: np.ndarray | None = None) -> float:
    """The accuracy `train` calls converged at: the task's validation batch
    (`TaskConfig.validation_batch`, drawn from rng.child(0)), scored
    SCORE_BLOCK rows per forward with the holonomic operators built once."""
    batch = task.validation_batch(curriculum, episodes, rng.child(0))
    ops = _operators(params) if operators is None else operators
    correct = sum(int(np.sum(_hits(params, batch[lo:lo + SCORE_BLOCK], operators=ops)))
                  for lo in range(0, len(batch), SCORE_BLOCK))
    return correct / len(batch)


# ===================================================================== training


def _lr_at(cfg: TrainConfig, step: int) -> float:
    if cfg.lr_schedule == "cosine":
        frac = step / max(cfg.steps - 1, 1)
        return cfg.lr_floor + 0.5 * (cfg.lr - cfg.lr_floor) * (1 + math.cos(math.pi * frac))
    return cfg.lr


def _train_step(params, store: ge.ParamStore, batch: Batch, cfg: TrainConfig,
                step: int) -> tuple[float, float]:
    """One optimizer step on `batch`; returns (loss, pre-clip gradient norm).
    The step's tape, loss Var and gradients are locals of this frame, so they
    are freed on return: one tape is alive at a time, never the last step's
    beside the next one's."""
    tape = ge.Tape()
    leaves = {k: tape.leaf(v) for k, v in store.params.items()}
    loss = md.tape_batch_loss(params, tape, leaves, batch)
    if not np.isfinite(loss.value):
        raise NumericError(f"training loss is {float(loss.value)} at step {step}")
    tape.backward(loss)
    grads = ge.collect_grads(tape, leaves)
    grad_norm = ge.clip_global_norm(grads, cfg.clip)
    if not np.isfinite(grad_norm):
        raise NumericError(f"gradient norm is {grad_norm} at step {step}")
    ge.adam_step(store, grads, _lr_at(cfg, step), cfg.beta1, cfg.beta2, cfg.eps)
    return float(loss.value), grad_norm


def train(model_cfg: ModelConfig, task: TaskConfig, curriculum: Curriculum,
          cfg: TrainConfig, rng: tc.RngState) -> TrainResult:
    """Curriculum training to the task's convergence target.

    The run's place in the curriculum is the share of training done, step /
    steps, and the number of gates cleared: an eval point clears one when its
    gate accuracy, at the current top length, reaches the curriculum's
    gate_threshold. Validation runs once the top is l_max and no ramp is
    rising, and the gate accuracy has reached the target. Returns the model
    it built, trained in place, and a non-convergence result
    (converged=False) if the step budget runs out. A non-finite loss or
    pre-clip gradient norm raises NumericError before the update, so the
    parameters are never poisoned. Each log entry carries that step's
    pre-clip gradient norm. A learned positional table shorter than a batch
    stops the run with CapacityError (`models._pack`).
    """
    params = model_cfg.build(rng.child(0), task)
    store = ge.ParamStore(params.to_dict())     # params' own arrays: Adam updates them
    log: list[dict] = []
    converged = False
    gates = step = 0
    ops = None      # holonomic operators of the last eval point
    for step in range(1, cfg.steps + 1):
        fraction = step / cfg.steps
        gen = rng.child(1, step).generator()
        batch = task.sample_batch(gen, sample_lengths(curriculum, gen, cfg.batch,
                                                      fraction, gates))
        loss, grad_norm = _train_step(params, store, batch, cfg, step)
        if params.kind == md.HOLONOMIC:
            store.params["h0"] /= np.linalg.norm(store.params["h0"])
        if step % cfg.eval_interval == 0 or step == cfg.steps:
            ops = _operators(params)
            top = curriculum.top(fraction, gates)
            gate_acc = evaluate_accuracy(params, task, top,
                                         cfg.gate_episodes, rng.child(2, step), ops)
            log.append({"step": step, "max_len": top,
                        "loss": loss, "grad_norm": float(grad_norm),
                        "accuracy": gate_acc})
            gates += gate_acc >= curriculum.gate_threshold
            at_top = top == curriculum.l_max and not curriculum.ramping(fraction)
            if at_top and gate_acc >= cfg.target_accuracy:
                accuracy = validation_accuracy(params, task, curriculum,
                                               cfg.val_episodes, rng.child(3, step), ops)
                if accuracy >= cfg.target_accuracy:
                    converged = True
                    if cfg.early_stop:
                        break
    if not (cfg.early_stop and converged):
        # convergence must describe the returned parameters; the loop ended on
        # an eval step, whose operators these are
        accuracy = validation_accuracy(params, task, curriculum,
                                       cfg.val_episodes, rng.child(4), ops)
        converged = accuracy >= cfg.target_accuracy
    return TrainResult(params, converged, step, accuracy, log)


# ===================================================================== noise sweep


def noise_sweep(params, task: TaskConfig, t_grid, episodes: int,
                rng: tc.RngState, length: int = 5) -> SweepResult:
    """Accuracy versus noise temperature over fresh length-`length` episodes;
    noise level i draws its episodes from rng.child(0, i) and its noise from
    rng.child(1, i). The levels' batches run stacked, each level's rows at
    its own temperature, as many levels per forward as keep its (rows, n)
    state within STACK_FLOATS."""
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    outcomes = np.empty((t_grid.size, episodes), dtype=bool)
    ops = _operators(params)
    group = max(1, STACK_FLOATS // (episodes * params.to_dict()["readout"].shape[-1]))
    for first in range(0, t_grid.size, group):
        block = slice(first, first + group)
        levels = range(t_grid.size)[block]
        stacked = Batch.stack([task.sample_batch(rng.child(0, ti).generator(),
                                                 np.full(episodes, length)) for ti in levels])
        hits = _hits(params, stacked, t_grid[block], [rng.child(1, ti) for ti in levels], ops)
        outcomes[block] = hits.reshape(len(levels), episodes)
    return SweepResult(t_grid, outcomes)


def _plugin_tc(grid: np.ndarray, acc: np.ndarray, qualifies: np.ndarray,
               threshold: float) -> np.ndarray:
    """Plug-in T_c of each row of (k, G) accuracies: the largest level that
    qualifies, refined by linear interpolation toward the threshold crossing
    when the next level falls below it; 0 where no level qualifies, the last
    level where it does."""
    last = grid.size - 1
    top = last - np.argmax(qualifies[:, ::-1], axis=1)     # largest qualifying
    nxt = np.minimum(top + 1, last)
    rows = np.arange(len(acc))
    lo_acc, hi_acc = acc[rows, top], acc[rows, nxt]
    with np.errstate(divide="ignore", invalid="ignore"):    # rows np.select drops
        frac = (lo_acc - threshold) / (lo_acc - hi_acc)
        crossing = grid[top] + frac * (grid[nxt] - grid[top])
    return np.select([~qualifies.any(axis=1), top == last, lo_acc <= threshold,
                      hi_acc >= threshold],
                     [0.0, grid[last], grid[top], grid[nxt]], crossing)


def estimate_tc(sweep: SweepResult, threshold: float = 0.99,
                rng: tc.RngState | None = None, bootstrap: int = 1000) -> TcEstimate:
    """Largest noise level whose mean accuracy clears the fidelity threshold,
    refined by linear interpolation toward the crossing, with every level's
    accuracy band and T_c's CI from one paired resample. The resample draws
    the episodes `bootstrap` times (one (bootstrap, n) draw of indices, the
    same indices at every level) and takes every resample's T_c by the same
    rule, all at once: the CI measures the value. A resample's accuracies are
    its index counts against the outcomes, sums of integers and so exact; the
    2.5-97.5% percentiles of each level's column are its band."""
    if not 0.0 < threshold <= 1.0:
        raise ArgumentError("threshold must lie in (0, 1]")
    mean = sweep.acc_mean
    qualifies = mean >= threshold
    value = float(_plugin_tc(sweep.grid, mean[None], qualifies[None], threshold)[0])
    censored = "all-fail" if not qualifies.any() else "right" if qualifies[-1] else None
    gen = (rng or tc.RngState(0)).generator()
    n = sweep.episodes
    idx = gen.integers(0, n, size=(bootstrap, n))
    idx += n * np.arange(bootstrap)[:, None]
    counts = np.bincount(idx.ravel(), minlength=bootstrap * n).reshape(bootstrap, n)
    acc = counts @ sweep.outcomes.T.astype(np.float64) / n     # (bootstrap, G)
    samples = _plugin_tc(sweep.grid, acc, acc >= threshold, threshold)
    lo, hi = np.percentile(samples, [2.5, 97.5])
    # nothing reads acc after this: its columns are partitioned in place
    acc_lo, acc_hi = np.percentile(acc, [2.5, 97.5], axis=0, overwrite_input=True)
    return TcEstimate(value, float(lo), float(hi), censored, acc_lo, acc_hi)


# ===================================================================== scaling


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares of y on x: (slope, intercept, R^2), R^2 = 0 for constant y."""
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return float(coef[0]), float(coef[1]), r2


def fit_log_scaling(points) -> ScalingFit:
    """Least squares of T_c on ln N; returns alpha, beta, R^2."""
    pts = [(int(n), float(t)) for n, t in points]
    ns = [n for n, _ in pts]
    if len(pts) < 3:
        raise ArgumentError("need at least 3 (N, T_c) points")
    if len(set(ns)) != len(ns):
        raise ArgumentError("duplicate N in scaling points")
    alpha, beta, r2 = _line_fit(np.log(ns), np.array([t for _, t in pts]))
    return ScalingFit(alpha, beta, r2)


def finite_size_scan(n_grid, task: TaskConfig, curriculum: Curriculum,
                     train_cfg: TrainConfig, sweep_grid, sweep_episodes: int,
                     rng: tc.RngState, threshold: float = 0.99,
                     model: ModelConfig = ModelConfig(), length: int = 5) -> list[dict]:
    """Independent train + sweep (at episode length `length`) + T_c per width,
    each width trained as `model` with its `n` replaced. One row per width;
    a width that did not converge is flagged, with NaN T_c, and is left out
    of downstream fits."""
    rows = []
    for n in map(int, n_grid):
        nrng = rng.child(n)
        result = train(replace(model, n=n), task, curriculum, train_cfg, nrng.child(0))
        est = TcEstimate(math.nan, math.nan, math.nan)
        if result.converged:
            sweep = noise_sweep(result.params, task, sweep_grid,
                                sweep_episodes, nrng.child(1), length)
            est = estimate_tc(sweep, threshold, nrng.child(2))
        rows.append({"N": n, "Tc": est.value, "Tc_lo": est.lo, "Tc_hi": est.hi,
                     "converged": result.converged})
    return rows


# ===================================================================== generalization


def length_generalization_eval(params, task: TaskConfig, lengths,
                               episodes: int, precision: int,
                               rng: tc.RngState) -> list[dict]:
    """Accuracy at each length on the length-L prefixes of one batch of
    `episodes` fresh episodes, drawn from rng.child(0) at the longest length
    the model scores. A uniformly random prefix is itself a uniformly random
    episode, but the lengths share their episodes, so their rows are
    correlated, not independent samples. Every scored length's targets come
    from one pass of `TaskConfig.prefix_targets` over the columns. A recurrent model scores every
    length from one pass, the transformer runs each prefix on its own, and a
    length past its learned positional table is recorded as
    capacity-exceeded instead of silently scored; no episode is sampled for it."""
    lengths = [int(length) for length in lengths]
    scored = [length for length in lengths if params.kind != md.TRANSFORMER
              or params.pos_mode != "learned" or length <= params.max_len]
    acc = {}
    if scored:
        longest = max(scored)
        ids, queries = task.draw(rng.child(0).generator(), np.full(episodes, longest))
        targets = {length: y for length, y in
                   zip(range(1, longest + 1), task.prefix_targets(ids, queries))
                   if length in scored}
        if params.kind == md.TRANSFORMER:
            logits = [md.forward_batch(params, ids[:, :length], queries)[1]
                      for length in scored]
        else:
            ops = se.build_operators(params, precision) if params.kind == md.HOLONOMIC else None
            logits = md.forward_batch(params, ids, queries, operators=ops,
                                      columns=[length - 1 for length in scored])[1]
        acc = {length: float(np.mean(np.argmax(x, axis=1) == targets[length]))
               for length, x in zip(scored, logits)}
    return [{"L": length, "acc": acc.get(length, float("nan")), "episodes": episodes,
             "precision": precision, "note": "" if length in acc else "capacity-exceeded"}
            for length in lengths]


# ===================================================================== memory horizon


# The rounding floor of the horizon fit: J(t) whose log spreads less than
# this over the fitted points is flat (lambda_max 0, no r^2). A trained S3
# model's J(t) = 1 spreads 1.5e-14-4.8e-14 in log up to t = 5000, rounding
# alone. A decay whose log J moves less than 1e-9 by t = 5000 has a rate
# below 2e-13 per step: a horizon past 5e12 steps, beyond any run's lengths.
HORIZON_FLAT_SPREAD = 1e-9


def jacobian_horizon(params, t_grid, method: str, rng: tc.RngState,
                     fit_min_t: int = 5) -> HorizonCurve:
    """J(t) = ||dh_t / dh_0||_2 along one random episode.

    An RNN's trajectory is one pass of its step kernel, `grad_engine.rnn_step`,
    which keeps each step's tanh output a_t. operator-norm multiplies the step
    Jacobians forward, each built as it is needed: U_tok for the holonomic
    model, diag(1 - a_t^2) W_rec for the tanh RNN, and (I - h_t h_t^T) /
    ||a_t|| times that when normalized. autodiff, an independent reverse-mode
    check on it, sweeps an (n, n) identity block back from each grid point
    through the step adjoints that train the model: g U_tok, as the
    `holonomic_scan` backward applies, or `grad_engine.rnn_step_adjoint`, as
    the `rnn_scan` backward runs. Row i of the swept block is the VJP of e_i,
    so the block is dh_t/dh_0 itself. Either method takes the exact spectral
    norm of each Jacobian.
    """
    if method not in ("autodiff", "operator-norm"):
        raise ArgumentError(f"unknown method: {method}")
    if params.kind == md.TRANSFORMER:
        raise ArgumentError("memory horizon needs trajectory access; "
                            "transformer has no recurrent state")
    t_grid = sorted(int(t) for t in t_grid)
    if t_grid[0] < 1:
        raise ArgumentError("t grid must start at 1 or later")
    horizon = t_grid[-1]
    tokens = rng.child(0).generator().integers(0, params.vocab, size=horizon)
    ops = _operators(params)
    normalized = params.kind == md.NORMALIZED_RNN
    if ops is None:
        acts = np.empty((horizon, params.n))
        h = np.zeros((1, params.n))
        for t, tok in enumerate(tokens):
            h, acts[t] = ge.rnn_step(h, [0], [tok], params.w_rec.T, params.w_in,
                                     params.bias, normalized)
    eye = np.eye(params.n)
    j_values = []
    if method == "operator-norm":
        acc, wanted = eye, set(t_grid)
        for t, tok in enumerate(tokens, start=1):
            if ops is not None:
                step = ops[tok]
            else:
                a = acts[t - 1]
                step = (1.0 - a ** 2)[:, None] * params.w_rec
                if normalized and np.any(a):
                    y = ge.unit_kernel(a)[0]
                    step = (eye - np.outer(y, y)) / np.linalg.norm(a) @ step
            acc = step @ acc
            if t in wanted:
                j_values.append(tc.spectral_norm(acc))
    else:
        for t in t_grid:
            g = eye
            for s in range(t - 1, -1, -1):
                g = g @ ops[tokens[s]] if ops is not None \
                    else ge.rnn_step_adjoint(g, acts[s], params.w_rec, normalized)[1]
            j_values.append(tc.spectral_norm(g))
    j_values = np.asarray(j_values)
    mask = (np.asarray(t_grid) >= fit_min_t) & (j_values > 1e-280)
    lam, r2, note = float("nan"), float("nan"), ""
    if mask.sum() >= 2:
        x = np.asarray(t_grid, dtype=float)[mask]
        y = np.log(j_values[mask])
        if np.ptp(y) < HORIZON_FLAT_SPREAD:
            lam, note = 0.0, "flat"
        else:
            lam, _, r2 = _line_fit(x, y)
    return HorizonCurve(np.asarray(t_grid), j_values, lam, r2, note)


# ===================================================================== diagnostics


def mass_gap(params, task: TaskConfig, rng: tc.RngState,
             episodes_per_class: int = 200, length: int = 5) -> MassGapResult:
    """Minimum geodesic separation between unit-normalized class centroids of
    zero-noise final states, and the separation of every pair."""
    budget = episodes_per_class * task.n_classes * 2
    batch = task.sample_batch(rng.child(0).generator(), np.full(budget, length))
    states = md.forward_batch(params, batch.ids, batch.queries)[0]
    found, counts = np.unique(batch.targets, return_counts=True)
    if found.size < 2:
        raise ArgumentError("fewer than 2 classes reached; cannot measure a gap")
    labels = found.tolist()
    centroids = {}
    for label in labels:
        c = states[batch.targets == label].mean(axis=0)
        norm = np.linalg.norm(c)
        if norm == 0:
            raise ArgumentError(f"class {label} centroid degenerate (zero vector)")
        centroids[label] = c / norm
    geodesics = [(a, b, math.acos(float(np.clip(centroids[a] @ centroids[b], -1.0, 1.0))))
                 for i, a in enumerate(labels) for b in labels[i + 1:]]
    return MassGapResult(min(g for _, _, g in geodesics), centroids,
                         dict(zip(labels, counts.tolist())), geodesics)


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over points with at least two clusters present."""
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if uniq.size < 2:
        raise ArgumentError("silhouette needs at least two clusters")
    dists = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    scores = []
    for i in range(points.shape[0]):
        same = labels == labels[i]
        own = dists[i][same]
        a = own.sum() / max(own.size - 1, 1)
        b = min(dists[i][labels == other].mean() for other in uniq
                if other != labels[i])
        scores.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return float(np.mean(scores))


def pca_snapshot(entries, task: TaskConfig, temperature: float, episodes: int,
                 rng: tc.RngState, length: int = 5) -> dict:
    """Final-state PCA per model at one noise level.

    entries: list of (tag, params). Returns per-model projected points
    (k=2 and k=3), class labels, and silhouette on the k=3 projection.
    """
    result = {}
    for mi, (tag, params) in enumerate(entries):
        mrng = rng.child(mi)
        batch = task.sample_batch(mrng.child(0).generator(), np.full(episodes, length))
        states = md.forward_batch(params, batch.ids, batch.queries, temperature,
                                  mrng.child(1))[0]
        labels = batch.targets
        proj3 = np.asarray(tc.pca_project(states, 3)[1])   # k = 2 is its first two columns
        entry = {"labels": labels, "k2": proj3[:, :2], "k3": proj3}
        if np.unique(labels).size >= 2:
            entry["silhouette"] = silhouette_score(proj3, labels)
        else:
            entry["silhouette"] = None
            entry["note"] = "single-class sample; between-class measures undefined"
        result[tag] = entry
    return result
