"""Experiment pipelines: training plus the four paper-scale studies.

Every pipeline is a pure function of (config, RngState) and is therefore
bit-reproducible: the same seed and call give the same bits. Randomness
comes from named child streams of one master seed, one stream per batch:
each training step draws its lengths and episodes from one generator, each
evaluation its episodes from one and its noise from another, and each noise
level of a sweep likewise. Bootstrap resamples have their own streams.
Recurrent inference runs through `models.forward_batch`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import grad_engine as ge
from . import models as md
from . import scan_engine as se
from . import tensor_core as tc
from .errors import ArgumentError, NumericError
from .group_tasks import (
    Batch,
    Curriculum,
    curriculum_advance,
    s3_sample_batch,
    s3_targets,
    sample_lengths,
    sv_sample_batch,
)
# perfbench/tracing.py wraps the per-episode samplers under these names here
from .group_tasks import s3_sample_episode, sample_length, sv_sample_episode  # noqa: F401

S3 = "s3"
BINDING = "binding"
# S3 validation scores every length-l_max sequence when there are at most this many
EXHAUSTIVE_S3_LIMIT = 8192
SCORE_BLOCK = 1024      # rows per forward when scoring every sequence


@dataclass(frozen=True)
class TaskConfig:
    kind: str = S3
    variables: int = 10  # binding only

    @property
    def vocab(self) -> int:
        return 6 if self.kind == S3 else self.variables * (self.variables - 1) // 2

    @property
    def n_classes(self) -> int:
        return 6 if self.kind == S3 else self.variables

    @property
    def n_queries(self) -> int:
        return 1 if self.kind == S3 else self.variables

    def sample_batch(self, gen: np.random.Generator, lengths) -> Batch:
        if self.kind == S3:
            return s3_sample_batch(gen, lengths)
        return sv_sample_batch(gen, self.variables, lengths)


@dataclass(frozen=True)
class ModelConfig:
    kind: str = md.HOLONOMIC
    n: int = 32                 # hidden dim / d_model
    layers: int = 3
    heads: int = 8
    d_ff: int = 0               # 0 -> 2 * d_model
    pos_mode: str = "learned"
    max_len: int = 64
    pool: str = "final"
    gen_scale: float = 0.0      # 0 -> default holonomic init scale

    def build(self, rng: tc.RngState, task: TaskConfig):
        if self.kind == md.HOLONOMIC:
            scale = self.gen_scale if self.gen_scale > 0 else None
            return md.init_holonomic(rng, self.n, task.vocab, task.n_classes,
                                     task.n_queries, gen_scale=scale)
        if self.kind in (md.RNN, md.NORMALIZED_RNN):
            return md.init_rnn(rng, self.n, task.vocab, task.n_classes,
                               task.n_queries)
        if self.kind == md.TRANSFORMER:
            d_ff = self.d_ff if self.d_ff > 0 else 2 * self.n
            pool = self.pool if task.kind == S3 else "mean"
            return md.init_transformer(
                rng, self.n, self.layers, self.heads, d_ff, task.vocab,
                task.n_classes, task.n_queries, self.pos_mode, self.max_len, pool)
        raise ArgumentError(f"unknown model kind: {self.kind}")

    def noise_site(self) -> str:
        return "residual-stream" if self.kind == md.TRANSFORMER else "recurrent-state"


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer, evaluation and stopping settings.

    Validation (the early-stop check once the gate passes at the top length,
    and the final `converged` evaluation) scores fresh episodes: S3 at l_max,
    binding across [l_min, l_max], `val_episodes` of them. On S3 with
    6^l_max <= EXHAUSTIVE_S3_LIMIT it instead scores every length-l_max
    sequence once, so "converged" is exact there.
    """

    steps: int = 3000
    batch: int = 64
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip: float = 1.0
    eval_interval: int = 25
    gate_episodes: int = 256
    val_episodes: int = 512
    target_accuracy: float = 1.0
    lr_schedule: str = "constant"   # constant | cosine
    lr_floor: float = 1e-4
    early_stop: bool = True


@dataclass
class TrainResult:
    kind: str
    params: object
    converged: bool
    steps_used: int
    final_accuracy: float
    log: list = field(default_factory=list)


@dataclass
class SweepResult:
    model_tag: str
    grid: np.ndarray
    acc_mean: np.ndarray
    acc_lo: np.ndarray
    acc_hi: np.ndarray
    episodes: int
    outcomes: np.ndarray | None = None  # (len(grid), episodes) bools

    def __post_init__(self):
        if np.any(np.diff(self.grid) <= 0):
            raise ArgumentError("noise grid must be strictly increasing")
        if np.any((self.acc_mean < 0) | (self.acc_mean > 1)):
            raise ArgumentError("accuracies must lie in [0, 1]")


@dataclass
class TcEstimate:
    value: float
    lo: float
    hi: float
    censored: str | None = None  # None | "right" | "all-fail"


@dataclass
class ScalingFit:
    points: list
    alpha: float
    beta: float
    r_squared: float


@dataclass
class HorizonCurve:
    model_tag: str
    t_grid: np.ndarray
    j_values: np.ndarray
    lambda_max: float
    fit_r_squared: float

    def __post_init__(self):
        if np.any(self.j_values < 0):
            raise ArgumentError("J(t) must be nonnegative")


@dataclass
class MassGapResult:
    delta: float
    centroids: dict
    counts: dict


# ===================================================================== evaluation


def predictions(kind: str, params, batch: Batch,
                noise: md.NoiseConfig = md.NoiseConfig(),
                rng: tc.RngState | None = None) -> np.ndarray:
    """Predicted labels, one per episode. Recurrent models draw the batch's
    noise from `rng`; the transformer draws episode i's from rng.child(i)."""
    if kind != md.TRANSFORMER:
        _, logits = md.forward_batch(kind, params, batch.ids, batch.queries, noise, rng)
        return np.argmax(logits, axis=1)
    episodes = batch.episodes()
    out = np.empty(len(episodes), dtype=int)
    for length in np.unique(batch.lengths):
        idxs = np.flatnonzero(batch.lengths == length).tolist()
        rngs = [rng.child(i) for i in idxs] if noise.enabled else None
        logits = md.transformer_forward_batch(params, [episodes[i] for i in idxs],
                                              noise, rngs)
        out[idxs] = np.argmax(logits, axis=1)
    return out


def evaluate_accuracy(kind: str, params, task: TaskConfig, lengths,
                      episodes: int, rng: tc.RngState,
                      noise: md.NoiseConfig = md.NoiseConfig()) -> float:
    """Accuracy on `episodes` fresh episodes drawn from one stream; episode i
    has length lengths[i % len(lengths)] (lengths: an int or a list)."""
    lengths = np.atleast_1d(np.asarray(lengths, dtype=np.intp))
    batch = task.sample_batch(rng.child(0).generator(),
                              lengths[np.arange(episodes) % lengths.size])
    preds = predictions(kind, params, batch, noise, rng.child(1))
    return float(np.mean(preds == batch.targets))


def exhaustive_s3_accuracy(kind: str, params, length: int) -> float:
    """Accuracy over every S3 sequence of `length`, scored in blocks."""
    ids = np.indices((6,) * length).reshape(length, -1).T
    correct = 0
    for lo in range(0, ids.shape[0], SCORE_BLOCK):
        block = ids[lo:lo + SCORE_BLOCK]
        batch = Batch(block, np.full(block.shape[0], length), s3_targets(block))
        correct += int(np.sum(predictions(kind, params, batch) == batch.targets))
    return correct / ids.shape[0]


def validation_accuracy(kind: str, params, task: TaskConfig, curriculum: Curriculum,
                        episodes: int, rng: tc.RngState) -> float:
    """The accuracy `train` calls converged at; see TrainConfig."""
    if task.kind == S3:
        if 6 ** curriculum.l_max <= EXHAUSTIVE_S3_LIMIT:
            return exhaustive_s3_accuracy(kind, params, curriculum.l_max)
        lengths = curriculum.l_max
    else:
        lengths = list(range(curriculum.l_min, curriculum.l_max + 1))
    return evaluate_accuracy(kind, params, task, lengths, episodes, rng)


# ===================================================================== training


def _lr_at(cfg: TrainConfig, step: int) -> float:
    if cfg.lr_schedule == "cosine":
        frac = step / max(cfg.steps - 1, 1)
        return cfg.lr_floor + 0.5 * (cfg.lr - cfg.lr_floor) * (1 + math.cos(math.pi * frac))
    return cfg.lr


def train(model_cfg: ModelConfig, task: TaskConfig, curriculum: Curriculum,
          cfg: TrainConfig, rng: tc.RngState) -> TrainResult:
    """Curriculum training to the task's convergence target.

    Stepwise curricula gate on perfect accuracy at the current length; ramp
    curricula advance with the step fraction. Returns a non-convergence
    result (converged=False) carrying the best parameters if the step budget
    runs out. A non-finite loss or pre-clip gradient norm raises
    NumericError before the update, so the parameters are never poisoned.
    Each log entry carries that step's pre-clip gradient norm.
    """
    if model_cfg.kind == md.TRANSFORMER and model_cfg.pos_mode == "learned" \
            and curriculum.l_max > model_cfg.max_len:
        raise ArgumentError("learned positional table smaller than curriculum l_max")
    params = model_cfg.build(rng.child(0), task)
    store = ge.ParamStore(params.to_dict())
    log: list[dict] = []
    converged = False
    accuracy = 0.0
    step = 0
    for step in range(1, cfg.steps + 1):
        if curriculum.kind == "ramp":
            curriculum = curriculum_advance(curriculum, step / cfg.steps)
        gen = rng.child(1, step).generator()
        batch = task.sample_batch(gen, sample_lengths(curriculum, gen, cfg.batch))
        tape = ge.Tape()
        leaves = {k: tape.leaf(v) for k, v in store.params.items()}
        loss = md.tape_batch_loss(model_cfg.kind, tape, leaves, batch.episodes(), params)
        if not np.isfinite(loss.value):
            raise NumericError(f"training loss is {float(loss.value)} at step {step}")
        tape.backward(loss)
        grads = ge.collect_grads(tape, leaves)
        grad_norm = ge.clip_global_norm(grads, cfg.clip)
        if not np.isfinite(grad_norm):
            raise NumericError(f"gradient norm is {grad_norm} at step {step}")
        ge.adam_step(store, grads, _lr_at(cfg, step), cfg.beta1, cfg.beta2, cfg.eps)
        if model_cfg.kind == md.HOLONOMIC:
            store.params["h0"] /= np.linalg.norm(store.params["h0"])
        if step % cfg.eval_interval == 0 or step == cfg.steps:
            params = params.replace_from(store.params)
            gate_len = curriculum.max_len
            gate_acc = evaluate_accuracy(model_cfg.kind, params, task, gate_len,
                                         cfg.gate_episodes, rng.child(2, step))
            log.append({"step": step, "max_len": curriculum.max_len,
                        "loss": float(loss.value), "grad_norm": float(grad_norm),
                        "accuracy": gate_acc})
            if curriculum.kind == "stepwise":
                before = curriculum.max_len
                curriculum = curriculum_advance(curriculum, gate_acc)
                at_top = before == curriculum.l_max
            else:
                at_top = curriculum.progress >= curriculum.ramp_fraction
            if at_top and gate_acc >= cfg.target_accuracy:
                accuracy = validation_accuracy(model_cfg.kind, params, task, curriculum,
                                               cfg.val_episodes, rng.child(3, step))
                if accuracy >= cfg.target_accuracy:
                    converged = True
                    if cfg.early_stop:
                        break
    params = params.replace_from(store.params)
    if not (cfg.early_stop and converged):
        # convergence must describe the returned parameters
        accuracy = validation_accuracy(model_cfg.kind, params, task, curriculum,
                                       cfg.val_episodes, rng.child(4))
        converged = accuracy >= cfg.target_accuracy
    return TrainResult(model_cfg.kind, params, converged, step, accuracy, log)


# ===================================================================== noise sweep


def noise_sweep(kind: str, params, task: TaskConfig, t_grid, episodes: int,
                rng: tc.RngState, length: int = 5, site: str | None = None,
                model_tag: str | None = None,
                bootstrap: int = 1000) -> SweepResult:
    """Accuracy versus noise temperature over fresh length-`length` episodes;
    noise level i draws its episodes from rng.child(0, i) and its noise from
    rng.child(1, i)."""
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    site = site or ("residual-stream" if kind == md.TRANSFORMER else "recurrent-state")
    outcomes = np.zeros((t_grid.size, episodes), dtype=bool)
    for ti, temp in enumerate(t_grid):
        batch = task.sample_batch(rng.child(0, ti).generator(), np.full(episodes, length))
        noise = md.NoiseConfig(temperature=float(temp), enabled=temp > 0, site=site)
        outcomes[ti] = predictions(kind, params, batch, noise, rng.child(1, ti)) \
            == batch.targets
    acc = outcomes.mean(axis=1)
    lo = np.empty_like(acc)
    hi = np.empty_like(acc)
    boot_gen = rng.child(2).generator()
    for ti in range(t_grid.size):
        draws = boot_gen.integers(0, episodes, size=(bootstrap, episodes))
        means = outcomes[ti][draws].mean(axis=1)
        lo[ti], hi[ti] = np.percentile(means, [2.5, 97.5])
    return SweepResult(model_tag or kind, t_grid, acc, lo, hi, episodes, outcomes)


def _plugin_tc(grid: np.ndarray, acc: np.ndarray, qualifies: np.ndarray,
               threshold: float) -> tuple[float, str | None]:
    if not qualifies.any():
        return 0.0, "all-fail"
    i = int(np.max(np.nonzero(qualifies)[0]))
    if i == grid.size - 1:
        return float(grid[-1]), "right"
    lo_acc, hi_acc = acc[i], acc[i + 1]
    if lo_acc <= threshold:
        return float(grid[i]), None
    if hi_acc >= threshold:
        return float(grid[i + 1]), None
    frac = (lo_acc - threshold) / (lo_acc - hi_acc)
    return float(grid[i] + frac * (grid[i + 1] - grid[i])), None


def estimate_tc(sweep: SweepResult, threshold: float = 0.99,
                rng: tc.RngState | None = None, bootstrap: int = 1000,
                chance: float = 0.0) -> TcEstimate:
    """Largest noise level whose CI lower bound clears the fidelity threshold,
    refined by linear interpolation toward the crossing."""
    if not chance < threshold <= 1.0:
        raise ArgumentError(f"threshold must lie in ({chance}, 1]")
    value, censored = _plugin_tc(sweep.grid, sweep.acc_mean,
                                 sweep.acc_lo >= threshold, threshold)
    if sweep.outcomes is None:
        return TcEstimate(value, value, value, censored)
    gen = (rng or tc.RngState(0)).generator()
    n = sweep.outcomes.shape[1]
    samples = np.empty(bootstrap)
    for b in range(bootstrap):
        idx = gen.integers(0, n, size=n)
        acc_b = sweep.outcomes[:, idx].mean(axis=1)
        samples[b], _ = _plugin_tc(sweep.grid, acc_b, acc_b >= threshold, threshold)
    lo, hi = np.percentile(samples, [2.5, 97.5])
    return TcEstimate(value, float(lo), float(hi), censored)


# ===================================================================== scaling


def fit_log_scaling(points) -> ScalingFit:
    """Least squares of T_c on ln N; returns alpha, beta, R^2."""
    pts = [(int(n), float(t)) for n, t in points]
    ns = [n for n, _ in pts]
    if len(pts) < 3:
        raise ArgumentError("need at least 3 (N, T_c) points")
    if len(set(ns)) != len(ns):
        raise ArgumentError("duplicate N in scaling points")
    if len(set(ns)) < 2:
        raise ArgumentError("degenerate design: all N equal")
    x = np.log([n for n, _ in pts])
    y = np.array([t for _, t in pts])
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    alpha, beta = float(coef[0]), float(coef[1])
    resid = y - design @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(pts, alpha, beta, r2)


def finite_size_scan(n_grid, task: TaskConfig, curriculum: Curriculum,
                     train_cfg: TrainConfig, sweep_grid, sweep_episodes: int,
                     rng: tc.RngState, threshold: float = 0.99,
                     model_kind: str = md.HOLONOMIC) -> list[dict]:
    """Independent train + sweep + T_c per width; non-converged widths are
    flagged and excluded from downstream fits."""
    ns = [int(n) for n in n_grid]
    if len(set(ns)) != len(ns):
        raise ArgumentError("duplicate N in width grid")
    rows = []
    for n in ns:
        nrng = rng.child(n)
        result = train(ModelConfig(kind=model_kind, n=n), task, curriculum,
                       train_cfg, nrng.child(0))
        row = {"N": n, "converged": result.converged, "tc": None}
        if result.converged:
            sweep = noise_sweep(model_kind, result.params, task, sweep_grid,
                                sweep_episodes, nrng.child(1))
            row["tc"] = estimate_tc(sweep, threshold, nrng.child(2))
            row["sweep"] = sweep
        rows.append(row)
    return rows


# ===================================================================== generalization


def length_generalization_eval(kind: str, params, task: TaskConfig, lengths,
                               episodes: int, precision: int,
                               rng: tc.RngState,
                               renorm_interval: int = 64) -> list[dict]:
    """Accuracy per length on fresh episodes; learned-positional overflow is
    recorded explicitly instead of silently scored."""
    if precision not in (32, 64):
        raise ArgumentError("precision must be 32 or 64")
    if precision != 64 and any(length > 50 for length in lengths):
        raise ArgumentError("lengths beyond 50 require 64-bit inference")
    rows = []
    operators = None
    if kind == md.HOLONOMIC:
        operators = se.build_operators(params, precision)
    for li, length in enumerate(lengths):
        if kind == md.TRANSFORMER and params.pos_mode == "learned" \
                and length > params.max_len:
            rows.append({"L": int(length), "acc": float("nan"),
                         "episodes": episodes, "precision": precision,
                         "note": "capacity-exceeded"})
            continue
        batch = task.sample_batch(rng.child(li).generator(), np.full(episodes, length))
        if kind == md.HOLONOMIC:
            _, logits = md.forward_batch(kind, params, batch.ids, batch.queries,
                                         operators=operators,
                                         renorm_interval=renorm_interval)
            preds = np.argmax(logits, axis=1)
        else:
            preds = predictions(kind, params, batch)
        acc = float(np.mean(preds == batch.targets))
        rows.append({"L": int(length), "acc": acc, "episodes": episodes,
                     "precision": precision, "note": ""})
    return rows


# ===================================================================== memory horizon


def _rnn_step_jacobians(params, tokens, normalized: bool):
    """Exact per-step Jacobians of the (optionally normalized) tanh recurrence."""
    jacs = []
    h = np.zeros(params.n)
    for tok in tokens:
        pre = params.w_rec @ h + params.w_in[tok] + params.bias
        a = np.tanh(pre)
        step = (1.0 - a ** 2)[:, None] * params.w_rec
        if normalized:
            norm = np.linalg.norm(a)
            if norm > 0:
                y = a / norm
                step = (np.eye(params.n) - np.outer(y, y)) / norm @ step
                a = y
        jacs.append(step)
        h = a
    return jacs


def jacobian_horizon(kind: str, params, t_grid, method: str, rng: tc.RngState,
                     fit_min_t: int = 5, model_tag: str | None = None,
                     task: TaskConfig | None = None) -> HorizonCurve:
    """J(t) = ||dh_t / dh_0||_2 along one random episode.

    operator-norm accumulates the exact linear map; autodiff materializes the
    Jacobian row-by-row with tape VJPs and takes its spectral norm.
    """
    if method not in ("autodiff", "operator-norm"):
        raise ArgumentError(f"unknown method: {method}")
    if kind == md.TRANSFORMER:
        raise ArgumentError("memory horizon needs trajectory access; "
                            "transformer has no recurrent state")
    t_grid = sorted(int(t) for t in t_grid)
    if t_grid[0] < 1:
        raise ArgumentError("t grid must start at 1 or later")
    horizon = t_grid[-1]
    vocab = params.vocab
    tokens = [int(t) for t in rng.child(0).generator().integers(0, vocab, size=horizon)]
    wanted = set(t_grid)
    j_values = []
    ops = params.operators() if kind == md.HOLONOMIC else None
    if method == "operator-norm":
        if kind == md.HOLONOMIC:
            steps = [ops[tok] for tok in tokens]
        else:
            steps = _rnn_step_jacobians(params, tokens, kind == md.NORMALIZED_RNN)
        acc = np.eye(params.n)
        for t, step in enumerate(steps, start=1):
            acc = step @ acc
            if t in wanted:
                j_values.append(tc.spectral_norm(acc, tol=1e-12,
                                                 rng=rng.child(1, t)))
    else:
        tape = ge.Tape()
        if kind == md.HOLONOMIC:
            # dh_t/dh_0 does not depend on the generators: operators are leaves
            op_leaves = {}
            h0 = tape.leaf(params.h0)
            h = h0
            states = {}
            for t, tok in enumerate(tokens, start=1):
                if tok not in op_leaves:
                    op_leaves[tok] = tape.leaf(ops[tok])
                h = ge.matvec(op_leaves[tok], h)
                if t in wanted:
                    states[t] = h
        else:
            leaves = {k: tape.leaf(v) for k, v in params.to_dict().items()}
            h0 = tape.leaf(np.zeros(params.n))
            h = h0
            states = {}
            for t, tok in enumerate(tokens, start=1):
                pre = ge.matvec(leaves["w_rec"], h) \
                    + ge.embed_lookup(leaves["w_in"], tok) + leaves["bias"]
                h = ge.tanh(pre)
                if kind == md.NORMALIZED_RNN:
                    h = ge.unit(h)
                if t in wanted:
                    states[t] = h
        n = params.n
        for t in t_grid:
            rows = np.empty((n, n))
            basis = np.eye(n)
            for i in range(n):
                grads = tape.vjp(states[t], basis[i])
                g = grads.get(h0.idx)
                rows[i] = 0.0 if g is None else g
            j_values.append(tc.spectral_norm(rows, tol=1e-12, rng=rng.child(1, t)))
    j_values = np.asarray(j_values)
    mask = (np.asarray(t_grid) >= fit_min_t) & (j_values > 1e-280)
    lam, r2 = float("nan"), float("nan")
    if mask.sum() >= 2:
        x = np.asarray(t_grid, dtype=float)[mask]
        y = np.log(j_values[mask])
        design = np.stack([x, np.ones_like(x)], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        lam = float(coef[0])
        resid = y - design @ coef
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0 else 1.0 - float(resid @ resid) / ss_tot
    return HorizonCurve(model_tag or kind, np.asarray(t_grid), j_values, lam, r2)


# ===================================================================== diagnostics


def final_states(kind: str, params, batch: Batch,
                 noise: md.NoiseConfig = md.NoiseConfig(),
                 rng: tc.RngState | None = None) -> np.ndarray:
    """Final hidden representation per episode (pooled encoding for the
    transformer, which needs equal lengths); noise streams as in
    `predictions`."""
    if kind == md.TRANSFORMER:
        rngs = [rng.child(i) for i in range(len(batch.targets))] if noise.enabled else None
        return md.transformer_forward_batch(params, batch.episodes(), noise, rngs,
                                            return_repr=True)
    return md.forward_batch(kind, params, batch.ids, batch.queries, noise, rng)[0]


def mass_gap(kind: str, params, task: TaskConfig, rng: tc.RngState,
             episodes_per_class: int = 200, length: int = 5) -> MassGapResult:
    """Minimum geodesic separation between unit-normalized class centroids of
    zero-noise final states."""
    budget = episodes_per_class * task.n_classes * 2
    batch = task.sample_batch(rng.child(0).generator(), np.full(budget, length))
    states = final_states(kind, params, batch)
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
    delta = math.pi
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            cosang = float(np.clip(centroids[a] @ centroids[b], -1.0, 1.0))
            delta = min(delta, math.acos(cosang))
    return MassGapResult(delta, centroids, dict(zip(labels, counts.tolist())))


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

    entries: list of (tag, kind, params). Returns per-model projected points
    (k=2 and k=3), class labels, and silhouette on the k=3 projection.
    """
    result = {}
    for mi, (tag, kind, params) in enumerate(entries):
        mrng = rng.child(mi)
        batch = task.sample_batch(mrng.child(0).generator(), np.full(episodes, length))
        noise = md.NoiseConfig(temperature=temperature, enabled=temperature > 0)
        states = final_states(kind, params, batch, noise, mrng.child(1))
        labels = batch.targets
        _, proj2 = tc.pca_project(states, 2)
        _, proj3 = tc.pca_project(states, 3)
        entry = {"labels": labels, "k2": np.asarray(proj2), "k3": np.asarray(proj3)}
        if np.unique(labels).size >= 2:
            entry["silhouette"] = silhouette_score(np.asarray(proj3), labels)
        else:
            entry["silhouette"] = None
            entry["note"] = "single-class sample; between-class measures undefined"
        result[tag] = entry
    return result
