"""Probes and spans recorded from outside holonet, around calls into its modules.

Both work by replacing a public name with a wrapper at the place callers look
it up (a module attribute, or a method on a class) and restoring it after.
Nothing inside holonet is edited, so what can be seen is limited to calls
that cross a public name: the backward function of each tape primitive is
bound at import in a private table and stays invisible (see NOTES.md).

* StepClock is installed for the whole timed part of every run. It records
  when each optimizer step returns and which model each training call built,
  which is all the step-time metrics need.
* Tracer is installed only for traced passes. It keeps every span (name,
  start, end, parent) in memory and counts work at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from holonet import cli
from holonet import experiments as ex
from holonet import grad_engine as ge
from holonet import models as md
from holonet import scan_engine as se
from holonet import tensor_core as tc


class _Patches:
    """setattr with a record of the original, undone by restore()."""

    def __init__(self):
        self._saved = []

    def put(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass
class TrainCall:
    """One experiments.train call: the model kind, its return time and the
    return times of its optimizer steps."""

    kind: str
    returned: float = float("nan")
    step_returns: list = field(default_factory=list)

    def step_gaps_ms(self) -> list[float]:
        marks = self.step_returns
        return [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]


class StepClock:
    """Times optimizer steps as gaps between successive adam_step returns."""

    def __init__(self):
        self.calls: list[TrainCall] = []
        self._patches = _Patches()

    def __enter__(self):
        clock = self
        train, adam_step = ex.train, ge.adam_step

        @functools.wraps(train)
        def timed_train(model_cfg, *args, **kwargs):
            call = TrainCall(model_cfg.kind)
            clock.calls.append(call)
            try:
                return train(model_cfg, *args, **kwargs)
            finally:
                call.returned = time.perf_counter()

        @functools.wraps(adam_step)
        def timed_adam_step(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            if clock.calls:
                clock.calls[-1].step_returns.append(time.perf_counter())
            return out

        self._patches.put(ex, "train", timed_train)
        self._patches.put(ge, "adam_step", timed_adam_step)
        return self

    def __exit__(self, *exc):
        self._patches.restore()


# ------------------------------------------------------------------ counters
#
# Entry counters take (tracer, span id, args, kwargs), result counters
# (tracer, result). They read only what a caller can see: argument values,
# return values and public attributes.


def _count_tokens(tracer, result):
    tracer.counts["group_tasks.tokens"] += result.length


def _count_step(tracer, result):
    tracer.counts["experiments.train.steps"] += 1


def _tag_model(tracer, idx, args, kwargs):
    tracer.tags[idx] = args[0].kind


def _count_tape(tracer, idx, args, kwargs):
    tape = args[0]
    tracer.counts["grad_engine.tape_nodes"] += len(tape)
    for op, count in Counter(tape.ops).items():
        tracer.counts[f"grad_engine.tape_nodes.{op}"] += count


def _count_length_groups(tracer, idx, args, kwargs):
    episodes = args[3] if len(args) > 3 else kwargs["episodes"]
    tracer.counts["models.length_groups"] += len({e.length for e in episodes})


def tree_work(length: int, n: int, itemsize: int) -> tuple[int, int]:
    """Flops and bytes of tree_scan_holonomy, computed from array shapes.

    Follows the reduction as scan_engine writes it: a gather of L operators,
    then per level one batched product of the pairs and one Newton-Schulz
    pass (two batched products plus an elementwise update) over the new
    stack. Bytes count each batched product's operands read and result
    written once; cache reuse is ignored, so this is a computed figure.
    """
    mat = n * n * itemsize
    flops = 0
    moved = 2 * length * mat            # gather: read operators, write stack
    m = length
    while m > 1:
        pairs, odd = divmod(m, 2)
        m = pairs + odd
        flops += 2 * pairs * n ** 3                      # right @ left
        moved += 3 * pairs * mat
        flops += 2 * 2 * m * n ** 3 + 2 * m * n * n      # X^T X, X (1.5 I - .5 X^T X)
        moved += (3 + 4) * m * mat
    return flops, moved


def _count_tree(tracer, idx, args, kwargs):
    params, tokens = args[0], args[1]
    ops = args[4] if len(args) > 4 else kwargs.get("operators")
    itemsize = ops.dtype.itemsize if ops is not None else 8
    flops, moved = tree_work(len(tokens), params.n, itemsize)
    tracer.counts["scan_engine.tree.flops_computed"] += flops
    tracer.counts["scan_engine.tree.bytes_computed"] += moved


def _count_file(tracer, idx, args, kwargs):
    # sized when tracing ends: a checkpoint being saved does not exist yet
    tracer.pending_files.append(os.fspath(args[0]))


# (owner, attribute, layer name, entry counter, result counter)
TARGETS = (
    (ex, "s3_sample_episode", "group_tasks.sample", None, _count_tokens),
    (ex, "sv_sample_episode", "group_tasks.sample", None, _count_tokens),
    (ex, "sample_length", "group_tasks.sample", None, None),
    (tc.RngState, "generator", "tensor_core.rng_generator", None, None),
    (tc, "mat_exp", "tensor_core.mat_exp", None, None),
    (tc, "mat_exp_frechet", "tensor_core.mat_exp_frechet", None, None),
    (tc, "spectral_norm", "tensor_core.spectral_norm", None, None),
    (tc, "reorthonormalize", "tensor_core.reorthonormalize", None, None),
    (ge.Tape, "backward", "grad_engine.backward", _count_tape, None),
    (ge.Tape, "vjp", "grad_engine.vjp", None, None),
    (ge, "adam_step", "grad_engine.adam_step", None, _count_step),
    (ge, "clip_global_norm", "grad_engine.clip_global_norm", None, None),
    (md, "tape_batch_loss", "models.tape_batch_loss", _count_length_groups, None),
    (md, "holonomic_forward", "models.holonomic_forward", None, None),
    (md, "rnn_forward", "models.rnn_forward", None, None),
    (md, "transformer_forward_batch", "models.transformer_forward_batch", None, None),
    (md, "inject_noise", "models.inject_noise", None, None),
    (ex, "train", "experiments.train", _tag_model, None),
    (ex, "evaluate_accuracy", "experiments.evaluate_accuracy", None, None),
    (ex, "noise_sweep", "experiments.noise_sweep", None, None),
    (ex, "estimate_tc", "experiments.estimate_tc", None, None),
    (ex, "length_generalization_eval", "experiments.length_generalization_eval",
     None, None),
    (ex, "jacobian_horizon", "experiments.jacobian_horizon", None, None),
    (ex, "mass_gap", "experiments.mass_gap", None, None),
    (se, "sequential_holonomy", "scan_engine.sequential_holonomy", None, None),
    (se, "tree_scan_holonomy", "scan_engine.tree_scan_holonomy", _count_tree, None),
    (se, "build_operators", "scan_engine.build_operators", None, None),
    (cli, "save_checkpoint", "checkpoint.save", _count_file, None),
    (cli, "load_checkpoint", "checkpoint.load", _count_file, None),
    (cli, "write_run", "cli.write_run", None, None),
)

LAYERS = tuple(dict.fromkeys(t[2] for t in TARGETS))
TAPE_OPS = ("leaf", "slice", "transpose", "scale", "add", "mat_exp", "stack",
            "token_matvec", "gather_readout", "softmax_xent_mean", "matmul",
            "embed", "tanh", "layer_norm", "bmatmul", "mha", "mean_axis1")
COUNTS = (("group_tasks.tokens", "count"),
          ("grad_engine.tape_nodes", "count"),
          *((f"grad_engine.tape_nodes.{op}", "count") for op in TAPE_OPS),
          ("models.length_groups", "count"),
          ("experiments.train.steps", "count"),
          ("scan_engine.tree.flops_computed", "flop"),
          ("scan_engine.tree.bytes_computed", "B"),
          ("checkpoint.bytes", "B"))


class Tracer:
    """Spans around the public functions of every holonet module.

    A span's self time is its duration minus the durations of its child
    spans; calls are single-threaded, so children never overlap.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.pending_files: list[str] = []
        self.tags: dict[int, str] = {}
        self._stack: list[int] = []
        self._patches = _Patches()

    def _wrap(self, fn, name, on_enter, on_result):
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = tracer._stack
            # a sweep that Tape.backward starts belongs to backward's span
            if name == "grad_engine.vjp" and stack \
                    and tracer.names[stack[-1]] == "grad_engine.backward":
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.starts.append(float("nan"))
            tracer.ends.append(float("nan"))
            if on_enter is not None:
                on_enter(tracer, idx, args, kwargs)
            stack.append(idx)
            tracer.starts[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return spanned

    def __enter__(self):
        for owner, attr, name, on_enter, on_result in TARGETS:
            fn = owner.__dict__[attr]
            self._patches.put(owner, attr, self._wrap(fn, name, on_enter, on_result))
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        for path in self.pending_files:
            if os.path.exists(path):
                self.counts["checkpoint.bytes"] += os.path.getsize(path)
        self.pending_files.clear()
        return False

    def self_times(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds)."""
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        selfs = dur - child
        out = {}
        for name, s in zip(self.names, selfs):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + float(s))
        return out

    def inclusive(self, name: str, t0: float = -np.inf, t1: float = np.inf) -> float:
        """Summed duration of the spans called `name` that start in [t0, t1)
        and have no ancestor of the same name."""
        total = 0.0
        for i, n in enumerate(self.names):
            if n != name or not t0 <= self.starts[i] < t1:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                total += self.ends[i] - self.starts[i]
        return total

    def write(self, path, origin: float) -> None:
        """Spans as gzip CSV: name,start_s,end_s,parent (times from origin)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent\n")
            fh.writelines(
                f"{n},{s - origin:.7f},{e - origin:.7f},{p}\n"
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents))
