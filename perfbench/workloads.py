"""The benchmark's four workloads, each a closed loop run by one caller.

A workload sets up once per set-up sample, then repeats one *pass*: a fixed
amount of work that the workload seed determines. Every pass of a run does
the same work on the same inputs, so medians over passes measure the code and
the machine, and a faster commit does more passes of the same work, not
different work. Operations go through holonet's public entry points: the
command line (`holonet.cli.main`) and the experiment and scan functions.

Why each workload exists, and the layer each is meant to move, is in
NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

import checks
from holonet import cli
from holonet import models as md
from holonet import scan_engine as se
from holonet.checkpoint import load_checkpoint
from holonet.config import BenchSpec, RunConfig, parse_config, render_config, validate_config
from holonet.tensor_core import RngState


@dataclass
class Op:
    """One timed operation and the check to run on its output afterwards."""

    name: str
    start: float
    seconds: float
    failures: list = field(default_factory=list)
    train_calls: list = field(default_factory=list)
    verify: Callable[[], list] | None = None

    def run_checks(self) -> None:
        if not self.failures and self.verify is not None:
            try:
                self.failures = self.verify()
            except Exception:
                self.failures = [traceback.format_exc().strip().splitlines()[-1]]
        self.verify = None


def call_cli(name: str, argv: list[str], clock=None, allowed=(0,)) -> Op:
    """Time one `holonet` command; an unexpected exit or a traceback fails it.

    With a StepClock, the op keeps the training calls the command made."""
    first = len(clock.calls) if clock else 0
    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse refused the arguments
        code = exc.code
    except Exception:
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    op = Op(name, start, seconds, train_calls=clock.calls[first:] if clock else [])
    op.failures = checks.check_exit(code, set(allowed), error)
    if op.failures and sink.getvalue():
        op.failures.append(sink.getvalue().strip()[-300:])
    return op


def error_rate(ops) -> float:
    """Failed operations over attempted ones."""
    return sum(1 for op in ops if op.failures) / len(ops)


def resolved_config(text: str, command: str, seed: int, out: Path) -> str:
    """The config `holonet <command>` runs with, as holonet renders it."""
    cfg = replace(parse_config(text), experiment=command, seed=seed, out=str(out))
    validate_config(cfg)
    return render_config(cfg)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def pass_walls(passes) -> list[float]:
    return [sum(op.seconds for op in ops) for ops in passes]


def step_metrics(passes, kind: str, with_p90: bool, metrics: dict, dropped: dict):
    """step_ms.p50.<kind> (and p90 where at least 10 steps lie beyond it)."""
    gaps = [g for ops in passes for op in ops for call in op.train_calls
            if call.kind == kind for g in call.step_gaps_ms()]
    if not gaps:
        dropped[f"step_ms.p50.{kind}"] = "no optimizer steps were timed"
        return
    metrics[f"step_ms.p50.{kind}"] = (percentile(gaps, 50), "ms")
    if with_p90:
        if len(gaps) >= 100:
            metrics[f"step_ms.p90.{kind}"] = (percentile(gaps, 90), "ms")
        else:
            dropped[f"step_ms.p90.{kind}"] = (
                f"{len(gaps)} steps timed; p90 needs 100 so that 10 lie beyond it")


def op_named(ops, name):
    return next(op for op in ops if op.name == name)


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.configs: dict[str, str] = {}
        self.workers = 1

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, clock) -> list[Op]:
        raise NotImplementedError

    def metrics(self, passes) -> tuple[dict, dict]:
        """({name: (value, unit)}, {dropped name: reason}) over untraced passes."""
        raise NotImplementedError

    def splits(self, tracer, ops) -> dict:
        """Shares of wall time the traced pass spent in the layer that bounds it."""
        return {}


# ===================================================================== s3-train


S3_DEFAULT = "[run]\nexperiment = train\n"
S3_TINY = "[curriculum]\nl_max = 2\n"


class S3Train(Workload):
    name = "s3-train"
    why = ("holonet train at its default S3 config, to convergence on three seeds: "
           "the short-sequence path where episode sampling dominates")

    def setup(self):
        text = S3_TINY if self.tiny else S3_DEFAULT
        self.out = self.workdir / "out"
        self.argv = ["train", "--config", self.write("s3-train.ini", text),
                     "--out", str(self.out)]
        self.train_seeds = [self.seed + i for i in range(1 if self.tiny else 3)]
        self.configs = {f"train seed{s}": resolved_config(text, "train", s, self.out)
                        for s in self.train_seeds}
        length = parse_config(text).curriculum.l_max
        self.tokens, self.labels = checks.s3_episodes(
            np.random.default_rng([self.seed, 1]), 1024, length)

    def run_pass(self, clock):
        ops = []
        for s in self.train_seeds:
            op = call_cli(f"train seed{s}", self.argv + ["--seed", str(s)], clock)
            ckpt = self.out / "train" / f"seed{s}" / "model.ckpt"
            op.verify = lambda ckpt=ckpt: checks.check_s3_model(
                load_checkpoint(ckpt)[1], self.tokens, self.labels)
            ops.append(op)
        return ops

    def metrics(self, passes):
        metrics, dropped = {"wall_s": (median(pass_walls(passes)), "s")}, {}
        to_target = [sum(op.train_calls[-1].returned - op.start for op in ops)
                     for ops in passes]
        metrics["time_to_target_s"] = (median(to_target), "s")
        step_metrics(passes, md.HOLONOMIC, True, metrics, dropped)
        return metrics, dropped

    def splits(self, tracer, ops):
        wall = sum(op.seconds for op in ops)
        return {"sampling_share_of_wall": tracer.inclusive("group_tasks.sample") / wall,
                "backward_share_of_wall": tracer.inclusive("grad_engine.backward") / wall}


# ===================================================================== binding-train


BINDING = """[model]
kind = {kind}
n = {n}
[task]
kind = binding
variables = 10
[curriculum]
# past the ramp from the first step: lengths 5..50, half of them 50
ramp_fraction = 0.001
[train]
steps = {steps}
gate_episodes = 64
val_episodes = 64
"""
# (kind, n, optimizer steps per pass)
BINDING_MODELS = ((md.HOLONOMIC, 128, 2), (md.RNN, 128, 6), (md.TRANSFORMER, 64, 4))
BINDING_TINY = ((md.HOLONOMIC, 16, 2), (md.RNN, 16, 2), (md.TRANSFORMER, 16, 2))


class BindingTrain(Workload):
    name = "binding-train"
    why = ("fixed-step binding training at L up to 50 for holonomic n=128, rnn n=128 "
           "and transformer d=64: the long-sequence path bound by the tape backward")

    def setup(self):
        self.runs = []
        for kind, n, steps in BINDING_TINY if self.tiny else BINDING_MODELS:
            text = BINDING.format(kind=kind, n=n, steps=steps)
            out = self.workdir / f"out-{kind}"
            argv = ["train", "--config", self.write(f"binding-{kind}.ini", text),
                    "--seed", str(self.seed), "--out", str(out)]
            self.configs[kind] = resolved_config(text, "train", self.seed, out)
            self.runs.append((kind, argv, out / "train" / f"seed{self.seed}"))

    def run_pass(self, clock):
        ops = []
        for kind, argv, run_dir in self.runs:
            # a fixed-step run ends in exit 4 (not converged) by design
            op = call_cli(kind, argv, clock, allowed=(0, 4))
            op.verify = lambda kind=kind, run_dir=run_dir: checks.check_training_health(
                kind, load_checkpoint(run_dir / "model.ckpt")[1],
                [float(r["loss"]) for r in checks.read_csv(run_dir / "curve.csv")])
            ops.append(op)
        return ops

    def metrics(self, passes):
        metrics, dropped = {"wall_s": (median(pass_walls(passes)), "s")}, {}
        for kind, _, _ in self.runs:
            step_metrics(passes, kind, kind == md.HOLONOMIC, metrics, dropped)
        return metrics, dropped

    def splits(self, tracer, ops):
        # backward time over step time inside each holonomic training call:
        # from entering train to the return of its last optimizer step
        backward = steps = 0.0
        for i, kind in tracer.tags.items():
            if kind != md.HOLONOMIC:
                continue
            last = max(tracer.ends[j] for j, p in enumerate(tracer.parents)
                       if p == i and tracer.names[j] == "grad_engine.adam_step")
            backward += tracer.inclusive("grad_engine.backward", tracer.starts[i], last)
            steps += last - tracer.starts[i]
        return {"holonomic_backward_share_of_step": backward / steps}


# ===================================================================== s3-probe


PROBE = """[noise]
episodes = 64
checkpoint = {ckpt}
[genlen]
episodes = 16
checkpoint = {ckpt}
[horizon]
t_max = 500
checkpoint = {ckpt}
[massgap]
episodes_per_class = 50
checkpoint = {ckpt}
"""
PROBE_TINY = """[noise]
points = 3
episodes = 8
length = 2
checkpoint = {ckpt}
[genlen]
lengths = 50,100
episodes = 4
checkpoint = {ckpt}
[horizon]
t_max = 20
points = 5
checkpoint = {ckpt}
[massgap]
episodes_per_class = 5
length = 2
checkpoint = {ckpt}
"""
PROBES = ("sweep", "genlen", "horizon", "massgap")


class S3Probe(Workload):
    name = "s3-probe"
    why = ("sweep, genlen, horizon (both methods) and massgap on an S3 checkpoint "
           "that set-up trains: the inference side, sampling- and VJP-bound")

    def setup(self):
        train_text = S3_TINY if self.tiny else S3_DEFAULT
        out = self.workdir / "out"
        op = call_cli("train checkpoint", ["train", "--config",
                                           self.write("s3-probe-train.ini", train_text),
                                           "--seed", str(self.seed), "--out", str(out)])
        if op.failures:
            raise RuntimeError(f"s3-probe set-up could not train its checkpoint: "
                               f"{op.failures}")
        ckpt = out / "train" / f"seed{self.seed}" / "model.ckpt"
        defect = checks.ortho_defect(se.build_operators(load_checkpoint(ckpt)[1]))
        if not defect < checks.ORTHO_TOL:
            raise RuntimeError(f"s3-probe checkpoint operators not orthogonal: {defect:.3e}")
        text = (PROBE_TINY if self.tiny else PROBE).format(ckpt=ckpt)
        path = self.write("s3-probe.ini", text)
        self.configs = {"train checkpoint": resolved_config(train_text, "train", self.seed, out)}
        self.probes = []
        for command in PROBES:
            self.configs[command] = resolved_config(text, command, self.seed, out)
            argv = [command, "--config", path, "--seed", str(self.seed), "--out", str(out)]
            self.probes.append((command, argv, out / command / f"seed{self.seed}"))
        self.genlen = parse_config(text).genlen

    def run_pass(self, clock):
        ops = []
        for command, argv, run_dir in self.probes:
            op = call_cli(command, argv, clock)
            op.verify = lambda command=command, run_dir=run_dir: self._check(command, run_dir)
            ops.append(op)
        return ops

    def _check(self, command, run_dir):
        if command == "massgap":
            return []
        rows = checks.read_csv(run_dir / "curve.csv")
        if command == "sweep":
            return checks.check_sweep(rows)
        if command == "genlen":
            return checks.check_genlen(rows, self.genlen.lengths, self.genlen.episodes)
        return checks.check_horizon(rows, checks.read_summary(run_dir / "summary.txt"))

    def metrics(self, passes):
        metrics = {"wall_s": (median(pass_walls(passes)), "s")}
        for command in ("sweep", "genlen", "horizon"):
            metrics[f"{command}_s"] = (
                median(op_named(ops, command).seconds for ops in passes), "s")
        return metrics, {}

    def splits(self, tracer, ops):
        out = {}
        for command, layer in (("sweep", "tensor_core.rng_generator"),
                               ("genlen", "group_tasks.sample"),
                               ("horizon", "grad_engine.vjp")):
            op = op_named(ops, command)
            share = tracer.inclusive(layer, op.start, op.start + op.seconds) / op.seconds
            out[f"{command}.{layer}_share"] = share
        return out


# ===================================================================== scan-long


class ScanLong(Workload):
    name = "scan-long"
    why = ("scan-bench's sequential and tree holonomy at L=16384, n=32, vocab 6: "
           "the only workload that runs scan_engine's product paths")

    def setup(self):
        length = 256 if self.tiny else 16384
        cfg = RunConfig(experiment="scan-bench", seed=self.seed,
                        bench=BenchSpec(lengths=(length,)))
        validate_config(cfg)
        self.configs = {"scan-bench": render_config(cfg)}
        self.workers = cfg.workers
        # the same parameters and tokens `holonet scan-bench` derives from the seed
        rng = RngState(cfg.seed).child(7)
        self.params = md.init_holonomic(rng.child(0), cfg.bench.n, cfg.bench.vocab, 6)
        self.plan = se.ScanPlan(precision=cfg.precision)
        self.operators = se.build_operators(self.params, cfg.precision)
        self.tokens = rng.child(1).child(0).generator().integers(
            0, self.params.vocab, size=length)
        self.length = length

    def _timed(self, name, fn):
        start = time.perf_counter()
        try:
            out, failures = fn(), []
        except Exception:
            out, failures = None, [traceback.format_exc().strip().splitlines()[-1]]
        return Op(name, start, time.perf_counter() - start, failures), out

    def run_pass(self, clock):
        seq_op, seq = self._timed("sequential", lambda: se.sequential_holonomy(
            self.params, self.tokens, self.plan, self.operators))
        tree_op, tree = self._timed("tree", lambda: se.tree_scan_holonomy(
            self.params, self.tokens, self.plan, self.workers, self.operators))
        if not seq_op.failures:
            tree_op.verify = lambda: checks.check_scan(seq, tree)
        return [seq_op, tree_op]

    def metrics(self, passes):
        metrics = {"wall_s": (median(pass_walls(passes)), "s")}
        for mode in ("sequential", "tree"):
            seconds = median(op_named(ops, mode).seconds for ops in passes)
            metrics[f"scan_tokens_per_s.{mode}"] = (self.length / seconds, "tokens/s")
        return metrics, {}


WORKLOADS = {w.name: w for w in (S3Train, BindingTrain, S3Probe, ScanLong)}
