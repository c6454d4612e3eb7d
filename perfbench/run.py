"""holonet benchmark: run one workload in this process and report it.

From the repository root:

    python3 perfbench/run.py --workload s3-train --seed 0 --seconds 15 --trace 0

The run imports holonet from `src/`, sets the workload up several times
(set-up time is the median), then repeats the workload's pass for as long
as the next pass is expected to end within `--seconds`. Every operation's output is checked against an
oracle. Standard output ends with two JSON lines: a full report (all
end-to-end metrics with units, dropped metrics with reasons, failures,
trace splits and provenance), then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json with `--trace 0`,
and the per-layer metrics with `--trace 1`. A traced run alternates untraced
and traced passes, so tracing overhead is measured within the run. The report
and the spans of traced passes are also written to `.bench_work/results/`.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402

# One BLAS thread: with the tree scan's single worker the run stays within
# two threads, and kernels do not contend with each other for the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import mean, median  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3   # set-ups in this process after its own import
IMPORT_SAMPLES = 4  # imports in fresh interpreters, besides this process's own
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("s3-train", "binding-train", "s3-probe", "scan-long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import what this process imports."""
    code = ("import time; t = time.perf_counter(); import sys; "
            f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
            "import holonet.cli, tracing, workloads; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def blas_threads(np) -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked of the library itself."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def code_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "holonet").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    out = {"src_sha256": digest.hexdigest(), "git_sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        out["git_sha"] = git("rev-parse", "HEAD") or None
        out["dirty"] = bool(git("status", "--porcelain", "--", "src", "perfbench"))
    return out


def provenance(np, workload, seed) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = blas_threads(np)
    nproc = len(os.sched_getaffinity(0))
    return {
        "machine": {"nproc": nproc, "python": platform.python_version(),
                    "numpy": np.__version__,
                    "blas": {"name": blas.get("name"), "version": blas.get("version"),
                             "threads": threads}},
        "code": code_identity(),
        "inputs": {"workload": workload.name, "seed": seed, "configs": workload.configs},
        "threads": {"tree_workers": workload.workers, "blas": threads, "nproc": nproc,
                    "within_budget": threads is not None
                    and workload.workers + threads <= nproc},
    }


def layer_metrics(tracers, traced_walls, untraced_walls) -> dict:
    """Per traced pass: calls and self time per layer, counts, tracing overhead."""
    from tracing import COUNTS, LAYERS

    n = len(tracers)
    out = {}
    totals = [t.self_times() for t in tracers]
    for layer in LAYERS:
        calls = sum(t.get(layer, (0, 0.0))[0] for t in totals)
        self_s = sum(t.get(layer, (0, 0.0))[1] for t in totals)
        out[f"{layer}.calls"] = (calls / n, "count")
        out[f"{layer}.self_s"] = (self_s / n, "s")
    for name, unit in COUNTS:
        out[name] = (sum(t.counts[name] for t in tracers) / n, unit)
    out["tracing.overhead_s"] = (median(traced_walls) - median(untraced_walls), "s")
    return out


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "holonet" / "__init__.py").is_file():
        print(f"perfbench: no holonet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import holonet
    if Path(holonet.__file__).resolve().parent != SRC / "holonet":
        print(f"perfbench: imported holonet from {holonet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracing import StepClock, Tracer
    from workloads import WORKLOADS, error_rate, pass_walls

    import_s = time.perf_counter() - _STARTED

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    results = WORK / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        import_samples = [import_s] + [fresh_import_s() for _ in range(IMPORT_SAMPLES)]
        setup_samples = []
        for _ in range(SETUP_SAMPLES):
            workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
            start = time.perf_counter()
            workload.setup()
            setup_samples.append(time.perf_counter() - start)

        passes, traced, tracers = [], [], []
        begin = time.perf_counter()
        with StepClock() as clock:
            while True:
                started = time.perf_counter()
                if args.trace and len(passes) > len(traced):
                    with Tracer() as tracer:
                        ops = workload.run_pass(clock)
                    tracers.append(tracer)
                    traced.append(ops)
                else:
                    ops = workload.run_pass(clock)
                    passes.append(ops)
                for op in ops:
                    op.run_checks()
                # stop before a pass that would end past --seconds
                now = time.perf_counter()
                if len(traced) >= args.trace \
                        and now - begin + (now - started) > args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for group in passes + traced for op in group]
    failures = [f"{op.name}: {msg}" for op in ops for msg in op.failures]
    failed = sum(1 for op in ops if op.failures)
    metrics, dropped = workload.metrics(passes)
    metrics = {"setup_s": (median(import_samples) + median(setup_samples), "s"), **metrics,
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                               "MB"),
               "error_rate": (error_rate(ops), "fraction")}
    report = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "passes": len(passes), "traced_passes": len(traced),
        "pass_walls_s": pass_walls(passes),
        "import_samples_s": import_samples, "setup_samples_s": setup_samples,
        "metrics": as_json(metrics), "dropped": dropped,
        "failures": failures,
        "provenance": provenance(np, workload, args.seed),
    }
    if args.trace:
        layers = layer_metrics(tracers, pass_walls(traced), pass_walls(passes))
        splits = [workload.splits(t, group) for t, group in zip(tracers, traced)]
        report["per_layer"] = as_json(layers)
        report["splits"] = {k: mean(s[k] for s in splits) for k in splits[0]}
        for k, tracer in enumerate(tracers):
            tracer.write(results / f"{tag}.pass{k}.spans.csv.gz", begin)
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    chosen = layers if args.trace else {k: metrics[k] for k in END_TO_END}
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": as_json(chosen)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
