"""Self-test of the benchmark: every workload at a tiny size, and the checks.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The end-to-end metrics the benchmark reports for each workload. Those not
# in BENCHMARK.json are workload-specific and appear in the report line.
NAMED = {
    "s3-train": ["setup_s", "wall_s", "peak_rss_mb", "error_rate", "time_to_target_s",
                 "step_ms.p50.holonomic", "step_ms.p90.holonomic"],
    "binding-train": ["setup_s", "wall_s", "peak_rss_mb", "error_rate",
                      "step_ms.p50.holonomic", "step_ms.p90.holonomic",
                      "step_ms.p50.rnn", "step_ms.p50.transformer"],
    "s3-probe": ["setup_s", "wall_s", "peak_rss_mb", "error_rate",
                 "sweep_s", "genlen_s", "horizon_s"],
    "scan-long": ["setup_s", "wall_s", "peak_rss_mb", "error_rate",
                  "scan_tokens_per_s.sequential", "scan_tokens_per_s.tree"],
}
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "error_rate": "fraction",
         "time_to_target_s": "s", "sweep_s": "s", "genlen_s": "s", "horizon_s": "s"}


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def unit_of(name):
    if name.startswith("step_ms."):
        return "ms"
    if name.startswith("scan_tokens_per_s."):
        return "tokens/s"
    return UNITS[name]


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    expected = {f"{layer}.{kind}": unit for layer in tracing.LAYERS
                for kind, unit in (("calls", "count"), ("self_s", "s"))}
    expected.update(dict(tracing.COUNTS))
    expected["tracing.overhead_s"] = "s"
    assert per_layer == expected


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_tiny(name, trace):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    report, result = json.loads(report_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    for metric in NAMED[name]:
        if metric in report["metrics"]:
            assert report["metrics"][metric]["unit"] == unit_of(metric)
        else:
            assert report["dropped"].get(metric), f"{metric} neither printed nor dropped"
    assert report["metrics"]["error_rate"]["value"] == 0.0
    prov = report["provenance"]
    assert prov["inputs"]["seed"] == 3 and prov["inputs"]["configs"]
    if prov["machine"]["blas"]["threads"] is not None:  # OpenBLAS answered
        assert prov["machine"]["blas"]["threads"] == 1
        assert prov["threads"]["within_budget"] is (prov["machine"]["nproc"] >= 2)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan-long",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""


def test_flipped_target_raises_error_rate(tmp_path):
    from tracing import StepClock

    workload = workloads.S3Train(seed=5, tiny=True, workdir=tmp_path)
    workload.setup()
    with StepClock() as clock:
        ops = workload.run_pass(clock)
    workload.labels = workload.labels.copy()
    workload.labels[0] = (workload.labels[0] + 1) % 6
    for op in ops:
        op.run_checks()
    assert workloads.error_rate(ops) == 1.0
    assert "re-scored accuracy" in ops[0].failures[0]


def test_checks_reject_corrupted_outputs():
    rng = np.random.default_rng(0)
    ops = checks.exp_skew(rng.standard_normal((3, 8, 8)))
    assert checks.ortho_defect(ops) < checks.ORTHO_TOL
    tree = ops[2] @ ops[1] @ ops[0]
    assert checks.check_scan(tree, tree.copy()) == []
    assert checks.check_scan(tree, tree * (1 + 1e-6))
    assert checks.check_sweep([{"T": "0.000000", "acc_mean": "1.000000"}]) == []
    assert checks.check_sweep([{"T": "0.000000", "acc_mean": "0.998047"}])
    assert checks.check_genlen([{"L": "50", "episodes": "3"}], (50,), 4)
    rows = [{"t": "1", "J": "1.000000000e+00"}, {"t": "2", "J": "1.000000002e+00"}]
    assert checks.check_horizon(rows, {"method_disagreement_max": "3.6e-15"})
    assert checks.check_exit(2, {0, 4}, None)
    assert checks.check_exit(None, {0}, "Traceback ...\nValueError: boom")


def test_tree_work_counts_every_level():
    flops, moved = tracing.tree_work(2, 4, 8)
    # one pair product (2 n^3) then Newton-Schulz on one matrix (4 n^3 + 2 n^2)
    assert flops == 2 * 64 + 4 * 64 + 2 * 16
    assert moved == (2 * 2 + 3 + 7) * 16 * 8
