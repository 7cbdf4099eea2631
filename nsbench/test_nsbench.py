"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest nsbench

Each workload runs at smoke size (8^3 grids, a fraction of a second), once
untraced and once traced; every metric BENCHMARK.json names must appear
with its unit.  A non-finite value planted in a trace must fail the
operation even where ``run_monitor`` would pass it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import nsreg  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "B", "B-computed")


def run_bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, os.path.join(cwd, "nsbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
            cache[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_reported_with_its_unit(results, workload, trace):
    result = results(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
        assert entry["value"] == entry["value"]  # not NaN


def test_traced_counts_repeat_exactly(results):
    first = results("forced-n32-rk2", 1)["metrics"]
    proc = run_bench("forced-n32-rk2", 1)
    second = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert first["spectral.fft_calls_per_rhs"]["value"] == 5.5  # 5 per RHS + 1 CFL per step
    assert results("certify-n16", 1)["metrics"]["spectral.fft_transforms_per_rhs"]["value"] == 15


@pytest.mark.parametrize("column", ["h1_sq", "residual"])
@pytest.mark.parametrize("workload", NAMES)
def test_planted_non_finite_value_fails_the_operation(tmp_path, monkeypatch, workload, column):
    original = nsreg.NormTrace.to_csv
    index = workloads.TRACE_HEADER.split(",").index(column)

    def planted(self, path=None):
        lines = original(self).splitlines()
        row = lines[-1].split(",")
        row[index] = "nan"
        lines[-1] = ",".join(row)
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    monkeypatch.setattr(nsreg.NormTrace, "to_csv", planted)
    wl = workloads.Workload(workload, 0, str(tmp_path), smoke=True)
    wl.setup()
    ops, _, _ = wl.run_phase(0)
    assert ops and all(op.problems for op in ops)
    if column == "residual":  # a column run_monitor never reads
        assert all(any("non-finite" in p for p in op.problems) for op in ops)


def test_missing_kernel_module_is_reported_absent(tmp_path, monkeypatch):
    """Once nsreg._kernels is folded away, its metrics vanish instead of reading 0."""
    import spans

    monkeypatch.delitem(sys.modules, "nsreg._kernels")
    tracer = spans.Tracer()
    wl = workloads.Workload("simulate-n64", 0, str(tmp_path), smoke=True)
    wl.setup()
    with spans.instrumented(tracer) as absent, tracer.span("bench.op"):
        op = wl._guarded(wl.op, 0)
    assert not op.problems
    metrics = spans.layer_metrics(tracer.spans, absent)
    assert not any(name.startswith("kernels.") for name in metrics)
    assert metrics["spectral.fft_calls_per_rhs"] == 5
    assert metrics["solver.steps"] == 3


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "nsbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(NAMES[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
