#!/usr/bin/env python3
"""Benchmark of nsreg: one workload per invocation, closed loop, one client.

Run from the repository root:

    python3 nsbench/run.py --workload certify-n16 --seed 0 --seconds 40 --trace 0
    python3 nsbench/run.py --workload all

BENCHMARK.json lists the workloads and metrics with their units;
nsbench/layer_map.json says which end-to-end metric each per-layer metric
should move, on which workload.  ``--trace 0`` measures the end-to-end
metrics with tracing off.  ``setup_s`` is the median of cold set-ups,
each in a fresh interpreter, made between operations; ``wall_s`` and
``ms_per_step`` are the best of the run's operations, because on a shared
host other tenants only ever slow a run down (the median and quartiles
are printed beside them).  ``--trace 1`` runs each operation twice on the
same inputs, untraced and traced (see spans.py), and prints the per-layer
metrics, including ``trace.overhead_ratio``.
``--smoke`` shrinks every grid to 8^3 for the self-test
(``python3 -m pytest nsbench``).

nsreg is imported from ``src/`` beside this directory, never from an
installed copy.  Thread variables (OMP_NUM_THREADS and the like) default to
1 and are capped at the usable core count before numpy loads.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every
operation passed its checks, 1 when one failed, 2 when the source tree is
missing.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify-n16", "simulate-n64", "forced-n32-rk2")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 9
CERTIFY_PROBED = ("cli.", "bounds.", "calibrate.")
# One cold set-up in a fresh interpreter: import nsreg (with numpy and
# scipy), build the workload's grid and fields, take one warm-up step.
SETUP_PROBE = ("import sys, time; start = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
               "import workloads; "
               "wl = workloads.Workload(sys.argv[3], int(sys.argv[4]), sys.argv[5], "
               "smoke=sys.argv[6] == '1'); wl.setup(); "
               "print(time.perf_counter() - start)")


def parse_args(argv):
    def non_negative(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    def positive(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("must be > 0")
        return value

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=non_negative, default=0)
    ap.add_argument("--seconds", type=positive, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="8^3 grids (self-test)")
    return ap.parse_args(argv)


def cap_threads(nproc):
    for var in THREAD_VARS:
        raw = os.environ.get(var, "")
        value = int(raw) if raw.isdigit() and int(raw) > 0 else 1
        os.environ[var] = str(min(value, nproc))


def git_commit():
    """Commit of the checkout from .git, or None outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the package sources, which identifies a non-git checkout."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "nsreg")
    for dirpath, dirnames, files in sorted(os.walk(pkg)):
        dirnames.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(nproc):
    import numpy
    import scipy
    import scipy.fft

    try:
        from nsreg import _kernels
        backend = _kernels.backend_name() if hasattr(_kernels, "backend_name") else "absent"
    except ImportError:
        backend = "absent"
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": backend,
        "scipy_fft_workers": scipy.fft.get_workers(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def cold_setup(args, tmp, times):
    """Time one cold set-up in a fresh interpreter and append it to ``times``."""
    argv = [sys.executable, "-c", SETUP_PROBE, os.path.join(ROOT, "src"), HERE,
            args.workload, str(args.seed), tmp, "1" if args.smoke else "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
    times.append(float(proc.stdout))


def spread(values):
    if len(values) < 2:
        return ""
    q1, _, q3 = quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def run_workload(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench_spec = json.load(fh)
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import nsreg
    import_s = time.perf_counter() - start
    if not os.path.abspath(nsreg.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"nsbench: imported nsreg from {nsreg.__file__}, not from src/",
              file=sys.stderr)
        return 2

    import spans
    import workloads

    print("env " + json.dumps(environment(nproc), sort_keys=True))
    tmp = tempfile.mkdtemp(prefix=".nsbench-", dir=ROOT)
    notes = []
    try:
        wl = workloads.Workload(args.workload, args.seed, tmp, smoke=args.smoke)
        print("workload " + json.dumps(wl.describe(), sort_keys=True))
        warm_setup_s = wl.setup()
        if args.trace:
            tracer = spans.Tracer()
            absent = []

            @contextmanager
            def traced(name):
                with spans.instrumented(tracer) as missing, tracer.span(name):
                    absent[:] = missing
                    yield

            ops, traced_ops, problems = wl.run_phase(args.seconds, traced)
            with traced("bench.probe"):
                wl.probe()
            values = spans.layer_metrics(tracer.spans, absent)
            ratios = [t.wall_s / p.wall_s for p, t in zip(ops, traced_ops)
                      if not (p.problems or t.problems)]
            if ratios:
                values["trace.overhead_ratio"] = median(ratios) - 1
            probes = []
            if wl.certify:
                member = traced_ops[0]
            else:
                # This workload does not drive the command line: the cli,
                # bounds and calibrate layers are measured on the smoke-size
                # certify flow, traced apart so its spans stay out of the
                # workload's own metrics.
                cli_tracer = spans.Tracer()
                with spans.instrumented(cli_tracer), cli_tracer.span("bench.probe"):
                    probes = wl.certify_probe()
                member = probes[-1]
                cli_values = spans.layer_metrics(cli_tracer.spans)
                probed = sorted(k for k in cli_values
                                if k.startswith(CERTIFY_PROBED) and k not in values)
                values.update((k, cli_values[k]) for k in probed)
                notes.append("from the 8^3 certify probe, not this workload: "
                             + ", ".join(probed + ["cli.bytes_written"]))
            if member.bytes_written:
                values["cli.bytes_written"] = member.bytes_written
            notes.append(f"trace: {len(tracer.spans)} spans; traced/untraced wall of "
                         f"paired ops [{spread(ratios)}]")
            if absent:
                notes.append("absent targets: " + ", ".join(absent))
            preambles = [problems] if wl.certify else []
            all_ops = ops + traced_ops + probes
        else:
            setups = []
            ops, _, problems = wl.run_phase(
                args.seconds, interleave=[lambda: cold_setup(args, tmp, setups)] * SETUP_REPS)
            good = [op for op in ops if not op.problems]
            walls = [op.wall_s for op in good]
            per_step = [1e3 * op.sim_s / op.steps for op in good if op.steps]
            values = {"setup_s": median(setups),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            if walls:
                values["wall_s"] = min(walls)
            if per_step:
                values["ms_per_step"] = min(per_step)
            notes.append(f"setup_s is the median of {SETUP_REPS} cold set-ups (import, grid "
                         f"and fields, one warm-up step), each in a fresh interpreter "
                         f"between operations [{spread(setups)}]; this process imported "
                         f"in {import_s:.4f} s and set up in {warm_setup_s:.4f} s")
            if walls and per_step:
                notes.append(f"wall_s is the best of the operations, median "
                             f"{median(walls):.6g} [{spread(walls)}]; ms_per_step best, "
                             f"median {median(per_step):.6g} [{spread(per_step)}]")
            preambles = [problems] if wl.certify else []
            all_ops = ops
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = [p for p in preambles if p] + [op.problems for op in all_ops if op.problems]
    attempted = len(preambles) + len(all_ops)
    if ops and ops[0].final is not None:
        notes.append(f"reference op final norms {json.dumps(ops[0].final)}")

    section = "per_layer" if args.trace else "end_to_end"
    metrics, missing = {}, []
    for spec in bench_spec[section]:
        name = spec["name"]
        if values.get(name) is None:
            missing.append(name)
            continue
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        print(f"{name:<36} {values[name]:>14.6g} {spec['unit']}")
    print(f"{'failed_ratio':<36} {len(failures) / attempted:>14.6g} "
          f"({len(failures)} of {attempted} operations)")
    for note in notes:
        print(note)
    for problems in failures:
        print("FAILED: " + "; ".join(problems))
    if missing:
        print("absent metrics: " + ", ".join(missing))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nsreg", "__init__.py")):
        print(f"nsbench: no nsreg source tree at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
