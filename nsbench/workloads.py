"""Workloads of the nsreg benchmark: inputs, operations and output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.  Operation ``i`` draws its initial
field from member seed 0 when ``i == 0`` (the reference operation, whose
final norms are compared with ``reference.json``) and from the run seed
otherwise, so a seed fixes every input.

An operation fails when a command exits non-zero, the run blows up, a
monitor check fails, a trace value is non-finite, or the reference
operation drifts from its recorded norms.  Finiteness is checked here on
the trace file itself, not left to ``run_monitor``.
"""

import contextlib
import io
import json
import math
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import nsreg
import nsreg.cli

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-9
SLOPE = -2.0
TRACE_HEADER = "t,l2_sq,h1_sq,h2_sq,f_dot_u,int_h1_sq,int_f_sq,residual"
COMPARE_SWEEP = "1,0.5,0.2,0.12,0.11,0.1,0.05,0.01"
COMPARE_THRESHOLD = (0.1108, 2e-4)  # expected threshold_l2 at h1_sq = 1, nu = 1
CALIBRATE_ENSEMBLE = 2
MIN_OPS = 3


@dataclass(frozen=True)
class Config:
    n: int
    nu: float
    dt: float
    steps: int
    integrator: str = "if_rk4"
    amplitude: float = 1.0          # initial L2 norm (simulate workloads)
    f_amp: Optional[float] = None   # Kolmogorov forcing amplitude
    cfl: Optional[float] = None
    lhs: Optional[float] = None     # certify: criterion lhs of every member
    oversample: int = 4             # certify: calibrate quadrature factor


CONFIGS = {
    "certify-n16": Config(n=16, nu=1.0, dt=2e-3, steps=100, lhs=1.4),
    "simulate-n64": Config(n=64, nu=0.1, dt=1e-3, steps=2),
    "forced-n32-rk2": Config(n=32, nu=1.0, dt=1e-3, steps=5, integrator="if_rk2",
                             amplitude=5.0, f_amp=5.0, cfl=0.5),
}
SMOKE_CONFIGS = {
    "certify-n16": Config(n=8, nu=1.0, dt=2e-3, steps=10, lhs=1.4, oversample=2),
    "simulate-n64": Config(n=8, nu=0.1, dt=1e-3, steps=3),
    "forced-n32-rk2": Config(n=8, nu=1.0, dt=1e-3, steps=4, integrator="if_rk2",
                             amplitude=5.0, f_amp=5.0, cfl=0.5),
}


def _untraced(name):
    return nullcontext()


def member_seed(seed, i):
    return REFERENCE_SEED if i == 0 else 100_000 * (seed + 1) + i


@dataclass
class OpResult:
    wall_s: float = math.nan
    sim_s: float = math.nan
    steps: int = 0
    problems: list = field(default_factory=list)
    bytes_written: int = 0
    final: Optional[dict] = None  # final l2_sq/h1_sq of the trace


def read_trace(path):
    """Load a trace file and check its header, shape and every value's finiteness.

    Returns ``(problems, data)``; ``data`` is the array of samples, or
    None when the file could not be loaded.
    """
    if not os.path.isfile(path):
        return [f"missing trace file {os.path.basename(path)}"], None
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            return [f"unexpected trace header {header!r}"], None
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[0] < 2 or data.shape[1] != len(TRACE_HEADER.split(",")):
        return [f"trace has shape {data.shape}"], None
    bad = ~np.isfinite(data)
    if bad.any():
        cols = sorted({TRACE_HEADER.split(",")[j] for j in np.nonzero(bad)[1]})
        return [f"non-finite trace values in {', '.join(cols)}"], data
    return [], data


def final_norms(data):
    return {"l2_sq": float(data[-1, 1]), "h1_sq": float(data[-1, 2])}


def reference_problems(reference, final):
    if reference is None:
        return ["no reference recorded for this workload"]
    problems = []
    for key in ("l2_sq", "h1_sq"):
        want, got = reference[key], final[key]
        if not abs(got - want) <= REFERENCE_RTOL * abs(want):
            problems.append(f"final {key} {got!r} differs from reference {want!r} "
                            f"by more than {REFERENCE_RTOL:g} relative")
    return problems


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return nsreg.cli.main([str(a) for a in argv])


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _tree_bytes(path, skip=("meta.json",)):
    """Bytes of the files under ``path``; meta.json holds a timestamp and a wall time."""
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files if f not in skip)
    return total


def _lhs_scale(u, ledger, target):
    """Factor s with lhs(s * u) = target for the force-free criterion (bisection)."""
    l2 = nsreg.sobolev_norm(u, 0)
    h1_sq = nsreg.sobolev_norm(u, 1) ** 2

    def lhs(s):
        return ledger.free_init_coeff * (s * l2) ** 2 + math.atan(s * s * h1_sq)

    lo, hi = 0.0, 1.0
    while lhs(hi) < target:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if lhs(mid) < target else (lo, mid)
    return lo, l2, h1_sq


class Workload:
    """One workload bound to a seed, a size and a scratch directory."""

    def __init__(self, name, seed, tmp, smoke=False):
        self.name = name
        self.seed = seed
        self.tmp = tmp
        self.smoke = smoke
        self.cfg = (SMOKE_CONFIGS if smoke else CONFIGS)[name]
        self.certify = self.cfg.lhs is not None
        refs = _read_json(os.path.join(HERE, "reference.json"))
        self.reference = refs.get(name + ("@smoke" if smoke else ""))
        self.ledger = nsreg.derive_constants(self.cfg.nu)

    def describe(self):
        return {"workload": self.name, "seed": self.seed, "smoke": self.smoke,
                **vars(self.cfg)}

    def setup(self):
        """Build grid, forcing and the first initial field; take one step.

        Returns the elapsed seconds.
        """
        cfg = self.cfg
        start = time.perf_counter()
        self.grid = nsreg.make_wavegrid(cfg.n)
        if cfg.f_amp is None:
            self.forcing = nsreg.ForcingSpec.zero()
        else:
            self.forcing = nsreg.kolmogorov_forcing(self.grid, cfg.f_amp)
        self.config = nsreg.SolverConfig(nu=cfg.nu, dt=cfg.dt, t_end=cfg.dt * cfg.steps,
                                         integrator=cfg.integrator, cfl=cfg.cfl)
        u0 = nsreg.random_divfree_field(self.grid, REFERENCE_SEED, SLOPE, cfg.amplitude)
        if self.certify:
            scale, _, _ = _lhs_scale(u0, self.ledger, cfg.lhs)
            u0 = u0.copy_with(u0.coefficients * scale)
        warm = nsreg.SolverConfig(nu=cfg.nu, dt=cfg.dt, t_end=cfg.dt,
                                  integrator=cfg.integrator, cfl=cfg.cfl)
        nsreg.simulate(u0, self.forcing, warm)
        self.u0 = u0
        return time.perf_counter() - start

    # -- one phase: closed loop of operations ---------------------------

    def run_phase(self, seconds, traced=None, interleave=()):
        """Operations until ``seconds`` have passed (at least MIN_OPS).

        ``traced(name)``, when given, is a context manager that installs the
        tracer around one span.  Each operation then runs twice on the same
        inputs, untraced and traced, in alternating order, so the pair
        shows the tracing overhead.  Returns ``(plain, traced_ops,
        problems)``; ``problems`` lists failures of the certify preamble
        (calibrate and compare), which runs first.

        ``interleave`` holds calls made between operations, spread evenly
        over the phase, so that they meet the same host load as the
        operations; their time counts within ``seconds``.
        """
        start = time.perf_counter()
        pending = list(interleave)
        problems = []
        if self.certify:
            with (traced or _untraced)("bench.preamble"):
                problems = self._guarded(self.preamble).problems
        plain, traced_ops = [], []
        while len(plain) < MIN_OPS or time.perf_counter() < start + seconds:
            done = len(interleave) - len(pending)
            if pending and time.perf_counter() - start >= (
                    seconds * (done + 1) / (len(interleave) + 1)):
                pending.pop(0)()
            i = len(plain)
            if traced is None:
                plain.append(self._guarded(self.op, i))
                continue
            for use_tracer in ((True, False) if i % 2 else (False, True)):
                if use_tracer:
                    with traced("bench.op"):
                        traced_ops.append(self._guarded(self.op, i))
                else:
                    plain.append(self._guarded(self.op, i))
        for call in pending:
            call()
        return plain, traced_ops, problems

    def _guarded(self, fn, *args):
        workdir = os.path.join(self.tmp, "op")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            return fn(workdir, *args)
        except Exception as exc:  # an operation that raises is a failed operation
            return OpResult(problems=[f"raised {type(exc).__name__}: {exc}"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def op(self, workdir, i):
        return (self._certify_member if self.certify else self._simulate)(workdir, i)

    # -- certify-n16 ----------------------------------------------------

    def preamble(self, workdir):
        cfg = self.cfg
        res = OpResult()
        cal, cmp_ = os.path.join(workdir, "cal"), os.path.join(workdir, "cmp")
        codes = {
            "calibrate": _cli(["calibrate", "--N", cfg.n, "--ensemble", CALIBRATE_ENSEMBLE,
                               "--seed", self.seed, "--oversample", cfg.oversample,
                               "--out", cal]),
            "compare": _cli(["compare", "--h1sq", 1, "--nu", cfg.nu,
                             "--l2-sweep", COMPARE_SWEEP, "--out", cmp_]),
        }
        res.problems += [f"nsreg {k} exited {c}" for k, c in codes.items() if c != 0]
        if res.problems:
            return res
        calib = _read_json(os.path.join(cal, "report.json"))
        bounds = calib["empirical_lower_bounds"]
        if not all(math.isfinite(v) and v > 0 for v in bounds.values()):
            res.problems.append(f"calibrate bounds not finite and positive: {bounds}")
        if calib["warnings"]:
            res.problems.append(f"calibrate warnings: {calib['warnings']}")
        table = _read_json(os.path.join(cmp_, "report.json"))
        want, tol = COMPARE_THRESHOLD
        if not abs(table["threshold_l2"] - want) <= tol:
            res.problems.append(f"compare threshold_l2 {table['threshold_l2']!r}, "
                                f"expected {want} +- {tol}")
        for row in table["rows"]:
            if row["criterion_satisfied"] != (row["l2"] < table["threshold_l2"]):
                res.problems.append(f"compare verdict wrong at l2={row['l2']}")
        return res

    def _certify_member(self, workdir, i):
        cfg = self.cfg
        seed = member_seed(self.seed, i)
        bdir, sdir, mdir = (os.path.join(workdir, d) for d in ("bounds", "sim", "mon"))
        trace = os.path.join(sdir, "trace.csv")
        res = OpResult()
        start = time.perf_counter()
        unit = nsreg.random_divfree_field(self.grid, seed, SLOPE, 1.0)
        scale, l2, h1_sq = _lhs_scale(unit, self.ledger, cfg.lhs)
        codes = {"bounds": _cli(["bounds", "--free", "--l2", repr(scale * l2),
                                 "--h1sq", repr(scale * scale * h1_sq),
                                 "--nu", cfg.nu, "--out", bdir])}
        sim_start = time.perf_counter()
        codes["simulate"] = _cli([
            "simulate", "--N", cfg.n, "--nu", cfg.nu, "--T", repr(cfg.dt * cfg.steps),
            "--dt", repr(cfg.dt), "--integrator", cfg.integrator, "--init", "random",
            "--seed", seed, "--slope", SLOPE, "--amplitude", repr(scale * l2),
            "--out", sdir])
        res.sim_s = time.perf_counter() - sim_start
        codes["monitor"] = _cli(["monitor", "--trace", trace,
                                 "--report", os.path.join(bdir, "report.json"),
                                 "--out", mdir])
        res.wall_s = time.perf_counter() - start

        res.problems += [f"nsreg {k} exited {c}" for k, c in codes.items() if c != 0]
        problems, data = read_trace(trace)
        res.problems += problems
        if res.problems:
            return res
        report = _read_json(os.path.join(bdir, "report.json"))["report"]
        if not (report["satisfied"] and abs(report["lhs"] - cfg.lhs) <= 1e-9):
            res.problems.append(f"criterion not certified at lhs {cfg.lhs}: {report}")
        meta = _read_json(os.path.join(sdir, "meta.json"))
        if meta["termination"] != "completed":
            res.problems.append(f"simulate ended in {meta['termination']}")
        mon = _read_json(os.path.join(mdir, "report.json"))
        if not mon["passed"]:
            res.problems.append(f"monitor failed: {mon['checks']}")
        if not any(c["name"].startswith("bound_dominance") for c in mon["checks"]):
            res.problems.append("monitor did not check bound dominance")
        res.final = final_norms(data)
        res.steps = data.shape[0] - 1
        res.bytes_written = _tree_bytes(workdir)
        if i == 0:
            res.problems += reference_problems(self.reference, res.final)
        return res

    # -- simulate-n64 and forced-n32-rk2 --------------------------------

    def _simulate(self, workdir, i):
        cfg = self.cfg
        path = os.path.join(workdir, "trace.csv")
        res = OpResult()
        start = time.perf_counter()
        u0 = nsreg.random_divfree_field(self.grid, member_seed(self.seed, i), SLOPE,
                                        cfg.amplitude)
        sim_start = time.perf_counter()
        result = nsreg.simulate(u0, self.forcing, self.config)
        res.sim_s = time.perf_counter() - sim_start
        result.trace.to_csv(path)
        back = nsreg.NormTrace.from_csv(path, nu=cfg.nu)
        mon = nsreg.run_monitor(back, self.ledger)
        res.wall_s = time.perf_counter() - start

        res.steps = len(result.trace) - 1
        if result.termination != "completed":
            res.problems.append(f"simulate ended in {result.termination}: "
                                f"{result.blowup_reason}")
        problems, data = read_trace(path)
        res.problems += problems
        if res.problems:
            return res
        for name in ("t", "l2_sq", "h1_sq", "h2_sq", "int_h1_sq"):
            if not np.array_equal(getattr(back, name), getattr(result.trace, name)):
                res.problems.append(f"trace column {name} changed in the CSV round trip")
        if not mon.passed:
            res.problems.append("monitor failed: " + ", ".join(
                f"{c.name} {c.max_violation:.3g} > {c.tolerance:.3g}" for c in mon.violations))
        if cfg.f_amp is None and not back.l2_sq[-1] <= back.l2_sq[0]:
            res.problems.append("energy grew in a force-free run")
        res.final = final_norms(data)
        if i == 0:
            res.problems += reference_problems(self.reference, res.final)
        return res

    # -- probes for the traced run --------------------------------------

    def probe(self):
        """Call the public spectral functions a few times on this workload's field.

        Not all of them are on the operation path, and the traced run
        reports a time for each.
        """
        u, grid = self.u0, self.grid
        for _ in range(3):
            nsreg.nonlinear_term(u)
            nsreg.leray_project(u)
            nsreg.sobolev_norm(u, 1)
            nsreg.to_physical(u)
            nsreg.random_divfree_field(grid, REFERENCE_SEED, SLOPE, self.cfg.amplitude)

    def certify_probe(self):
        """Run the smoke-size certify preamble and one member; return the checked results.

        Gives the cli, bounds and calibrate layers a value on a workload
        that does not drive them.  The values describe that 8^3 certify
        flow, not this workload.
        """
        cli = Workload("certify-n16", self.seed, self.tmp, smoke=True)
        cli.setup()
        return [cli._guarded(cli.preamble), cli._guarded(cli.op, 0)]
