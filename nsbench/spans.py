"""Spans at nsreg's layer boundaries, for the traced benchmark run.

:func:`instrumented` swaps wrappers in for the functions listed below and
puts the originals back on exit.  Each wrapper records one span per call:
name, start, end, parent span and an optional note taken from the call
(FFT sizes, steps of a run, samples of a trace).  Spans stay in memory;
:func:`layer_metrics` turns them into the per-layer metrics.

Wrapped:

- the FFT entry points ``fftn``/``ifftn``/``rfftn``/``irfftn`` of
  ``scipy.fft`` and ``numpy.fft``, wherever nsreg holds a reference;
- the ``nsreg._kernels`` attributes, which nsreg looks up at call time;
- the public functions the benchmark calls, wherever nsreg holds a
  reference (so ``nsreg.cli`` calling ``simulate`` is seen too);
- ``NormTrace.to_csv``/``from_csv`` and the stepper's ``rhs``.

A target that the installed nsreg lacks is skipped, and the metrics that
need it are reported as absent.
"""

import math
import sys
import time
from contextlib import contextmanager
from statistics import median

import numpy as np
import scipy.fft

FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn")
KERNEL_NAMES = ("convective_product", "leray_project_modes", "weighted_spectral_sum")
PUBLIC = (
    ("nsreg.solver", "simulate"),
    ("nsreg.monitor", "run_monitor"),
    ("nsreg.bounds", "arctan_bound_free"),
    ("nsreg.bounds", "interval_comparison"),
    ("nsreg.calibrate", "embedding_ratios"),
    ("nsreg.spectral", "random_divfree_field"),
    ("nsreg.spectral", "nonlinear_term"),
    ("nsreg.spectral", "leray_project"),
    ("nsreg.spectral", "sobolev_norm"),
    ("nsreg.spectral", "to_physical"),
)
CLI_COMMANDS = ("simulate", "monitor", "bounds", "compare", "calibrate")

# span names
SIMULATE = "solver.simulate"
RHS = "solver.rhs"
TO_CSV = "solver.trace_to_csv"
FROM_CSV = "solver.trace_from_csv"
MONITOR = "monitor.run_monitor"
EMBEDDING = "calibrate.embedding_ratios"
OP = "bench.op"


def _fft_note(kind):
    """Count transforms, points and computed bytes of one n-d FFT call."""

    def note(args, kwargs, out):
        x = args[0] if isinstance(args[0], np.ndarray) else np.asarray(args[0])
        full = x if kind == "rfftn" else out  # the array on the full grid
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        length = full.size if axes is None else math.prod(full.shape[a] for a in axes)
        return full.size // length, full.size, x.nbytes + out.nbytes

    return note


def _simulate_note(args, kwargs, out):
    return len(out.trace) - 1


def _monitor_note(args, kwargs, out):
    return len(args[0])


def _to_csv_note(args, kwargs, out):
    return len(out.encode())


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent, note]``."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1], None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def wrap(self, fn, name, note=None, nested=True):
        """Wrapper recording a span per call; ``name`` may be a function of args.

        With ``nested=False`` a call made while a span of the same name is
        open is not recorded (an FFT implemented through another one).
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            label = name(args) if callable(name) else name
            if not nested and parent >= 0 and spans[parent][0] == label:
                return fn(*args, **kwargs)
            rec = [label, clock(), 0.0, parent, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if note is not None:
                rec[4] = note(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper


def _cli_name(args):
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv and argv[0] in CLI_COMMANDS else "cli.other"


@contextmanager
def instrumented(tracer):
    """Install the wrappers for the duration of the block; yields absent targets."""
    nsreg_modules = [m for name, m in list(sys.modules.items())
                     if m is not None and (name == "nsreg" or name.startswith("nsreg."))]
    wrappers = {}  # id(original) -> (original, wrapper)
    absent = []

    def add(orig, name, note=None, nested=True):
        if id(orig) not in wrappers:
            wrappers[id(orig)] = (orig, tracer.wrap(orig, name, note, nested))

    for name in FFT_NAMES:
        for mod in (scipy.fft, np.fft):
            orig = getattr(mod, name, None)
            if orig is not None:
                add(orig, "fft", _fft_note(name), nested=False)
    kernels = sys.modules.get("nsreg._kernels")
    for name in KERNEL_NAMES:
        orig = getattr(kernels, name, None)
        if orig is None:
            absent.append(f"nsreg._kernels.{name}")
        else:
            add(orig, f"kernels.{name}")
    notes = {"simulate": _simulate_note, "run_monitor": _monitor_note}
    for modname, attr in PUBLIC:
        orig = getattr(sys.modules.get(modname), attr, None)
        if orig is None:
            absent.append(f"{modname}.{attr}")
        else:
            short = modname.split(".")[-1]
            add(orig, f"{short}.{attr}", notes.get(attr))
    cli = sys.modules.get("nsreg.cli")
    if getattr(cli, "main", None) is not None:
        add(cli.main, _cli_name)

    undo = []
    for mod in nsreg_modules + [scipy.fft, np.fft]:
        for key, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])
                undo.append((mod, key, value))

    solver = sys.modules.get("nsreg.solver")
    methods = (("NormTrace", "to_csv", TO_CSV, _to_csv_note),
               ("NormTrace", "from_csv", FROM_CSV, None),
               ("_Stepper", "rhs", RHS, None))
    for cls_name, meth, name, note in methods:
        cls = getattr(solver, cls_name, None)
        raw = vars(cls).get(meth) if cls is not None else None
        if raw is None:
            absent.append(f"nsreg.solver.{cls_name}.{meth}")
            continue
        if isinstance(raw, classmethod):
            new = classmethod(tracer.wrap(raw.__func__, name, note))
        else:
            new = tracer.wrap(raw, name, note)
        setattr(cls, meth, new)
        undo.append((cls, meth, raw))
    try:
        yield absent
    finally:
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)


def _ms_median(durations):
    return 1e3 * median(durations) if durations else None


def layer_metrics(spans, absent=()):
    """Per-layer metrics from the spans of one traced phase.

    Ratios per RHS and per step cover every ``simulate`` call inside a
    benchmark operation; per-call times are medians over all spans of a
    name; per-operation counts come from the first operation, whose inputs
    are fixed, so they repeat exactly.  Returns ``{name: value}`` without
    the metrics whose targets are absent.
    """
    n = len(spans)
    sim_of = [-1] * n    # enclosing simulate span inside an op
    op_of = [-1] * n     # enclosing benchmark operation
    child_time = [0.0] * n
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            sim_of[i] = sim_of[parent]
            op_of[i] = op_of[parent]
            child_time[parent] += end - start
        if name == OP:
            op_of[i] = i
        elif name == SIMULATE and op_of[i] >= 0:
            sim_of[i] = i
    first_op = next((i for i in range(n) if spans[i][0] == OP), -1)

    durations = {}
    steps = rhs = 0
    sim_time = fft_time = 0.0
    fft_calls = fft_transforms = fft_points = fft_bytes = 0
    kernel_time = {name: 0.0 for name in KERNEL_NAMES}
    kernel_calls = 0
    first = {}       # span name -> note of its first span in the first op
    embed_points = {}  # embedding_ratios span -> FFT points under it
    for i, (name, start, end, parent, note) in enumerate(spans):
        dur = end - start
        durations.setdefault(name, []).append(dur)
        if op_of[i] == first_op and first_op >= 0 and name not in first:
            first[name] = note
        if name == "fft" and parent >= 0 and spans[parent][0] == EMBEDDING:
            embed_points[parent] = embed_points.get(parent, 0) + note[1]
        if sim_of[i] < 0:
            continue
        if name == SIMULATE:
            steps += note
            sim_time += dur
        elif name == RHS:
            rhs += 1
        elif name == "fft":
            fft_calls += 1
            fft_time += dur
            fft_transforms += note[0]
            fft_points += note[1]
            fft_bytes += note[2]
        elif name.startswith("kernels."):
            kernel_calls += 1
            kernel_time[name[len("kernels."):]] += dur

    m = {}
    if rhs:
        m["spectral.fft_calls_per_rhs"] = fft_calls / rhs
        m["spectral.fft_transforms_per_rhs"] = fft_transforms / rhs
        m["spectral.fft_points_per_rhs"] = fft_points / rhs
        m["spectral.fft_bytes_per_rhs"] = fft_bytes / rhs
        m["spectral.fft_ms_per_rhs"] = 1e3 * fft_time / rhs
    for short in ("nonlinear_term", "leray_project", "sobolev_norm", "to_physical",
                  "random_divfree_field"):
        value = _ms_median(durations.get(f"spectral.{short}"))
        if value is not None:
            m[f"spectral.{short}_ms"] = value
    if steps:
        for short in KERNEL_NAMES:
            if f"nsreg._kernels.{short}" not in absent:
                m[f"kernels.{short}_ms"] = 1e3 * kernel_time[short] / steps
        if not any(a.startswith("nsreg._kernels.") for a in absent):
            m["kernels.calls_per_step"] = kernel_calls / steps
        if rhs:
            m["solver.rhs_evals_per_step"] = rhs / steps
        kernel_total = sum(kernel_time.values())
        m["solver.self_ms_per_step"] = 1e3 * (sim_time - fft_time - kernel_total) / steps
    if first.get(SIMULATE) is not None:
        m["solver.steps"] = first[SIMULATE]
    for key, name in (("solver.trace_to_csv_ms", TO_CSV),
                      ("solver.trace_from_csv_ms", FROM_CSV),
                      ("monitor.run_monitor_ms", MONITOR),
                      ("bounds.arctan_bound_free_ms", "bounds.arctan_bound_free"),
                      ("bounds.interval_comparison_ms", "bounds.interval_comparison"),
                      ("calibrate.embedding_ratios_ms", EMBEDDING),
                      ("cli.bounds_ms", "cli.bounds"),
                      ("cli.compare_ms", "cli.compare"),
                      ("cli.calibrate_ms", "cli.calibrate")):
        value = _ms_median(durations.get(name))
        if value is not None:
            m[key] = value
    if first.get(TO_CSV) is not None:
        m["solver.trace_csv_bytes"] = first[TO_CSV]
    if first.get(MONITOR) is not None:
        m["monitor.samples"] = first[MONITOR]
    if embed_points:
        m["calibrate.fft_points"] = embed_points[min(embed_points)]
    for key, name in (("cli.simulate_self_ms", "cli.simulate"),
                      ("cli.monitor_self_ms", "cli.monitor")):
        value = _ms_median([s[2] - s[1] - child_time[i]
                            for i, s in enumerate(spans) if s[0] == name])
        if value is not None:
            m[key] = value
    return m
