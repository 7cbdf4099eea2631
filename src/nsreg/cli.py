"""Command-line front end.

Subcommands: ``simulate``, ``bounds``, ``compare``, ``calibrate``,
``monitor``.  Options can come from a ``key = value`` config file
(``--config``); command-line flags override the file, which overrides the
defaults.  Each command returns its exit code and its files; ``--out DIR``
writes them (``trace.csv`` / ``meta.json`` / ``report.json`` /
``compare.csv``) atomically plus an ``index.json`` that is always written
last, and without ``--out`` they go to stdout.

Exit codes: 0 success (a reported blowup is a success), 2 monitor
violation, 3 solver diagnostic failure or lost solver invariant,
64 usage/configuration error, 65 inconsistent norm inputs, a trace too
short or too coarse to check, or malformed JSON, 66 missing or unreadable
file, a run's meta.json included.
"""

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import astuple, fields
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bounds import (
    ComparisonRow,
    CriterionInput,
    CriterionReport,
    DEFAULT_C_INTERP,
    DEFAULT_C_SOBOLEV,
    arctan_bound_free,
    arctan_bound_steady,
    arctan_bound_timedep,
    derive_constants,
    interval_comparison,
)
from .calibrate import calibrate_constants
from .errors import (
    CoarseTraceError,
    ConfigurationError,
    GridMismatchError,
    InvariantViolationError,
    PoincareConsistencyError,
)
from .monitor import SOLVER_REL_TOL_CAP, run_monitor
from .solver import ForcingSpec, NormTrace, SolverConfig, kolmogorov_forcing, simulate
from .spectral import (
    SpectralVelocity,
    field_with_norms,
    make_wavegrid,
    poincare_constant,
    random_divfree_field,
    shear_field,
    sobolev_norm,
)

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_SOLVER_DIAGNOSTIC = 3
EXIT_USAGE = 64
EXIT_NORM_INCONSISTENT = 65
EXIT_NO_INPUT = 66


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_atomic(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite(raw):
    """argparse type of the float options: a finite number."""
    value = float(raw)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return value


def _load_json(path):
    """Parse a JSON file; a parse error names the file."""
    with open(path, errors="replace") as fh:  # undecodable bytes fail as malformed JSON
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _add_calibration_flags(p):
    p.add_argument("--c-sobolev", type=_finite, default=DEFAULT_C_SOBOLEV,
                   help="L6 embedding constant (default: pinned calibration)")
    p.add_argument("--c-interp", type=_finite, default=DEFAULT_C_INTERP,
                   help="L3 interpolation constant (default: pinned calibration)")


def _add_common(p):
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--out", help="output directory (default: print to stdout)")


def build_parser():
    parser = _Parser(prog="nsreg", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"nsreg {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("simulate", help="run a simulation and write its norm trace")
    _add_common(p)
    p.add_argument("--N", type=int, default=16, help="grid points per axis")
    p.add_argument("--L", type=_finite, default=2.0 * math.pi, help="domain period")
    p.add_argument("--nu", type=_finite, default=1.0)
    p.add_argument("--T", type=_finite, default=1.0, help="final time")
    p.add_argument("--dt", type=_finite, default=1e-3, help="time step")
    p.add_argument("--integrator", choices=("if_rk4", "if_rk2"), default="if_rk4")
    p.add_argument("--cfl", type=_finite, default=None,
                   help="optional CFL cap: dt <= cfl * dx / max|u|")
    p.add_argument("--init", choices=("shear", "zero", "random"), default="random")
    p.add_argument("--amplitude", type=_finite, default=1.0, help="initial L2 norm")
    p.add_argument("--slope", type=_finite, default=-2.0,
                   help="energy spectrum slope of random initial fields")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--forcing", choices=("zero", "kolmogorov"), default="zero")
    p.add_argument("--f-amp", type=_finite, default=1.0, help="forcing amplitude")
    p.add_argument("--blowup-ceiling", type=_finite, default=1e12,
                   help="h1_sq ceiling treated as numerical blowup")

    p = sub.add_parser("bounds", help="evaluate a regularity criterion from scalars")
    _add_common(p)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--free", action="store_true", help="force-free criterion")
    kind.add_argument("--steady", action="store_true", help="steady-force criterion")
    kind.add_argument("--timedep", action="store_true",
                      help="square-integrable-force criterion")
    p.add_argument("--l2", type=_finite, default=0.0, help="initial L2 norm")
    p.add_argument("--h1sq", type=_finite, default=0.0, help="initial squared H1 norm")
    p.add_argument("--T", type=float, default=math.inf, help="time window")
    p.add_argument("--f", type=_finite, default=None, help="steady force L2 norm")
    p.add_argument("--intf2", type=_finite, default=None,
                   help="time integral of the squared force norm")
    p.add_argument("--nu", type=_finite, default=1.0, help="kinematic viscosity")
    p.add_argument("--lam1", type=_finite, default=1.0,
                   help="smallest positive eigenvalue of the diffusion operator")
    _add_calibration_flags(p)

    p = sub.add_parser("compare", help="classical horizon vs global criterion sweep")
    _add_common(p)
    p.add_argument("--nu", type=_finite, default=1.0, help="kinematic viscosity")
    p.add_argument("--h1sq", type=_finite, default=1.0, help="fixed squared H1 norm")
    p.add_argument("--l2-sweep", default="1,0.1,0.01",
                   help="comma-separated initial L2 norms")
    p.add_argument("--t-star", type=float, default=None,
                   help="window for the printed square-root criterion form "
                        "(default: the classical horizon)")
    p.add_argument("--simulate", action="store_true",
                   help="attach a monitored simulation to each sweep point")
    p.add_argument("--N", type=int, default=16)
    p.add_argument("--L", type=_finite, default=2.0 * math.pi,
                   help="domain period; the ledger's lam1 is (2 pi / L)^2")
    p.add_argument("--T", type=_finite, default=1.0, help="simulation length")
    p.add_argument("--dt", type=_finite, default=2e-3)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("calibrate", help="empirical embedding-constant lower bounds")
    _add_common(p)
    p.add_argument("--N", type=int, default=16)
    p.add_argument("--L", type=_finite, default=2.0 * math.pi)
    p.add_argument("--ensemble", type=int, default=8, help="number of random fields")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slope", type=_finite, default=-2.0)
    p.add_argument("--oversample", type=int, default=4,
                   help="quadrature oversampling factor (>= 2)")
    _add_calibration_flags(p)

    p = sub.add_parser("monitor", help="verify inequality chain along a trace")
    _add_common(p)
    p.add_argument("--trace", help="trace.csv produced by simulate")
    p.add_argument("--meta", help="meta.json of the run, the source of nu and lam1 "
                                  "(default: next to trace)")
    p.add_argument("--report", help="criterion report.json for bound dominance")
    p.add_argument("--solver-rel-tol", type=_finite, default=None)
    _add_calibration_flags(p)

    return parser


def _coerce(action, raw, key):
    if isinstance(action.const, bool) or isinstance(action.default, bool):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"config key {key!r}: expected a boolean, got {raw!r}")
    if action.type is not None:
        try:
            action.type(raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"config key {key!r}: {exc}") from exc
    return raw


def _config_tokens(parser, command, path, user_argv):
    """Translate a config file into argv tokens placed before the user flags.

    argparse resolves repeated options last-one-wins, so command-line flags
    override the file.  Flags from a mutually exclusive group are skipped
    whenever the command line already picks a member of that group.
    """
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc

    user_tokens = set(user_argv)
    blocked = set()
    for group in sub._mutually_exclusive_groups:
        opts = set()
        for action in group._group_actions:
            opts.update(action.option_strings)
        if opts & user_tokens:
            blocked |= opts

    tokens = []
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in body.split("=", 1))
        dest = key.replace("-", "_")
        if dest == "config":
            continue
        action = next((a for a in sub._actions if a.dest == dest), None)
        if action is None:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        value = _coerce(action, raw, key)
        flag = action.option_strings[-1]
        if flag in blocked:
            continue
        if isinstance(value, bool):
            if value:
                tokens.append(flag)
        else:
            tokens.extend([flag, value])
    return tokens


def _parse(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        raise UsageError("a subcommand is required")
    if getattr(args, "config", None):
        idx = argv.index(args.command)
        tokens = _config_tokens(parser, args.command, args.config, argv[idx + 1:])
        args = parser.parse_args(argv[: idx + 1] + tokens + argv[idx + 1:])
    return args


def _initial_field(args, grid):
    if args.init == "shear":
        target = args.amplitude / sobolev_norm(shear_field(grid, 1.0), 0)
        return shear_field(grid, target)
    if args.init == "zero":
        n = grid.n
        return SpectralVelocity(grid, np.zeros((3, n, n, n), dtype=np.complex128))
    return random_divfree_field(grid, args.seed, args.slope, args.amplitude)


def cmd_simulate(args):
    if not args.out:
        raise UsageError("simulate requires --out for the trace files")
    grid = make_wavegrid(args.N, args.L)
    config = SolverConfig(nu=args.nu, dt=args.dt, t_end=args.T,
                          integrator=args.integrator, cfl=args.cfl,
                          blowup_h1_sq_ceiling=args.blowup_ceiling)
    u0 = _initial_field(args, grid)
    if args.forcing == "kolmogorov":
        forcing = kolmogorov_forcing(grid, args.f_amp)
    else:
        forcing = ForcingSpec.zero()
    result = simulate(u0, forcing, config)
    meta = {
        "command": "simulate",
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": result.wall_time_s,
        "threads": grid.workers,
        "termination": result.termination,
        "blowup_time": result.blowup_time,
        "blowup_reason": result.blowup_reason,
        "config": {
            "N": args.N, "L": args.L, "nu": args.nu, "T": args.T,
            "dt": args.dt, "integrator": args.integrator, "cfl": args.cfl,
            "blowup_ceiling": args.blowup_ceiling,
        },
        "init": {"kind": args.init, "amplitude": args.amplitude,
                 "slope": args.slope, "seed": args.seed},
        "forcing": {"kind": args.forcing, "amplitude": args.f_amp},
    }
    print(f"simulate: {result.termination} at t={result.trace.t[-1]:g} "
          f"({len(result.trace)} samples)")
    return EXIT_OK, {"trace.csv": result.trace.to_csv(), "meta.json": _json_text(meta)}


def cmd_bounds(args):
    ledger = derive_constants(args.nu, args.lam1, args.c_sobolev, args.c_interp)
    if not (args.free or args.steady or args.timedep):
        raise UsageError("choose one of --free, --steady, --timedep")
    inputs = CriterionInput(l2=args.l2, h1_sq=args.h1sq, f_l2=args.f, int_f_sq=args.intf2)
    if not args.T >= 0:  # also rejects NaN; --free takes no window but checks it too
        raise ConfigurationError(f"time window must be non-negative, got {args.T}")
    # the criteria raise for --steady without --f or an infinite --T, --timedep without --intf2
    if args.free:
        report = arctan_bound_free(inputs, ledger)
    elif args.steady:
        report = arctan_bound_steady(args.T, inputs, ledger)
    else:
        report = arctan_bound_timedep(args.T, inputs, ledger)

    payload = {"report": report.to_json_dict(), "ledger": ledger.to_json_dict()}
    return EXIT_OK, {"report.json": _json_text(payload)}


def _compare_csv(table, sims):
    cols = [f.name for f in fields(ComparisonRow)]
    if sims:
        cols += ["sim_status", "sim_monitor_passed", "sim_max_h1_sq"]
    lines = [",".join(cols)]
    for i, row in enumerate(table.rows):
        vals = [("%d" if isinstance(v, bool) else "%.17g") % v for v in astuple(row)]
        if sims:
            s = sims[i]
            vals += [s["status"],
                     "" if s.get("monitor_passed") is None else "%d" % s["monitor_passed"],
                     "" if s.get("max_h1_sq") is None else "%.17g" % s["max_h1_sq"]]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def cmd_compare(args):
    ledger = derive_constants(args.nu, poincare_constant(args.L))  # the grid's box
    try:
        sweep = [float(tok) for tok in args.l2_sweep.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --l2-sweep: {exc}") from exc
    if not sweep:
        raise UsageError("--l2-sweep must contain at least one value")
    table = interval_comparison(args.h1sq, sweep, ledger, t_star=args.t_star)

    sims = []
    soundness_violations = []
    if args.simulate:
        if args.seed < 0:  # else field_with_norms would report it as an infeasible member
            raise ConfigurationError(f"seed must be >= 0, got {args.seed}")
        grid = make_wavegrid(args.N, args.L)
        config = SolverConfig(nu=args.nu, dt=args.dt, t_end=args.T)
        for i, row in enumerate(table.rows):
            entry = {"l2": row.l2, "status": "skipped"}
            try:  # simulate refuses a field whose squared norms underflow
                u0 = field_with_norms(grid, args.seed + i, row.l2, row.h1_sq)
                result = simulate(u0, ForcingSpec.zero(), config)
            except ConfigurationError as exc:
                entry.update(status="infeasible_on_grid", detail=str(exc))
                sims.append(entry)
                continue
            report = None
            if row.criterion_satisfied:
                report = arctan_bound_free(
                    CriterionInput(l2=row.l2, h1_sq=row.h1_sq), ledger
                )
            # a run that blows up on its first step leaves a one-sample
            # trace, which the monitor cannot difference
            passed = (run_monitor(result.trace, ledger, report=report).passed
                      if len(result.trace) >= 2 else None)
            entry.update(
                status=result.termination,
                monitor_passed=passed,
                max_h1_sq=float(result.trace.h1_sq.max()),
            )
            if row.criterion_satisfied and result.termination == "blowup":
                soundness_violations.append(
                    {"l2": row.l2, "blowup_time": result.blowup_time}
                )
            sims.append(entry)

    payload = table.to_json_dict()
    payload["simulations"] = sims
    payload["soundness_violations"] = soundness_violations
    return EXIT_OK, {"compare.csv": _compare_csv(table, sims),
                     "report.json": _json_text(payload)}


def cmd_calibrate(args):
    grid = make_wavegrid(args.N, args.L)
    result = calibrate_constants(
        grid, args.ensemble, seed=args.seed,
        energy_spectrum_slope=args.slope, oversample=args.oversample,
        c_sobolev=args.c_sobolev, c_interp=args.c_interp,
    )
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK, {"report.json": _json_text(result.to_json_dict())}


def cmd_monitor(args):
    if not args.trace:
        raise UsageError("monitor requires --trace")
    open(args.trace).close()  # a missing trace is named before its meta.json
    meta_path = args.meta or os.path.join(os.path.dirname(args.trace), "meta.json")
    meta = _load_json(meta_path)
    try:  # the run's nu, and lam1 from its period
        nu = float(meta["config"]["nu"])
        lam1 = poincare_constant(float(meta["config"]["L"]))
    except (KeyError, TypeError, ValueError) as exc:  # ConfigurationError too
        raise ConfigurationError(f"{meta_path}: missing or bad config.nu or config.L: "
                                 f"{exc!r}") from exc
    trace = NormTrace.from_csv(args.trace, nu=nu)
    ledger = derive_constants(nu, lam1, args.c_sobolev, args.c_interp)
    report = None
    if args.report:
        report = CriterionReport.from_json_dict(_load_json(args.report))
    mon = run_monitor(trace, ledger, report=report, solver_rel_tol=args.solver_rel_tol)
    if mon.trace_too_coarse:
        raise CoarseTraceError(
            f"solver energy residual {mon.checks[0].max_violation:.3g} exceeds the "
            f"tolerance, which the trace's step and stiffness push past its cap "
            f"{SOLVER_REL_TOL_CAP:g}; rerun with a smaller dt")
    code = (EXIT_SOLVER_DIAGNOSTIC if mon.solver_diagnostic_failed
            else EXIT_OK if mon.passed else EXIT_VIOLATION)
    return code, {"report.json": _json_text(mon.to_json_dict())}


_COMMANDS = {
    "simulate": cmd_simulate,
    "bounds": cmd_bounds,
    "compare": cmd_compare,
    "calibrate": cmd_calibrate,
    "monitor": cmd_monitor,
}


def main(argv=None):
    """Run one command, write or print its files, and map failures to exit codes."""
    failures = (  # (exception type, exit code, message prefix); the first match wins
        (UsageError, EXIT_USAGE, "error"),
        (ConfigurationError, EXIT_USAGE, "configuration error"),
        (ArithmeticError, EXIT_USAGE, "value out of floating-point range"),
        (PoincareConsistencyError, EXIT_NORM_INCONSISTENT, "inconsistent norms"),
        (CoarseTraceError, EXIT_NORM_INCONSISTENT, "trace too coarse to diagnose"),
        (GridMismatchError, EXIT_NORM_INCONSISTENT, "inconsistent input"),
        (json.JSONDecodeError, EXIT_NORM_INCONSISTENT, "malformed JSON"),
        (InvariantViolationError, EXIT_SOLVER_DIAGNOSTIC, "solver invariant lost"),
        (OSError, EXIT_NO_INPUT, "cannot access file"),
    )
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        code, files = _COMMANDS[args.command](args)
        if args.out:
            index = {"command": args.command, "files": sorted(files)}
            for name, text in {**files, "index.json": _json_text(index)}.items():
                _write_atomic(os.path.join(args.out, name), text)
        else:
            sys.stdout.write("".join(files.values()))
        return code
    except SystemExit as exc:  # argparse --help/--version/errors
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except Exception as exc:
        for kind, code, prefix in failures:
            if isinstance(exc, kind):
                print(f"nsreg: {prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
