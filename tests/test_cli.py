"""End-to-end tests of the command-line interface and its wire formats."""

import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsreg.cli
from nsreg.cli import (
    EXIT_NO_INPUT,
    EXIT_NORM_INCONSISTENT,
    EXIT_OK,
    EXIT_SOLVER_DIAGNOSTIC,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)
from nsreg.errors import InvariantViolationError


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def with_box_meta(trace_path):
    """Write next to a hand-made trace the meta.json of a run on the default box."""
    (trace_path.parent / "meta.json").write_text(
        json.dumps({"config": {"nu": 1.0, "L": 2.0 * math.pi}}))
    return trace_path


# ----------------------------------------------------------------- simulate

def test_simulate_shear_energy_ratio(tmp_path):
    out = tmp_path / "run"
    code = run(["simulate", "--init", "shear", "--nu", "1", "--T", "1",
                "--N", "16", "--dt", "1e-3", "--out", out])
    assert code == EXIT_OK
    data = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    ratio = data[-1, 1] / data[0, 1]
    assert ratio == pytest.approx(math.exp(-2.0), rel=1e-6)
    meta = read_json(out / "meta.json")
    assert meta["termination"] == "completed"
    index = read_json(out / "index.json")
    assert set(index["files"]) == {"trace.csv", "meta.json"}


def test_simulate_zero_trace(tmp_path):
    out = tmp_path / "run"
    assert run(["simulate", "--init", "zero", "--T", "0.05", "--dt", "1e-2",
                "--N", "8", "--out", out]) == EXIT_OK
    data = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    assert np.abs(data[:, 1:5]).max() == 0.0


def test_monitor_refuses_a_trace_that_decays_to_subnormal_norms(tmp_path, capsys):
    # the run is fine and exits 0; its norms fall below the smallest normal
    # float near t = 3.06, where they keep too few bits for any check
    out = tmp_path / "run"
    assert run(["simulate", "--init", "random", "--amplitude", "1e-153", "--N", "8",
                "--T", "4", "--dt", "1e-2", "--out", out]) == EXIT_OK
    data = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    first = int(np.flatnonzero(data[:, 1] < sys.float_info.min)[0])
    assert 0.0 < data[-1, 1] < sys.float_info.min
    capsys.readouterr()
    assert run(["monitor", "--trace", out / "trace.csv"]) == EXIT_NORM_INCONSISTENT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"nsreg: inconsistent input: trace sample {first} at "
                             f"t = {data[first, 0]:g} has l2_sq = ")


def test_compare_refuses_a_member_whose_trace_decays_to_subnormal_norms(capsys):
    # its monitor used to pass it: sim_monitor_passed 1
    assert run(["compare", "--h1sq", "1e-307", "--l2-sweep", "3e-154", "--simulate",
                "--N", "8", "--T", "1", "--dt", "1e-2"]) == EXIT_NORM_INCONSISTENT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("nsreg: inconsistent input: trace sample 70 ")


def test_monitor_passes_the_zero_trace(tmp_path):
    out = tmp_path / "run"
    assert run(["simulate", "--init", "zero", "--T", "0.05", "--dt", "1e-2",
                "--N", "8", "--out", out]) == EXIT_OK
    assert run(["monitor", "--trace", out / "trace.csv", "--out", tmp_path / "mon"]) == EXIT_OK
    assert read_json(tmp_path / "mon" / "report.json")["passed"] is True


@pytest.mark.parametrize("n,threads", [(8, 1), (32, 1), (64, len(os.sched_getaffinity(0)))])
def test_simulate_records_its_thread_count(tmp_path, n, threads):
    out = tmp_path / "run"
    assert run(["simulate", "--N", n, "--T", "1e-3", "--dt", "1e-3", "--out", out]) == EXIT_OK
    assert read_json(out / "meta.json")["threads"] == threads


def test_simulate_deterministic_output(tmp_path):
    args = ["simulate", "--init", "random", "--seed", "7", "--N", "8",
            "--T", "0.05", "--dt", "5e-3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", out1]) == EXIT_OK
    assert run(args + ["--out", out2]) == EXIT_OK
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "index.json").read_bytes() == (out2 / "index.json").read_bytes()


def test_simulate_kolmogorov_rk2_cfl_reruns_identically(tmp_path):
    args = ["simulate", "--forcing", "kolmogorov", "--f-amp", "2", "--integrator", "if_rk2",
            "--cfl", "0.5", "--N", "16", "--T", "0.1", "--dt", "1e-3", "--amplitude", "0.5"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", out1]) == EXIT_OK
    assert run(args + ["--out", out2]) == EXIT_OK
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert run(["monitor", "--trace", out1 / "trace.csv"]) == EXIT_OK


def test_simulate_usage_errors(tmp_path):
    assert run(["simulate", "--N", "15", "--out", tmp_path / "x"]) == EXIT_USAGE
    assert run(["simulate", "--nu", "-1", "--out", tmp_path / "y"]) == EXIT_USAGE
    assert run(["simulate"]) == EXIT_USAGE  # --out is required


def test_simulate_infinite_final_time_is_usage_error(tmp_path):
    out = tmp_path / "inf"
    assert run(["simulate", "--T", "inf", "--N", "8", "--out", out]) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("ceiling", ["0", "-1"])
def test_simulate_non_positive_blowup_ceiling_is_usage_error(tmp_path, ceiling):
    out = tmp_path / "ceiling"
    assert run(["simulate", "--N", "8", "--T", "0.01", "--dt", "1e-3",
                "--blowup-ceiling", ceiling, "--out", out]) == EXIT_USAGE
    assert not out.exists()


def _rejected_as_usage_error(argv, out, capsys):
    """Run argv; require exit 64, one ``nsreg:`` stderr line and no files."""
    capsys.readouterr()
    assert run(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("nsreg: configuration error:")
    assert not out.exists()
    return err[0]


@pytest.mark.parametrize("argv", [
    ["simulate", "--N", "8", "--T", "0.01", "--dt", "1e-3"],
    ["calibrate", "--N", "8", "--ensemble", "1"],
    ["compare", "--h1sq", "1", "--l2-sweep", "0.5", "--simulate", "--N", "8", "--T", "0.01",
     "--dt", "1e-3"],
])
def test_negative_seed_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "seed"
    line = _rejected_as_usage_error(argv + ["--seed", "-1", "--out", out], out, capsys)
    assert "seed" in line


@pytest.mark.parametrize("length", ["1e-300", "1e-160", "1e-100", "1e300"])
def test_simulate_overflowing_period_is_usage_error(tmp_path, capsys, length):
    out = tmp_path / "period"
    line = _rejected_as_usage_error(["simulate", "--N", "8", "--T", "0.01", "--dt", "1e-3",
                                     "--L", length, "--out", out], out, capsys)
    assert "domain period" in line


def test_simulate_default_period_given_explicitly(tmp_path):
    out = tmp_path / "period"
    assert run(["simulate", "--N", "8", "--T", "0.01", "--dt", "1e-3",
                "--L", repr(2.0 * math.pi), "--out", out]) == EXIT_OK
    assert (out / "trace.csv").exists()


@pytest.mark.parametrize("slope", ["1e308", "3000"])
def test_simulate_slope_with_non_finite_field_is_usage_error(tmp_path, capsys, slope):
    out = tmp_path / "slope"
    line = _rejected_as_usage_error(["simulate", "--N", "8", "--T", "0.01", "--dt", "1e-3",
                                     "--slope", slope, "--out", out], out, capsys)
    assert "slope" in line


@pytest.mark.parametrize("init", ["random", "shear", "zero"])
def test_simulate_negative_amplitude_is_usage_error(tmp_path, capsys, init):
    # the amplitude is the initial L2 norm, for every init
    out = tmp_path / init
    line = _rejected_as_usage_error(["simulate", "--init", init, "--amplitude", "-1", "--N", "8",
                                     "--T", "0.01", "--dt", "1e-3", "--out", out], out, capsys)
    assert line == "nsreg: configuration error: amplitude must be finite and >= 0, got -1.0"


def test_simulate_tiny_amplitudes_exit_cleanly(tmp_path, capsys):
    # a field whose coefficients would be subnormal, or whose squared norms
    # would, is refused, never a traceback and never a trace of zeros
    codes = {}
    for k in [150, 200, *range(300, 325)]:
        capsys.readouterr()
        codes[k] = run(["simulate", "--init", "random", "--amplitude", f"1e-{k}", "--N", "8",
                        "--T", "0.01", "--dt", "1e-3", "--out", tmp_path / f"tiny{k}"])
        err = capsys.readouterr().err.splitlines()
        if codes[k] != EXIT_OK:
            assert codes[k] == EXIT_USAGE and len(err) == 1
            assert err[0].startswith(("nsreg: configuration error: amplitude ",
                                      "nsreg: configuration error: initial field has "
                                      "underflowing squared norms: "))
    assert codes[150] == EXIT_OK
    assert codes[200] == codes[300] == codes[320] == EXIT_USAGE


def test_simulate_blowup_exits_zero(tmp_path):
    out = tmp_path / "boom"
    code = run(["simulate", "--init", "random", "--amplitude", "100",
                "--nu", "1e-6", "--N", "8", "--dt", "0.1", "--T", "5",
                "--blowup-ceiling", "1e6", "--out", out])
    assert code == EXIT_OK
    meta = read_json(out / "meta.json")
    assert meta["termination"] in ("completed", "blowup")


# ------------------------------------------------------------------- bounds

def test_bounds_free_trivial(tmp_path, capsys):
    assert run(["bounds", "--free", "--l2", "0", "--h1sq", "1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    rep = payload["report"]
    assert rep["satisfied"] is True
    assert rep["kind"] == "arctan_free"
    assert rep["lhs"] == pytest.approx(math.atan(1.0))
    assert rep["bound_at"][0]["value"] == pytest.approx(1.0, rel=1e-12)


def test_bounds_steady_example(tmp_path):
    out = tmp_path / "b"
    code = run(["bounds", "--steady", "--T", "1", "--f", "0.01",
                "--l2", "0.05", "--h1sq", "1", "--out", out])
    assert code == EXIT_OK
    rep = read_json(out / "report.json")["report"]
    assert rep["lhs"] == pytest.approx(0.9518481633974483, rel=1e-12)
    assert rep["satisfied"] is True
    assert rep["horizon"] == 1.0


def test_bounds_timedep_zero_integral_equals_free(capsys):
    assert run(["bounds", "--timedep", "--intf2", "0", "--l2", "0.05",
                "--h1sq", "0.5"]) == EXIT_OK
    timedep = json.loads(capsys.readouterr().out)["report"]
    assert run(["bounds", "--free", "--l2", "0.05", "--h1sq", "0.5"]) == EXIT_OK
    free = json.loads(capsys.readouterr().out)["report"]
    for key in ("lhs", "satisfied", "margin"):
        assert timedep[key] == free[key]
    assert [p["value"] for p in timedep["bound_at"]] == [
        p["value"] for p in free["bound_at"]
    ]


def test_bounds_poincare_violation_exit_code():
    assert run(["bounds", "--free", "--l2", "2", "--h1sq", "1"]) == EXIT_NORM_INCONSISTENT


def test_bounds_requires_kind():
    assert run(["bounds", "--l2", "0", "--h1sq", "1"]) == EXIT_USAGE


@pytest.mark.parametrize("kind", [["--steady"], ["--steady", "--f", "1"], ["--timedep"]])
def test_bounds_missing_force_data_is_usage_error(kind):
    # --steady needs --f and a finite --T; --timedep needs --intf2
    assert run(["bounds", *kind, "--l2", "0", "--h1sq", "1"]) == EXIT_USAGE


@pytest.mark.parametrize("kind", [["--free"], ["--steady", "--f", "0.01"],
                                  ["--timedep", "--intf2", "0.001"]])
@pytest.mark.parametrize("window", ["nan", "-1", "-inf"])
def test_bounds_nan_or_negative_window_is_usage_error(kind, window, capsys):
    assert run(["bounds", *kind, "--l2", "0.05", "--h1sq", "1", "--T", window]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


# ------------------------------------------------------------------ compare

def test_compare_sweep_and_threshold(tmp_path):
    out = tmp_path / "cmp"
    code = run(["compare", "--h1sq", "1", "--l2-sweep", "1,0.1,0.01",
                "--nu", "1", "--out", out])
    assert code == EXIT_OK
    payload = read_json(out / "report.json")
    assert payload["threshold_l2"] == pytest.approx(0.11077836568159475, rel=1e-9)
    sat = [r["criterion_satisfied"] for r in payload["rows"]]
    assert sat == [False, True, True]
    flags = [r["extends_classical"] for r in payload["rows"]]
    assert flags == [False, True, True]
    table = (out / "compare.csv").read_text().splitlines()
    assert table[0].startswith("l2,h1_sq,classical_horizon")
    assert len(table) == 4


def test_compare_with_attached_simulations(tmp_path):
    out = tmp_path / "cmpsim"
    code = run(["compare", "--h1sq", "1", "--l2-sweep", "0.5,0.135",
                "--simulate", "--N", "16", "--T", "0.5", "--dt", "2e-3",
                "--out", out])
    assert code == EXIT_OK
    payload = read_json(out / "report.json")
    assert payload["soundness_violations"] == []
    sims = payload["simulations"]
    assert len(sims) == 2
    assert all(s["status"] in ("completed", "blowup", "infeasible_on_grid")
               for s in sims)
    # the headline property: no certified point may blow up before T
    for row, sim in zip(payload["rows"], sims):
        if row["criterion_satisfied"] and sim["status"] == "blowup":
            pytest.fail("certified sweep point blew up")


def test_compare_keeps_the_sweep_when_a_member_blows_up_on_its_first_step(tmp_path):
    out = tmp_path / "cmp"
    code = run(["compare", "--h1sq", "2e12", "--l2-sweep", "2e5", "--simulate",
                "--N", "16", "--T", "0.01", "--dt", "2e-3", "--out", out])
    assert code == EXIT_OK
    (sim,) = read_json(out / "report.json")["simulations"]
    assert sim["status"] == "blowup"
    assert sim["monitor_passed"] is None  # a one-sample trace is not monitored
    assert (out / "compare.csv").read_text().splitlines()[1].split(",")[-3:-1] == ["blowup", ""]


def test_compare_records_a_certified_member_blowing_up_at_once(tmp_path, monkeypatch):
    def first_step_blowup(u0, forcing, config):
        one = np.array([0.0])
        trace = nsreg.NormTrace(t=one, l2_sq=one + 0.01, h1_sq=one + 1.0, h2_sq=one + 1.0,
                                f_dot_u=one, int_h1_sq=one, int_f_sq=one,
                                nu=config.nu)
        return nsreg.SimulationResult(trace=trace, final_state=u0, termination="blowup",
                                      blowup_time=0.0, blowup_reason="planted",
                                      wall_time_s=0.0)

    monkeypatch.setattr(nsreg.cli, "simulate", first_step_blowup)
    out = tmp_path / "cmp"
    code = run(["compare", "--h1sq", "0.01", "--l2-sweep", "0.05", "--simulate",
                "--N", "8", "--out", out])
    assert code == EXIT_OK
    payload = read_json(out / "report.json")
    assert payload["rows"][0]["criterion_satisfied"]
    assert payload["simulations"][0]["status"] == "blowup"
    assert payload["soundness_violations"] == [{"l2": 0.05, "blowup_time": 0.0}]


def test_compare_records_a_coarse_member_as_not_passed(tmp_path):
    # a trace monitor calls too coarse has no verdict: sim_monitor_passed is
    # left empty, as for a one-sample trace, and the entry says why
    out = tmp_path / "cmp"
    code = run(["compare", "--h1sq", "1", "--l2-sweep", "0.5", "--simulate",
                "--N", "16", "--T", "0.1", "--dt", "2e-2", "--out", out])
    assert code == EXIT_OK
    (sim,) = read_json(out / "report.json")["simulations"]
    assert sim["status"] == "completed"
    assert sim["monitor_passed"] is None
    assert "above 0.05; rerun with a smaller dt" in sim["detail"]
    assert (out / "compare.csv").read_text().splitlines()[1].split(",")[-2] == ""


def test_compare_records_a_member_infeasible_on_the_grid(tmp_path):
    # at N = 8 the band holds |k|^2 <= 12: h1_sq / l2^2 = 40 has no field, 10 has
    out = tmp_path / "cmp"
    code = run(["compare", "--h1sq", "10", "--l2-sweep", "0.5,1", "--simulate",
                "--N", "8", "--T", "0.01", "--dt", "1e-3", "--out", out])
    assert code == EXIT_OK
    infeasible, feasible = read_json(out / "report.json")["simulations"]
    assert infeasible["status"] == "infeasible_on_grid"
    assert "not realizable" in infeasible["detail"]
    assert feasible["status"] == "completed"
    row = (out / "compare.csv").read_text().splitlines()[1]
    assert row.split(",")[-3:] == ["infeasible_on_grid", "", ""]


def test_compare_records_a_member_with_underflowing_norms_as_infeasible(tmp_path):
    # l2^2 = 1e-310 is subnormal: simulate refuses the member's field
    out = tmp_path / "cmp"
    code = run(["compare", "--h1sq", "2e-310", "--l2-sweep", "1e-155", "--simulate",
                "--N", "8", "--T", "0.01", "--dt", "1e-3", "--out", out])
    assert code == EXIT_OK
    (sim,) = read_json(out / "report.json")["simulations"]
    assert sim["status"] == "infeasible_on_grid"
    assert "underflowing squared norms" in sim["detail"]


@pytest.mark.parametrize("sweep", ["0.1,abc", "", " , ,"])
def test_compare_bad_or_empty_sweep_is_usage_error(tmp_path, capsys, sweep):
    out = tmp_path / "cmp"
    assert run(["compare", "--l2-sweep", sweep, "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "--l2-sweep" in err[0]
    assert not out.exists()


def test_compare_config_key_simulate(tmp_path):
    cfg = tmp_path / "cmp.cfg"
    cfg.write_text("h1sq = 1\nl2-sweep = 0.5\nsimulate = true\nN = 8\nT = 0.01\ndt = 1e-3\n")
    out = tmp_path / "cmp"
    assert run(["compare", "--config", cfg, "--out", out]) == EXIT_OK
    (sim,) = read_json(out / "report.json")["simulations"]
    assert sim["status"] == "completed"
    cfg.write_text("attach_sims = true\n")  # the flag's old internal name is no key
    assert run(["compare", "--config", cfg]) == EXIT_USAGE


@pytest.mark.parametrize("t_star", ["nan", "0", "-1"])
def test_compare_window_not_positive_is_usage_error(tmp_path, t_star):
    out = tmp_path / "cmp"
    assert run(["compare", "--h1sq", "1", "--t-star", t_star, "--out", out]) == EXIT_USAGE
    assert not out.exists()


def test_compare_tiny_h1sq_has_no_classical_horizon(tmp_path):
    # h1_sq**2 underflows: the classical window is unbounded, reported as null
    out = tmp_path / "cmp"
    assert run(["compare", "--h1sq", "1e-200", "--l2-sweep", "1e-101", "--out", out]) == EXIT_OK
    (row,) = read_json(out / "report.json")["rows"]
    assert row["classical_horizon"] is None
    assert row["extends_classical"] is False


def test_compare_poincare_violation():
    assert run(["compare", "--h1sq", "1", "--l2-sweep", "5"]) == EXIT_NORM_INCONSISTENT


def test_compare_takes_lam1_from_its_box(tmp_path):
    # the period-20 box has lam1 = (2 pi / 20)^2 = 0.0987, so h1_sq = 0.0005
    # over l2 = 0.05 is feasible there, though below the 2 pi box's line 0.0025
    out = tmp_path / "cmp"
    assert run(["compare", "--h1sq", "0.0005", "--l2-sweep", "0.05", "--simulate",
                "--L", "20", "--N", "8", "--T", "2", "--dt", "1e-2", "--out", out]) == EXIT_OK
    (sim,) = read_json(out / "report.json")["simulations"]
    assert sim["status"] == "completed"
    row = (out / "compare.csv").read_text().splitlines()[1]
    assert row.split(",")[-2] == "1"  # sim_monitor_passed


# ---------------------------------------------------------------- calibrate

def test_calibrate_cli(tmp_path):
    out = tmp_path / "cal"
    code = run(["calibrate", "--N", "8", "--ensemble", "2", "--seed", "1",
                "--oversample", "2", "--out", out])
    assert code == EXIT_OK
    payload = read_json(out / "report.json")
    assert payload["n_ensemble"] == 2
    assert payload["empirical_lower_bounds"]["c_sobolev"] > 0.0
    assert payload["warnings"] == []


def test_calibrate_prints_each_warning_on_stderr(tmp_path, capsys):
    out = tmp_path / "cal"
    assert run(["calibrate", "--N", "8", "--ensemble", "2", "--c-sobolev", "0.01",
                "--c-interp", "0.01", "--out", out]) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("warning:") for line in err)
    assert len(read_json(out / "report.json")["warnings"]) == 2


# ------------------------------------------------------------------ monitor

def test_monitor_clean_run(tmp_path):
    out = tmp_path / "run"
    assert run(["simulate", "--init", "shear", "--N", "16", "--T", "0.5",
                "--dt", "1e-3", "--out", out]) == EXIT_OK
    mon_out = tmp_path / "mon"
    code = run(["monitor", "--trace", out / "trace.csv", "--out", mon_out])
    assert code == EXIT_OK
    payload = read_json(mon_out / "report.json")
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names[0] == "solver_energy_balance"


def test_monitor_with_certified_report(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["simulate", "--init", "shear", "--amplitude", "0.05",
                "--N", "16", "--T", "0.5", "--dt", "1e-3", "--out", out]) == EXIT_OK
    rep_dir = tmp_path / "rep"
    assert run(["bounds", "--free", "--l2", "0.05", "--h1sq", "0.0025",
                "--out", rep_dir]) == EXIT_OK
    code = run(["monitor", "--trace", out / "trace.csv",
                "--report", rep_dir / "report.json"])
    assert code == EXIT_OK
    mon_out = tmp_path / "mon"
    assert run(["monitor", "--trace", out / "trace.csv",
                "--report", rep_dir / "report.json", "--out", mon_out]) == EXIT_OK
    names = [c["name"] for c in read_json(mon_out / "report.json")["checks"]]
    assert any(n.startswith("bound_dominance") for n in names)


def test_monitor_trace_outside_the_certified_window(tmp_path, capsys):
    rep_dir = tmp_path / "rep"
    assert run(["bounds", "--steady", "--T", "0.1", "--f", "0.01", "--l2", "0.05",
                "--h1sq", "0.0025", "--out", rep_dir]) == EXIT_OK
    trace = tmp_path / "trace.csv"
    trace.write_text("t,l2_sq,h1_sq,h2_sq,f_dot_u,int_h1_sq,int_f_sq,residual\n"
                     + "".join(f"{t},0.0025,0.0025,0.0025,0,0,0,0\n" for t in (0.5, 0.6, 0.7)))
    code = run(["monitor", "--trace", with_box_meta(trace), "--report", rep_dir / "report.json"])
    assert code == EXIT_NORM_INCONSISTENT  # no sample to check: never a PASS
    assert "window" in capsys.readouterr().err


def test_monitor_violation_exit_code(tmp_path):
    # craft a trace that breaks the h1 inequality but keeps energy balance:
    # a slow linear ramp with f = 0 cannot happen physically
    t = np.linspace(0.0, 1.0, 101)
    y = 1e-3 * (1.0 + t)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (y[1:] + y[:-1]))])
    dydt = np.gradient(y, t, edge_order=2)
    f_dot_u = 0.5 * dydt + 1.0 * y  # forces the energy residual to zero
    rows = ["t,l2_sq,h1_sq,h2_sq,f_dot_u,int_h1_sq,int_f_sq,residual"]
    for i in range(len(t)):
        rows.append(",".join("%.17g" % v for v in
                             (t[i], y[i], y[i], y[i], f_dot_u[i], cum[i], 0.0, 0.0)))
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("\n".join(rows) + "\n")
    code = run(["monitor", "--trace", with_box_meta(trace_path)])
    assert code == EXIT_VIOLATION


def test_monitor_solver_diagnostic_exit_code(tmp_path):
    # energy balance broken: l2_sq grows with no forcing
    t = np.linspace(0.0, 1.0, 101)
    z = 1.0 + t
    zeros = np.zeros_like(t)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (z[1:] + z[:-1]))])
    rows = ["t,l2_sq,h1_sq,h2_sq,f_dot_u,int_h1_sq,int_f_sq,residual"]
    for i in range(len(t)):
        rows.append(",".join("%.17g" % v for v in
                             (t[i], z[i], z[i], z[i], zeros[i], cum[i], 0.0, 0.0)))
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("\n".join(rows) + "\n")
    assert run(["monitor", "--trace", with_box_meta(trace_path)]) == EXIT_SOLVER_DIAGNOSTIC


def test_monitor_reports_a_check_that_overflows(tmp_path, capsys):
    # finite cells whose 2 (f, u) overflows: the energy check's ratio is NaN,
    # which its report writes as null, not as a traceback
    rows = ["t,l2_sq,h1_sq,h2_sq,f_dot_u,int_h1_sq,int_f_sq,residual"]
    for i in range(5):
        f_dot_u = 1e308 if i == 2 else 0.0
        rows.append(",".join("%.17g" % v for v in
                             (0.1 * i, 1.0, 1.0, 1.0, f_dot_u, 0.1 * i, 0.0, 0.0)))
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("\n".join(rows) + "\n")
    mon = tmp_path / "mon"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(["monitor", "--trace", with_box_meta(trace_path), "--out", mon])
    assert code == EXIT_SOLVER_DIAGNOSTIC
    assert "Traceback" not in capsys.readouterr().err
    energy = read_json(mon / "report.json")["checks"][0]
    assert energy["name"] == "solver_energy_balance" and energy["max_violation"] is None


def test_monitor_coarse_trace_is_not_a_solver_failure(tmp_path, capsys):
    # a correct run whose energy-check error bar is not small against the
    # energy that flows through one interval
    out = tmp_path / "run"
    assert run(["simulate", "--N", "16", "--nu", "1", "--dt", "5e-2", "--T", "0.5",
                "--out", out]) == EXIT_OK
    capsys.readouterr()
    mon = tmp_path / "mon"
    assert run(["monitor", "--trace", out / "trace.csv", "--out", mon]) == EXIT_NORM_INCONSISTENT
    err = capsys.readouterr().err
    assert "trace too coarse to diagnose" in err and "above 0.05" in err
    assert not mon.exists()
    # at dt = 1e-2 the bar is read and the run passes
    assert run(["simulate", "--N", "16", "--nu", "1", "--dt", "1e-2", "--T", "0.1",
                "--out", out]) == EXIT_OK
    assert run(["monitor", "--trace", out / "trace.csv"]) == EXIT_OK


@pytest.mark.parametrize("dt", ["1e-2", "1e-3"])
def test_monitor_passes_a_forced_start_from_rest(tmp_path, dt):
    # the stiffness model of decaying content failed this correct run (exit 3)
    out, mon = tmp_path / "run", tmp_path / "mon"
    assert run(["simulate", "--N", "8", "--init", "zero", "--forcing", "kolmogorov",
                "--T", "0.1", "--dt", dt, "--out", out]) == EXIT_OK
    assert run(["monitor", "--trace", out / "trace.csv", "--out", mon]) == EXIT_OK
    energy = read_json(mon / "report.json")["checks"][0]
    assert energy["name"] == "solver_energy_balance" and energy["max_violation"] < 2.0


@pytest.mark.parametrize("n", [8, 16])
def test_monitor_one_step_trace_is_too_coarse(tmp_path, capsys, n):
    # two samples have no second difference to read the energy check's error
    # bar from: too coarse, never a PASS; two steps pass
    for steps in (1, 2):
        out = tmp_path / f"run{steps}"
        assert run(["simulate", "--N", n, "--T", steps * 1e-3, "--dt", "1e-3",
                    "--out", out]) == EXIT_OK
    capsys.readouterr()
    assert run(["monitor", "--trace", tmp_path / "run1" / "trace.csv"]) == EXIT_NORM_INCONSISTENT
    err = capsys.readouterr().err
    assert "trace too coarse to diagnose" in err and "two-sample trace" in err
    assert run(["monitor", "--trace", tmp_path / "run2" / "trace.csv"]) == EXIT_OK


def test_monitor_requires_trace():
    assert run(["monitor"]) == EXIT_USAGE


def test_monitor_rejects_unsatisfied_report(tmp_path):
    out = tmp_path / "run"
    assert run(["simulate", "--init", "shear", "--N", "8", "--T", "0.05",
                "--dt", "5e-3", "--out", out]) == EXIT_OK
    rep_dir = tmp_path / "rep"
    assert run(["bounds", "--free", "--l2", "1", "--h1sq", "1",
                "--out", rep_dir]) == EXIT_OK
    code = run(["monitor", "--trace", out / "trace.csv",
                "--report", rep_dir / "report.json"])
    assert code == EXIT_USAGE


# -------------------------------------------------------------- config file

def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# criterion inputs\nl2 = 0.1\nh1sq = 0.5\nfree = true\n")
    assert run(["bounds", "--config", cfg]) == EXIT_OK
    from_file = json.loads(capsys.readouterr().out)["report"]
    assert from_file["lhs"] == pytest.approx(1.1036476090008061, rel=1e-12)

    # CLI flag overrides the file
    assert run(["bounds", "--config", cfg, "--l2", "0.0"]) == EXIT_OK
    overridden = json.loads(capsys.readouterr().out)["report"]
    assert overridden["lhs"] == pytest.approx(math.atan(0.5), rel=1e-12)


def test_config_file_skips_its_config_key_and_flags_blocked_on_the_command_line(
        tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steady = true\nconfig = other.cfg\n")  # other.cfg does not exist
    argv = ["bounds", "--config", cfg, "--free", "--l2", "0.05", "--h1sq", "0.0025"]
    assert run(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["report"]["kind"] == "arctan_free"


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n")
    assert run(["bounds", "--free", "--config", cfg]) == EXIT_USAGE


def test_config_file_missing(tmp_path):
    assert run(["bounds", "--free", "--config", tmp_path / "nope.cfg"]) == EXIT_USAGE


def test_config_file_undecodable(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"N = \xff\xfe16\n")
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("nsreg: ") and "bad.cfg" in err
    assert not (tmp_path / "o").exists()


# (key, value) lines of a valid config per command, and corrupt values per key
CONFIG_BASE = {
    "simulate": ["N = 8", "T = 0.01", "dt = 5e-3", "init = shear"],
    "bounds": ["free = true", "l2 = 0.1", "h1sq = 0.5"],
}
NUMERIC_KEYS = {
    "simulate": ["N", "L", "nu", "T", "dt", "cfl", "amplitude", "slope", "seed",
                 "f-amp", "blowup-ceiling"],
    "bounds": ["l2", "h1sq", "T", "f", "intf2", "nu", "lam1", "c-sobolev", "c-interp"],
}
NON_FINITE = ["nan", "inf", "-inf", "1e400", "NaN"]


def _corrupt_config(command, draw):
    """A config file for ``command`` with one corruption, as bytes."""
    lines = list(CONFIG_BASE[command])
    kinds = ["no_equals", "unknown_key", "non_numeric", "non_finite", "undecodable"]
    if command == "bounds":
        kinds.append("bad_boolean")
    kind = draw(st.sampled_from(kinds))
    at = draw(st.integers(0, len(lines)))
    if kind == "no_equals":
        lines.insert(at, draw(st.sampled_from(["N 16", "free", "l2: 0.1", "[run]"])))
    elif kind == "unknown_key":
        lines.insert(at, draw(st.sampled_from(["volume = 11", "reynolds = 100", "out2 = x"])))
    elif kind == "non_numeric":
        key = draw(st.sampled_from(NUMERIC_KEYS[command]))
        lines.insert(at, f"{key} = {draw(st.sampled_from(['abc', '1,5', '', '0x10', '--']))}")
    elif kind == "non_finite":
        key = draw(st.sampled_from(NUMERIC_KEYS[command]))
        # an infinite window is the bounds default; only NaN is corrupt there
        bad = ["nan", "NaN"] if (command, key) == ("bounds", "T") else NON_FINITE
        lines.insert(at, f"{key} = {draw(st.sampled_from(bad))}")
    elif kind == "bad_boolean":
        lines.insert(at, f"free = {draw(st.sampled_from(['maybe', '2', 'yes please']))}")
    text = "\n".join(lines).encode() + b"\n"
    if kind == "undecodable":
        pos = draw(st.integers(0, len(text)))
        text = text[:pos] + draw(st.sampled_from([b"\xff\xfe", b"\x80", b"\xc3("])) + text[pos:]
    return text


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(["simulate", "bounds"]), data=st.data())
def test_corrupted_config_is_usage_error(tmp_path_factory, command, data):
    tmp = tmp_path_factory.mktemp("cfg")
    cfg = tmp / "run.cfg"
    cfg.write_bytes(_corrupt_config(command, data.draw))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([command, "--config", cfg, "--out", tmp / "o"])
    assert code == EXIT_USAGE
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("nsreg: "), lines
    assert not (tmp / "o").exists()


FLOAT_FLAGS = {
    "bounds": ["--l2", "--h1sq", "--T", "--f", "--intf2", "--nu", "--lam1", "--c-sobolev",
               "--c-interp"],
    "compare": ["--h1sq", "--l2-sweep", "--t-star", "--L", "--T", "--dt", "--nu"],
}
EXTREME = st.builds("{}e{}".format, st.integers(1, 9),
                    st.integers(150, 308) | st.integers(-308, -150))


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["bounds", "compare"]), data=st.data())
def test_extreme_float_flags_exit_cleanly(command, data):
    argv = [command]
    if command == "bounds":
        argv += [data.draw(st.sampled_from(["--free", "--steady", "--timedep"])),
                 "--T", "1", "--f", "0.01", "--intf2", "0.01", "--l2", "0.05", "--h1sq", "1"]
    for flag in data.draw(st.lists(st.sampled_from(FLOAT_FLAGS[command]), min_size=1,
                                   max_size=3, unique=True)):
        argv += [flag, data.draw(EXTREME)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    lines = err.getvalue().splitlines()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_NORM_INCONSISTENT), (argv, lines)
    assert len(lines) == (code != EXIT_OK), (argv, lines)
    assert all(line.startswith("nsreg") for line in lines), (argv, lines)


def test_unknown_flag_is_usage_error():
    assert run(["simulate", "--frobnicate"]) == EXIT_USAGE


def test_no_subcommand_is_usage_error():
    assert run([]) == EXIT_USAGE


# ------------------------------------------------- monitor inputs fail closed

@pytest.fixture(scope="module")
def shear_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("shear") / "run"
    assert run(["simulate", "--init", "shear", "--N", "8", "--T", "0.05",
                "--dt", "5e-3", "--out", out]) == EXIT_OK
    return out


def test_monitor_missing_trace(tmp_path):
    assert run(["monitor", "--trace", tmp_path / "missing.csv"]) == EXIT_NO_INPUT


def test_monitor_missing_report(shear_run, tmp_path):
    code = run(["monitor", "--trace", shear_run / "trace.csv",
                "--report", tmp_path / "nope.json"])
    assert code == EXIT_NO_INPUT


def test_monitor_missing_explicit_meta(shear_run, tmp_path):
    code = run(["monitor", "--trace", shear_run / "trace.csv",
                "--meta", tmp_path / "nope.json"])
    assert code == EXIT_NO_INPUT


def test_monitor_one_sample_trace(shear_run, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("".join((shear_run / "trace.csv").read_text().splitlines(True)[:2]))
    assert run(["monitor", "--trace", with_box_meta(path)]) == EXIT_NORM_INCONSISTENT


def test_monitor_undecodable_trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"\xff\xfe\x00abc\n")
    assert run(["monitor", "--trace", with_box_meta(path)]) == EXIT_USAGE


@pytest.mark.parametrize("flag", ["--h1-tol", "--energy-tol", "--dominance-rel-tol"])
def test_monitor_rejects_non_finite_tolerance(shear_run, flag):
    assert run(["monitor", "--trace", shear_run / "trace.csv", flag, "nan"]) == EXIT_USAGE


def _assert_no_option(argv, key, cfg, capsys):
    """``key`` is neither a flag nor a config key of the command ``argv`` runs."""
    assert run(argv + [f"--{key}", "1"]) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    cfg.write_text(f"{key} = 1\n")
    assert run(argv + ["--config", cfg]) == EXIT_USAGE
    assert "unknown option" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["h1-tol", "energy-tol", "dominance-rel-tol", "solver-rel-tol"])
def test_monitor_has_no_check_tolerance_options(shear_run, tmp_path, capsys, key):
    argv = ["monitor", "--trace", shear_run / "trace.csv"]
    _assert_no_option(argv, key, tmp_path / "mon.cfg", capsys)


# the run fixes these: monitor reads nu and lam1 from its meta.json, and
# compare takes lam1 from --L and uses the pinned calibration
@pytest.mark.parametrize("command, key", [
    ("monitor", "nu"), ("monitor", "lam1"),
    ("compare", "lam1"), ("compare", "c-sobolev"), ("compare", "c-interp"),
])
def test_no_option_for_a_constant_the_run_fixes(shear_run, tmp_path, capsys, command, key):
    argv = ["monitor", "--trace", shear_run / "trace.csv"] if command == "monitor" else [command]
    _assert_no_option(argv, key, tmp_path / "run.cfg", capsys)


def test_monitor_violation_cannot_be_tolerated_away(tmp_path):
    run_dir, cert = tmp_path / "run", tmp_path / "cert"
    assert run(["simulate", "--init", "shear", "--amplitude", "5", "--N", "8", "--T", "0.05",
                "--dt", "5e-3", "--out", run_dir]) == EXIT_OK
    assert run(["bounds", "--free", "--l2", "0.05", "--h1sq", "0.0025", "--out", cert]) == EXIT_OK
    argv = ["monitor", "--trace", run_dir / "trace.csv", "--report", cert / "report.json"]
    assert run(argv) == EXIT_VIOLATION
    assert run(argv + ["--dominance-rel-tol", "1e12"]) == EXIT_USAGE


def test_monitor_non_numeric_trace_cell(shear_run, tmp_path):
    lines = (shear_run / "trace.csv").read_text().splitlines(True)
    lines[3] = "abc" + lines[3][lines[3].index(","):]
    path = tmp_path / "trace.csv"
    path.write_text("".join(lines))
    assert run(["monitor", "--trace", with_box_meta(path)]) == EXIT_USAGE


@pytest.mark.parametrize("flag", ["--report", "--meta"])
def test_monitor_truncated_json(shear_run, tmp_path, flag):
    path = tmp_path / "truncated.json"
    path.write_text('{"kind": "arctan_free", "lhs": 0.5, "sat')
    code = run(["monitor", "--trace", shear_run / "trace.csv", flag, path])
    assert code == EXIT_NORM_INCONSISTENT


@pytest.mark.parametrize("broken", ["report", "meta"])
def test_monitor_json_error_names_the_file(shear_run, tmp_path, capsys, broken):
    files = {"report": tmp_path / "report.json", "meta": tmp_path / "meta.json"}
    files["report"].write_text('{"kind": "arctan_free", "lhs": 0.5, "horizon": null}')
    files["meta"].write_text('{"config": {"nu": 1.0, "L": 6.283185307179586}}')
    files[broken].write_text('{"kind": "arctan_free", "lhs": 0.5, "sat')
    code = run(["monitor", "--trace", shear_run / "trace.csv",
                "--report", files["report"], "--meta", files["meta"]])
    assert code == EXIT_NORM_INCONSISTENT
    err = capsys.readouterr().err
    assert err.startswith(f"nsreg: malformed JSON: {files[broken]}: ")
    other = files["meta" if broken == "report" else "report"]
    assert str(other) not in err


def test_monitor_trace_without_meta(shear_run, tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text((shear_run / "trace.csv").read_text())
    assert run(["monitor", "--trace", path]) == EXIT_NO_INPUT
    assert str(tmp_path / "meta.json") in capsys.readouterr().err


def test_monitor_meta_without_period(shear_run, tmp_path):
    path = tmp_path / "meta.json"
    path.write_text('{"config": {"nu": 1.0}}')
    code = run(["monitor", "--trace", shear_run / "trace.csv", "--meta", path])
    assert code == EXIT_USAGE


def test_monitor_meta_without_numeric_viscosity(shear_run, tmp_path):
    path = tmp_path / "meta.json"
    path.write_text('{"config": {"nu": "fast"}}')
    code = run(["monitor", "--trace", shear_run / "trace.csv", "--meta", path])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("length", ['"wide"', "null", "0", "-20"])
def test_monitor_meta_with_bad_period(shear_run, tmp_path, length):
    path = tmp_path / "meta.json"
    path.write_text('{"config": {"nu": 1.0, "L": %s}}' % length)
    code = run(["monitor", "--trace", shear_run / "trace.csv", "--meta", path])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("init", [["--init", "zero"], ["--amplitude", "5", "--f-amp", "2"]])
def test_monitor_takes_lam1_from_the_run(tmp_path, init):
    # on a box of period 20, lam1 = (2 pi / 20)^2 = 0.0987; lam1 = 1 would
    # overstate the energy decay and fail the cumulative check
    out = tmp_path / "run"
    assert run(["simulate", "--L", "20", "--N", "8", "--forcing", "kolmogorov", "--T", "10",
                "--dt", "1e-2", *init, "--out", out]) == EXIT_OK
    assert run(["monitor", "--trace", out / "trace.csv"]) == EXIT_OK


@pytest.mark.parametrize("payload", [
    '{"kind": "arctan_free", "lhs": 4.6, "satisfied": true, "horizon": null}',
    '{"kind": "classical_free", "lhs": 0.1, "satisfied": true, "horizon": null}',
    '{"kind": "arctan_free", "lhs": NaN, "satisfied": true, "horizon": null}',
])
def test_monitor_rejects_forged_certificate(shear_run, tmp_path, payload):
    path = tmp_path / "report.json"
    path.write_text(payload)
    code = run(["monitor", "--trace", shear_run / "trace.csv", "--report", path])
    assert code == EXIT_USAGE


def test_lost_solver_invariant_exit_code(monkeypatch, tmp_path):
    def lose_invariant(*args):
        raise InvariantViolationError("divergence-free invariant violated at t=0")

    monkeypatch.setattr(nsreg.cli, "simulate", lose_invariant)
    code = run(["simulate", "--N", "8", "--T", "0.01", "--out", tmp_path / "x"])
    assert code == EXIT_SOLVER_DIAGNOSTIC


def _mutate(lines, draw):
    """One corruption of a trace.csv given as header + data lines."""
    header, rows = lines[0], [r.split(",") for r in lines[1:]]
    kind = draw(st.sampled_from(["cell", "short", "rows", "swap"]))
    if kind == "cell":
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.sampled_from(["nan", "inf", "-inf", "abc", ""]))
    elif kind == "short":
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:draw(st.integers(1, len(rows[i]) - 1))]
    elif kind == "rows":
        rows = rows[:draw(st.integers(0, 1))]
    else:
        i, j = sorted(draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                                    max_size=2, unique=True)))
        rows[i][0], rows[j][0] = rows[j][0], rows[i][0]
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_monitor_corrupted_trace_never_passes(shear_run, data):
    lines = (shear_run / "trace.csv").read_text().splitlines()
    path = shear_run.parent / "mutated" / "trace.csv"
    path.parent.mkdir(exist_ok=True)
    path.write_text(_mutate(lines, data.draw))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(["monitor", "--trace", with_box_meta(path)])
    assert code in (EXIT_USAGE, EXIT_NORM_INCONSISTENT)


def _entry_point(*args):
    """Run ``python -m nsreg.cli`` in a fresh interpreter; returns the process."""
    src = os.path.dirname(os.path.dirname(nsreg.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-m", "nsreg.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_entry_point_missing_trace_exit_code(tmp_path):
    proc = _entry_point("monitor", "--trace", tmp_path / "missing.csv")
    assert proc.returncode == EXIT_NO_INPUT
    assert "Traceback" not in proc.stderr
    assert "missing.csv" in proc.stderr


def test_entry_point_overflowing_initial_norms_is_usage_error(tmp_path):
    # a finite field whose squared norms overflow: one message, no numpy warning
    out = tmp_path / "huge"
    proc = _entry_point("simulate", "--N", "8", "--T", "0.01", "--dt", "1e-3",
                        "--amplitude", "1e308", "--out", out)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.splitlines() == [
        "nsreg: configuration error: initial field has overflowing squared norms: "
        "l2_sq=inf, h1_sq=inf, h2_sq=inf"]
    assert not out.exists()


# ------------------------------------------------------------ README examples

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_commands():
    """Lines of the ``sh`` block under README's "Command line" heading."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line and not line.startswith("#")]


def test_readme_commands_exit_zero(tmp_path, monkeypatch):
    commands = readme_commands()
    assert len(commands) >= 5 and all(c.startswith("nsreg ") for c in commands)
    monkeypatch.chdir(tmp_path)
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(shlex.split(command)[1:])
        assert code == EXIT_OK, command
    assert read_json(tmp_path / "runs" / "mon" / "report.json")["passed"]
