import concurrent.futures
import ctypes
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ptnls import (
    ConvergenceReport,
    GaussianIC,
    ParseError,
    RadialGrid,
    RunConfig,
    RunOutcome,
    SolverDiverged,
    SystemParams,
    ValidationError,
    convergence_check,
    run,
)
from ptnls import cli, simulator
from ptnls.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    FIGURE_IDS,
    TRACE_COLUMNS,
    JobSpec,
    main,
    parse_config,
    read_csv,
    run_job,
    serialize_jobspec,
    write_csv,
)

MINIMAL = """\
# two-Gaussian input
params.gamma = 0.5
params.kappa = 1
ic.A = 4
ic.B = 2
ic.a = 0.3
ic.b = 0.1
"""

FAST_SIM = """\
params.gamma = 0.1
ic.A = 0.2
ic.B = 0.2
grid.n = 255
run.dt0 = 1e-3
run.dt_min = 1e-6
run.t_max = 0.05
run.sample_every = 10
"""

CRITERIA_SWEEP = """\
params.gamma = 0.5
params.g = -0.5
ic.A = 4
ic.B = 2
ic.a = 0.3
ic.b = 0.1
sweep.axis = ic.B
sweep.values = 2,3,4
sweep.target = criteria
criteria.samples = 64
"""


class TestParseConfig:
    def test_minimal_with_defaults(self):
        spec = parse_config(MINIMAL, "criteria")
        assert spec.params.gamma == 0.5
        assert spec.params.g1 == 1.0  # default
        assert spec.ic.ampU == 4.0 and spec.ic.widthV == 0.1
        assert spec.runConfig.tMax == 5.0
        assert spec.grid.n == 7999
        # every field that MINIMAL leaves out, written out here rather than
        # read from cli._DEFAULTS, so a changed default fails this test
        assert spec == JobSpec(
            mode="criteria",
            params=SystemParams(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=1.0, dim=3),
            ic=GaussianIC(ampU=4.0, ampV=2.0, widthU=0.3, widthV=0.1),
            runConfig=RunConfig(dt0=1e-4, dtMin=1e-8, blowupRatio=100.0, tMax=5.0,
                                sampleEvery=100, cnIterations=2),
            grid=RadialGrid(L=16.0, n=7999),
            horizon=None,
            samples=4096,
            sweepAxis=None,
            sweepValues=None,
            sweepTarget="simulate",
            figureId=None,
            outputDir=Path("."),
        )
        assert parse_config("", "criteria") == replace(
            spec, params=SystemParams(gamma=0.5, kappa=1.0),
            ic=GaussianIC(ampU=1.0, ampV=1.0, widthU=1.0, widthV=1.0),
        )

    def test_dt_checks_see_both_values_in_either_order(self):
        # valid pairs; set one key at a time over the defaults (dt0 = 1e-4,
        # dtMin = 1e-8), dt_min = 1e-3 first or dt0 = 1e-9 first would fail
        # dt0 >= dtMin, so whichever key goes first, one pair fails
        for text, dts in [("run.dt_min = 1e-3\nrun.dt0 = 1e-2\n", (1e-2, 1e-3)),
                          ("run.dt0 = 1e-2\nrun.dt_min = 1e-3\n", (1e-2, 1e-3)),
                          ("run.dt_min = 1e-10\nrun.dt0 = 1e-9\n", (1e-9, 1e-10))]:
            spec = parse_config(text, "simulate")
            assert (spec.runConfig.dt0, spec.runConfig.dtMin) == dts
        with pytest.raises(ValidationError, match="dt0 >= dtMin"):
            parse_config("run.dt_min = 1e-3\n", "simulate")  # dt0 = 1e-4

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_config("\n# note\nparams.gamma = 0.25 # inline\n", "criteria")
        assert spec.params.gamma == 0.25

    def test_duplicate_key(self):
        text = "params.gamma = 0.5\nparams.gamma = 0.6\n"
        with pytest.raises(ParseError) as exc:
            parse_config(text, "criteria")
        assert exc.value.line == 2

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_config("params.delta = 1\n", "criteria")

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            parse_config("params.gamma 0.5\n", "criteria")

    def test_unparseable_value(self):
        with pytest.raises(ParseError):
            parse_config("params.gamma = fast\n", "criteria")

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("params.gamma = -1\n", "criteria")

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL, "explode")

    def test_sweep_requires_axis(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL, "sweep")

    def test_sweep_axis_whitelist(self):
        text = MINIMAL + "sweep.axis = grid.n\nsweep.values = 1,2\n"
        with pytest.raises(ValidationError):
            parse_config(text, "sweep")

    def test_sweep_target_whitelist(self):
        text = MINIMAL + "sweep.axis = ic.B\nsweep.values = 1,2\nsweep.target = both\n"
        with pytest.raises(ValidationError, match="simulate or criteria, not 'both'"):
            parse_config(text, "sweep")

    def test_figure_requires_known_id(self):
        with pytest.raises(ValidationError):
            parse_config("figure.id = fig9z\n", "figure")

    def test_round_trip(self):
        text = MINIMAL + "sweep.axis = ic.B\nsweep.values = 1.3,2.6,3.9\n"
        spec = parse_config(text, "sweep")
        again = parse_config(serialize_jobspec(spec), "sweep")
        assert again == spec


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.csv"
        for cols in ([np.array([0.0, 0.1, 0.2]), np.array([1.0, -2.5, 3.25e-17])],
                     [np.empty(0), np.empty(0)]):  # the header alone
            write_csv(path, ["t", "val"], cols)
            header, data = read_csv(path)
            assert header == ["t", "val"]
            assert data["t"].shape == data["val"].shape == cols[0].shape
            assert np.allclose(data["t"], cols[0], rtol=1e-12)
            assert np.allclose(data["val"], cols[1], rtol=1e-11)

    def test_rectangular(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "b", "c"], [[1, 2], [3, 4], [5, 6]])
        lines = path.read_text().splitlines()
        assert all(line.count(",") == 2 for line in lines)

    def test_str_column_written_as_is(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["value", "outcome"], [[0.5, 2], ["Dispersed", "1e-3"]])
        assert path.read_text() == ("value,outcome\n5.000000000000e-01,Dispersed\n"
                                    "2,1e-3\n")


def _assert_plain_values(report: str):
    """Every value of a report.txt is a number, None, True or False."""
    for line in report.splitlines():
        key, _, value = line.partition(" = ")
        if key == "phase":  # the one label
            continue
        if value not in ("None", "True", "False"):
            float(value)  # raises on a numpy repr such as np.float64(0.5)


def _assert_crossing(report: str, check: str, time_key: str, certified: bool):
    """The four lines after a check's certified time: its falling piece and
    the root-finder's final bracket, whose right end is the certified time."""
    lines = report.splitlines()
    at = lines.index(next(ln for ln in lines if ln.startswith(f"{check}.{time_key} = ")))
    fields = dict(ln.split(" = ") for ln in lines[at:at + 5])
    keys = [f"{check}.{k}" for k in (time_key, "piece.start", "piece.end",
                                     "bracket.lo", "bracket.hi")]
    assert list(fields) == keys
    T, start, end, lo, hi = fields.values()
    if not certified:
        assert T == lo == hi == "None"
        return
    assert T == hi
    start, end, lo, hi = map(float, (start, end, lo, hi))
    assert 0 <= start <= lo < hi <= end and hi - lo <= 1e-9


class TestModes:
    def test_criteria_focusing(self, tmp_path):
        # F falls nowhere at B = 2; at B = 6 it falls and T0 is certified
        for B, certified in (("2", False), ("6", True)):
            out = tmp_path / B
            text = MINIMAL.replace("ic.B = 2", f"ic.B = {B}") + "params.g = -0.5\n"
            assert run_job(parse_config(text, "criteria", out)) == EXIT_OK
            header, data = read_csv(out / "criteria.csv")
            assert header == ["t", "F", "M", "G"]
            assert data["t"][0] == 0.0
            report = (out / "report.txt").read_text()
            assert "theorem1.satisfied" in report
            assert "lemma1.satisfied" in report
            _assert_plain_values(report)
            _assert_crossing(report, "theorem1", "T0", certified)
            if not certified:
                assert "theorem1.piece.start = None\ntheorem1.piece.end = None" in report

    def test_criteria_verdict_does_not_depend_on_samples(self, tmp_path):
        # certified at T0 = 0.0047641; a scan of 0 or 1 samples missed it
        text = MINIMAL.replace("ic.B = 2", "ic.B = 6") + "params.g = -0.5\n"
        lines = {}
        for samples in (0, 1, 2, 4096):
            out = tmp_path / str(samples)
            spec = parse_config(text + f"criteria.samples = {samples}\n", "criteria", out)
            assert run_job(spec) == EXIT_OK
            report = (out / "report.txt").read_text().splitlines()
            lines[samples] = [ln for ln in report if ln.startswith("theorem1.")]
            _, data = read_csv(out / "criteria.csv")
            assert len(data["t"]) == samples + 1
        assert lines[0][0] == "theorem1.satisfied = True"
        assert lines[0] == lines[1] == lines[2] == lines[4096]

    def test_criteria_long_horizon_prints_nothing(self, tmp_path):
        # fig2 panel a at horizon 2000: F, M and G overflow to inf on the
        # trace, which is no error and prints no RuntimeWarning
        cfg = tmp_path / "job.cfg"
        cfg.write_text("".join(f"{k} = {v!r}\n" for k, v in cli._FIG2_BASE.items())
                       + "criteria.horizon = 2000\n")
        done = subprocess.run(
            [sys.executable, "-m", "ptnls.cli", "criteria", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(_SRC)}, capture_output=True, text=True,
            timeout=120)
        assert (done.returncode, done.stderr) == (EXIT_OK, "")

    def test_criteria_early_collapse(self, tmp_path):
        text = (
            "params.gamma = 0.5\nparams.kappa = 1\n"
            "params.g1 = 4\nparams.g2 = -1\nparams.g = -0.5\n"
            "ic.A = 5.8\nic.B = 0.9\n"
        )
        spec = parse_config(text, "criteria", tmp_path)
        assert run_job(spec) == EXIT_OK
        header, data = read_csv(tmp_path / "criteria.csv")
        assert header == ["t", "Z"]
        report = (tmp_path / "report.txt").read_text()
        assert "theorem2.satisfied = True" in report
        _assert_plain_values(report)
        _assert_crossing(report, "theorem2", "Tstar", True)

    def test_criteria_manakov_report(self, tmp_path):
        spec = parse_config(MINIMAL, "criteria", tmp_path)  # g1=g2=g=1
        assert run_job(spec) == EXIT_OK
        report = (tmp_path / "report.txt").read_text()
        assert "manakov.Sconst" in report
        assert "manakov.satisfied" in report
        _assert_plain_values(report)
        _assert_crossing(report, "manakov", "T0", False)

    def test_simulate(self, tmp_path):
        spec = parse_config(FAST_SIM, "simulate", tmp_path)
        assert run_job(spec) == EXIT_OK
        header, data = read_csv(tmp_path / "trace.csv")
        assert header == TRACE_COLUMNS
        assert data["t"][-1] == pytest.approx(0.05, abs=1e-9)
        # trace.csv is RunOutcome.trace, one row per sample, as _fmt writes it
        outcome = run(spec.ic, spec.params, spec.grid, spec.runConfig)
        assert (tmp_path / "outcome.txt").read_text() == (
            f"verdict = {outcome.verdict}\ntStop = {outcome.tStop!r}\n"
            f"component = {outcome.component}\n")
        trace = outcome.trace
        assert list(trace) == TRACE_COLUMNS
        n = len(trace["t"])
        assert all(trace[c].shape == (n,) for c in TRACE_COLUMNS)
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 1 + n
        for c in TRACE_COLUMNS:
            assert np.array_equal(data[c], [float(f"{v:.12e}") for v in trace[c]]), c

    def test_sweep_simulate(self, tmp_path):
        text = FAST_SIM + "sweep.axis = ic.A\nsweep.values = 0.1,0.2\n"
        spec = parse_config(text, "sweep", tmp_path)
        assert run_job(spec, workers=2) == EXIT_OK
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == "value,outcome,time"
        assert len(lines) == 3
        assert (tmp_path / "A=0.1" / "trace.csv").exists()
        assert (tmp_path / "A=0.2" / "outcome.txt").exists()

    def test_sweep_criteria(self, tmp_path):
        text = (
            "params.gamma = 0.5\nparams.g = -0.5\n"
            "ic.A = 4\nic.B = 2\nic.a = 0.3\nic.b = 0.1\n"
            "sweep.axis = ic.B\nsweep.values = 2,3\nsweep.target = criteria\n"
            "criteria.samples = 512\n"
        )
        spec = parse_config(text, "sweep", tmp_path)
        assert run_job(spec) == EXIT_OK
        _, data = read_csv(tmp_path / "B=2" / "criteria.csv")
        assert "F" in data

    def test_figure_criteria_deterministic(self, tmp_path):
        spec = parse_config(
            "figure.id = fig1b\ncriteria.samples = 512\n", "figure", tmp_path / "r1"
        )
        assert run_job(spec, workers=2) == EXIT_OK
        spec2 = parse_config(
            "figure.id = fig1b\ncriteria.samples = 512\n", "figure", tmp_path / "r2"
        )
        assert run_job(spec2) == EXIT_OK
        s1 = (tmp_path / "r1" / "summary.csv").read_bytes()
        s2 = (tmp_path / "r2" / "summary.csv").read_bytes()
        assert s1 == s2
        assert len(s1.splitlines()) == 4  # header + three gamma values

    def test_figure_fig2_panels(self, tmp_path):
        spec = parse_config(
            "figure.id = fig2\ncriteria.samples = 512\n", "figure", tmp_path
        )
        assert run_job(spec) == EXIT_OK
        for tag in ("a", "c", "e"):
            assert (tmp_path / f"panel_{tag}" / "criteria.csv").exists()
            assert (tmp_path / f"panel_{tag}" / "report.txt").exists()

    def test_convergence(self, tmp_path):
        spec = parse_config(FAST_SIM, "convergence", tmp_path)
        assert run_job(spec) == EXIT_OK
        lines = (tmp_path / "convergence.txt").read_text().splitlines()
        rep = convergence_check(spec.ic, spec.params, spec.grid, spec.runConfig, 1)
        values = dict(line.split(" = ") for line in lines)
        assert list(values) == [f.name for f in fields(ConvergenceReport)]
        assert values["verdicts"] == ",".join(rep.verdicts)
        for name in ("tStops", "tStopDiffs", "traceDiffs"):
            assert values[name] == ",".join(map(repr, getattr(rep, name))), name
        assert values["converged"] == repr(rep.converged)
        assert values["adaptivityHeadroom"] == repr(rep.adaptivityHeadroom)


class TestExitCodes:
    def test_ok(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(MINIMAL)
        assert main(["criteria", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK

    def test_missing_config_file(self, tmp_path):
        assert main(["criteria", "--config", str(tmp_path / "nope.cfg")]) == EXIT_IO

    def test_parse_error(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("params.gamma = 0.5\nparams.gamma = 0.6\n")
        assert main(["criteria", "--config", str(cfg)]) == EXIT_PARSE

    def test_validation_error(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("params.kappa = -2\n")
        assert main(["criteria", "--config", str(cfg)]) == EXIT_VALIDATION

    def test_solver_divergence_mapped(self, tmp_path, monkeypatch):
        spec = parse_config(FAST_SIM, "simulate", tmp_path)

        def boom(*args, **kwargs):
            raise SolverDiverged("synthetic divergence")

        monkeypatch.setattr(cli, "run", boom)
        assert run_job(spec) == EXIT_SOLVER

    def test_diverged_outcome_exits_4(self, tmp_path, monkeypatch, capsys):
        # run reports divergence in its outcome; run_job maps that to exit 4
        spec = parse_config(FAST_SIM, "simulate", tmp_path)
        outcome = run(spec.ic, spec.params, spec.grid, spec.runConfig)
        diverged = replace(outcome, verdict="SolverDiverged", tStop=0.0125)
        monkeypatch.setattr(cli, "run", lambda *args: diverged)
        assert run_job(spec) == EXIT_SOLVER
        assert "verdict = SolverDiverged\n" in (tmp_path / "outcome.txt").read_text()
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: run diverged at t=0\.0125\n", err), err


class TestInputErrors:
    """Every input ends in a result or a documented exit code."""

    def _main(self, tmp_path, mode, text, workers=1):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(text)
        return main([mode, "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--workers", str(workers)])

    @pytest.mark.parametrize("line", [
        "params.g1 = nan", "run.t_max = inf", "grid.L = inf",
        "criteria.horizon = -inf", "sweep.values = 1,nan",
        "params.g1 =",  # an empty value
    ])
    def test_non_finite_rejected_at_parse(self, tmp_path, line):
        with pytest.raises(ParseError):
            parse_config(MINIMAL + line + "\n", "criteria")
        assert self._main(tmp_path, "criteria", MINIMAL + line + "\n") == EXIT_PARSE

    @pytest.mark.parametrize("mode, text", [
        ("simulate", FAST_SIM + "params.dim = 4\n"),  # ValueError
        ("simulate", FAST_SIM.replace("ic.A = 0.2", "ic.A = 1e80")),  # E(0) = -inf
        ("criteria", "ic.A = 1e300\n"),  # OverflowError
        ("criteria", "ic.a = 1e-300\n"),  # ZeroDivisionError
        ("criteria", "params.gamma = 1e-320\n"),  # ZeroDivisionError
        # finite inputs whose moments or constants overflow: E(0) = nan, c3 = inf
        ("criteria", "params.g1 = 1e308\nparams.g2 = -1e308\n"
                     "params.g = -1e308\nic.A = 1e3\n"),
        ("criteria", "params.g1 = 1e308\nparams.g2 = 1e308\nparams.g = 1e308\n"),
        ("figure", MINIMAL),  # ValidationError: no figure.id
    ], ids=["dim=4", "sim-A=1e80", "A=1e300", "a=1e-300", "gamma=1e-320", "E0=nan",
            "c3=inf", "no-figure-id"])
    def test_library_errors_mapped_to_validation(self, tmp_path, mode, text):
        assert self._main(tmp_path, mode, text) == EXIT_VALIDATION

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    @pytest.mark.parametrize("text", [
        MINIMAL,  # Theorem 1 and the Manakov check
        "params.g1 = 4\nparams.g2 = -1\nparams.g = -0.5\nic.A = 5.8\nic.B = 0.9\n",
    ], ids=["focusing", "early-collapse"])
    def test_non_positive_horizon_rejected(self, tmp_path, text, horizon):
        spec = parse_config(text + f"criteria.horizon = {horizon}\n", "criteria")
        assert spec.horizon == float(horizon)  # parsed as given, rejected on use
        code = self._main(tmp_path, "criteria", text + f"criteria.horizon = {horizon}\n")
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("text", [
        MINIMAL,  # Theorem 1 and the Manakov check
        "params.g1 = 4\nparams.g2 = -1\nparams.g = -0.5\nic.A = 5.8\nic.B = 1.3\n",
    ], ids=["focusing", "early-collapse"])
    def test_negative_samples_rejected(self, tmp_path, capsys, text):
        code = self._main(tmp_path, "criteria", text + "criteria.samples = -1\n")
        assert code == EXIT_VALIDATION
        assert "samples must be >= 0" in capsys.readouterr().err

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_bytes(MINIMAL.encode() + b"params.g = 0.5\xff\n")
        assert main(["criteria", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "can't decode byte 0xff" in err

    # sizes beyond the address space, whose allocation fails at once
    @pytest.mark.parametrize("mode, text", [
        ("criteria", MINIMAL + "criteria.samples = 100000000000000000\n"),
        ("simulate", FAST_SIM.replace("grid.n = 255", "grid.n = 100000000000000000")),
    ], ids=["samples=1e17", "grid.n=1e17"])
    def test_input_too_large_to_allocate_exits_3(self, tmp_path, capsys, mode, text):
        assert self._main(tmp_path, mode, text) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err

    def test_sweep_duplicate_values_rejected(self, tmp_path):
        text = MINIMAL + "sweep.axis = ic.B\nsweep.values = 2,3,2.0\n"
        with pytest.raises(ValidationError):
            parse_config(text, "sweep")
        assert self._main(tmp_path, "sweep", text) == EXIT_VALIDATION

    @pytest.mark.parametrize("workers", [1, 2], ids=["workers=1", "workers=2"])
    def test_sweep_criteria_outside_both_regimes(self, tmp_path, monkeypatch, workers):
        # g1 < 0: neither Theorem 1 nor Theorem 2 applies to the sweep points
        monkeypatch.setattr(simulator, "_cores", lambda: 2)  # same path on any machine
        text = MINIMAL + (
            "params.g1 = -1\nsweep.axis = ic.B\nsweep.values = 2,3\n"
            "sweep.target = criteria\ncriteria.samples = 16\n"
        )
        assert self._main(tmp_path, "sweep", text, workers) == EXIT_VALIDATION

    def test_sweep_points_get_distinct_directories(self, tmp_path):
        text = (
            "params.gamma = 0.5\nparams.g = -0.5\n"
            "ic.A = 4\nic.B = 2\nic.a = 0.3\nic.b = 0.1\n"
            "sweep.axis = ic.A\nsweep.values = 1.0000001,1.0000002\n"
            "sweep.target = criteria\ncriteria.samples = 64\n"
        )
        assert self._main(tmp_path, "sweep", text) == EXIT_OK
        for value in ("1.0000001", "1.0000002"):
            report = (tmp_path / "out" / f"A={value}" / "report.txt").read_text()
            assert "X(0) = " in report
        assert len((tmp_path / "out" / "summary.csv").read_text().splitlines()) == 3

    def test_sweep_criteria_evaluates_each_point_once(self, tmp_path, monkeypatch):
        calls = []
        check = cli.crit.check_theorem1

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(cli.crit, "check_theorem1", counted)
        text = (
            "params.gamma = 0.5\nparams.g = -0.5\n"
            "ic.A = 4\nic.B = 2\nic.a = 0.3\nic.b = 0.1\n"
            "sweep.axis = ic.B\nsweep.values = 2,3\nsweep.target = criteria\n"
            "criteria.samples = 64\n"
        )
        assert self._main(tmp_path, "sweep", text) == EXIT_OK
        assert len(calls) == 2


def _exit_worker(*args):
    """A sweep point or convergence level whose worker process dies."""
    if multiprocessing.parent_process() is None:  # never end the test process
        raise AssertionError("the work ran in the test process")
    os._exit(1)


def _inline_pool(sizes: list, items: list):
    """A ProcessPoolExecutor stand-in that records its size and the items
    it is given, and maps in this process."""

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, values):
            values = list(values)
            items.extend(values)
            return map(fn, values)

    return InlinePool


def _counted_pool(sizes: list):
    """The real ProcessPoolExecutor, recording its size."""

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    return CountedPool


# A sweep point raising each error that run_job maps, keyed by int(value);
# a RegimeViolation is raised for real in test_sweep_criteria_outside_both_regimes.
_POINT_ERRORS = {
    1: ValueError("bad input"),
    2: ZeroDivisionError("float division by zero"),
    3: OSError("disk full"),
}


def _failing_point(spec, out, value):
    raise _POINT_ERRORS[int(value)]


class TestSweepPool:
    """--workers k runs up to k points in worker processes, with the
    serial output."""

    @pytest.mark.parametrize("workers, cores, size", [
        (100000, 8, 3),  # capped at the number of points
        (100000, 2, 2),  # capped at the cores
        (2, 8, 2),
        (3, 1, None),  # one core: serial
        (1, 8, None),
        (3, None, None),  # no sched_getaffinity and no CPU count: one core
    ])
    def test_pool_size_is_capped(self, tmp_path, monkeypatch, workers, cores, size):
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(sizes, []))
        if cores is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(simulator, "_cores", lambda: cores)
        spec = parse_config(CRITERIA_SWEEP, "sweep", tmp_path)
        assert run_job(spec, workers=workers) == EXIT_OK
        assert sizes == ([] if size is None else [size])
        assert len((tmp_path / "summary.csv").read_text().splitlines()) == 4

    def test_workers_write_the_serial_bytes(self, tmp_path, monkeypatch):
        sizes = []

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _counted_pool(sizes))
        monkeypatch.setattr(simulator, "_cores", lambda: 2)
        text = FAST_SIM + "sweep.axis = ic.A\nsweep.values = 0.3,0.1,0.2\n"
        trees = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert run_job(parse_config(text, "sweep", out), workers=workers) == EXIT_OK
            trees[workers] = {p.relative_to(out): p.read_bytes()
                              for p in out.rglob("*") if p.is_file()}
        assert sizes == [2]
        assert len(trees[1]) == 7  # summary.csv, and trace.csv, outcome.txt per point
        assert trees[2] == trees[1]
        values = [line.split(",")[0] for line in
                  trees[2][Path("summary.csv")].decode().splitlines()[1:]]
        assert values == [cli._fmt(v) for v in (0.3, 0.1, 0.2)]  # sweep.values order

    def test_sweep_point_pickles(self, tmp_path):
        # what the spawn and forkserver start methods need
        text = FAST_SIM + "sweep.axis = ic.A\nsweep.values = 0.1\n"
        point = partial(cli._sweep_point, parse_config(text, "sweep", tmp_path), tmp_path)
        row = pickle.loads(pickle.dumps(point))(0.1)
        assert row == point(0.1)
        assert row[1] in ("Dispersed", "MaxTimeReached")

    @pytest.mark.parametrize("key, code", [
        (1, EXIT_VALIDATION), (2, EXIT_VALIDATION), (3, EXIT_IO),
    ], ids=["ValueError", "ZeroDivisionError", "OSError"])
    def test_worker_errors_keep_their_exit_codes(self, tmp_path, monkeypatch, key, code):
        monkeypatch.setattr(cli, "_sweep_point", _failing_point)
        monkeypatch.setattr(simulator, "_cores", lambda: 2)
        text = CRITERIA_SWEEP.replace("2,3,4", f"{key},{key + 0.5}")
        for workers in (1, 2):
            spec = parse_config(text, "sweep", tmp_path / f"w{workers}")
            assert run_job(spec, workers=workers) == code

    def test_dead_worker_exits_5(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_sweep_point", _exit_worker)
        monkeypatch.setattr(simulator, "_cores", lambda: 2)
        spec = parse_config(CRITERIA_SWEEP, "sweep", tmp_path)
        assert run_job(spec, workers=2) == EXIT_IO
        assert not (tmp_path / "summary.csv").exists()
        assert not multiprocessing.active_children()


# fig3a's input on a short radius: all three levels of a two-refinement
# check collapse, in about 1.5 s of serial work
_COLLAPSE = (
    GaussianIC(4.5, 4.0, 1.0, 0.5),
    SystemParams(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=1.0),
    RadialGrid(4.0, 511),
    RunConfig(dt0=2e-4, dtMin=1e-8, tMax=0.1, sampleEvery=50),
)


def _grid_run(ic, params, grid, cfg):
    """A run that answers at once, with a tStop keyed on its grid."""
    trace = {"t": np.array([0.0, 1.0]), "S0": np.array([1.0, 1.0])}
    return RunOutcome("BlowupLike", 1.0 + grid.n, "None", trace)


class TestConvergencePool:
    """convergence_check runs its levels in worker processes, one per level
    up to the cores, with the serial report."""

    def test_pooled_report_equals_serial(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _counted_pool(sizes))
        monkeypatch.setattr(simulator, "_cores", lambda: 2)  # same path on any machine
        pooled = convergence_check(*_COLLAPSE, refinements=2)
        assert sizes == [2]
        assert not multiprocessing.active_children()
        monkeypatch.setattr(simulator, "_cores", lambda: 1)
        serial = convergence_check(*_COLLAPSE, refinements=2)
        assert sizes == [2]
        assert serial.verdicts == ["BlowupLike"] * 3 and serial.converged
        for f in fields(ConvergenceReport):
            assert getattr(pooled, f.name) == getattr(serial, f.name), f.name

    @pytest.mark.parametrize("cores, refinements, size", [
        (1, 2, None),  # one core: serial, no pool
        (8, 2, 3),  # one worker per level
        (2, 2, 2),  # capped at the cores
        (8, 1, 2),
    ])
    def test_one_worker_per_level(self, monkeypatch, cores, refinements, size):
        sizes, items = [], []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(sizes, items))
        monkeypatch.setattr(simulator, "_cores", lambda: cores)
        monkeypatch.setattr(simulator, "run", _grid_run)
        rep = convergence_check(*_COLLAPSE, refinements=refinements)
        ns = [511, 1023, 2047][: refinements + 1]
        assert sizes == ([] if size is None else [size])
        if size is not None:  # submitted finest first
            assert [grid.n for grid, _ in items] == ns[::-1]
        assert rep.tStops == [1.0 + n for n in ns]  # reported in level order

    def test_level_error_keeps_its_type(self, tmp_path, monkeypatch):
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _counted_pool(sizes))
        monkeypatch.setattr(simulator, "_cores", lambda: 2)
        text = FAST_SIM.replace("ic.A = 0.2", "ic.A = 1e80")  # E(0) = -inf
        spec = parse_config(text, "convergence", tmp_path / "lib")
        with pytest.raises(OverflowError):
            convergence_check(spec.ic, spec.params, spec.grid, spec.runConfig)
        assert not multiprocessing.active_children()
        cfg = tmp_path / "job.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert sizes == [2, 2]
        assert not (out / "convergence.txt").exists()
        assert not multiprocessing.active_children()

    def test_dead_worker_exits_5(self, tmp_path, monkeypatch):
        monkeypatch.setattr(simulator, "_run_level", _exit_worker)
        monkeypatch.setattr(simulator, "_cores", lambda: 2)
        cfg = tmp_path / "job.cfg"
        cfg.write_text(FAST_SIM)
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == EXIT_IO
        assert not (out / "convergence.txt").exists()
        assert not multiprocessing.active_children()


_SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code: str) -> str:
    """Standard output of code run in a new interpreter on this checkout."""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _numpy_exports_zgtsv() -> bool:
    """Whether numpy's LAPACK exports zgtsv as the simulator binds it."""
    from numpy.linalg import _umath_linalg
    return hasattr(ctypes.CDLL(_umath_linalg.__file__), "scipy_zgtsv_64_")


# the first lines of a fresh interpreter that binds the solver with numpy's
# symbol visible or hidden; zgtsv is the binding, sys and np are imported
_BIND = """
import ctypes, sys
import numpy as np
from ptnls import simulator
cdll = ctypes.CDLL
if {hide}:
    ctypes.CDLL = lambda path: object()
zgtsv = simulator._zgtsv()
ctypes.CDLL = cdll
"""

# prints whether scipy's zgtsv gives the bits of the bound one on a small
# tridiagonal system, and whether scipy.linalg solves
_SOLVES = """
import scipy.linalg, scipy.linalg.lapack
ops = [np.array(v, complex) for v in ([1, 2j], [4, 5, 6 + 1j], [1j, 3], [1, 2, 3])]
ours, theirs = (f(*(o.copy() for o in ops), overwrite_dl=1, overwrite_d=1, overwrite_du=1,
                  overwrite_b=1) for f in (zgtsv, scipy.linalg.lapack.zgtsv))
print(np.array_equal(ours[3], theirs[3]) and ours[4] == theirs[4] == 0)
a = np.array([[4.0, 1.0], [1.0, 3.0]])
print(np.allclose(scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), [1.0, 2.0]),
                  scipy.linalg.solve(a, [1.0, 2.0])))
"""


class TestScipyLoad:
    """The solver, zgtsv from numpy's LAPACK or else from scipy's LAPACK
    extension, binds at the first solve and brings neither scipy nor
    scipy.linalg; a pool whose workers solve binds it before it forks."""

    def test_only_a_solve_loads_scipy(self, tmp_path):
        # and only where numpy's LAPACK does not export zgtsv
        fig1a = "".join(f"{k} = {v}\n" for k, v in cli._FIG1_BASE.items())
        (tmp_path / "fig1a.cfg").write_text(fig1a)
        one_step = FAST_SIM.replace("run.t_max = 0.05", "run.t_max = 1e-3")  # = dt0
        (tmp_path / "step.cfg").write_text(one_step)
        out = _fresh(f"""
import sys
import ptnls, ptnls.cli

def loaded():
    return ptnls.simulator._zgtsv.cache_info().currsize, [m for m in sys.modules if "scipy" in m]

print(loaded())
code = ptnls.cli.main(["criteria", "--config", {str(tmp_path / "fig1a.cfg")!r},
                       "--out", {str(tmp_path / "crit")!r}])
print(code, loaded())
code = ptnls.cli.main(["simulate", "--config", {str(tmp_path / "step.cfg")!r},
                       "--out", {str(tmp_path / "sim")!r}])
print(code, loaded())
""")
        scipy = [] if _numpy_exports_zgtsv() else ["scipy.linalg._flapack"]
        assert out.split("\n") == ["(0, [])", f"{EXIT_OK} (0, [])",
                                    f"{EXIT_OK} (1, {scipy})", ""]
        assert (tmp_path / "crit" / "report.txt").exists()
        _, data = read_csv(tmp_path / "sim" / "trace.csv")
        assert data["t"].tolist() == [0.0, 1e-3]

    @pytest.mark.parametrize("hide", [False, True], ids=["numpy-visible", "numpy-hidden"])
    def test_solver_first_then_scipy_linalg_solves(self, hide):
        out = _fresh(_BIND.format(hide=hide) + """
print("scipy" in sys.modules, "scipy.linalg" in sys.modules)
""" + _SOLVES + """
print(zgtsv is scipy.linalg.lapack.zgtsv)
""")
        scipys = hide or not _numpy_exports_zgtsv()
        assert out == f"False False\nTrue\nTrue\n{scipys}\n"

    @pytest.mark.parametrize("hide", [False, True], ids=["numpy-visible", "numpy-hidden"])
    def test_scipy_linalg_first_then_the_solver(self, hide):
        out = _fresh("import scipy.linalg.lapack\n" + _BIND.format(hide=hide) + _SOLVES + """
print(zgtsv is scipy.linalg.lapack.zgtsv)
""")
        scipys = hide or not _numpy_exports_zgtsv()
        assert out == f"True\nTrue\n{scipys}\n"

    @pytest.mark.skipif(simulator._cores() < 2 or multiprocessing.get_start_method() != "fork",
                        reason="needs two cores and forked workers")
    def test_forked_workers_inherit_the_solver(self, tmp_path):
        # the two callers whose workers solve load the solver before they
        # fork; a criteria sweep, whose workers never solve, does not
        sweeps = _fresh(f"""
from pathlib import Path
from ptnls import cli, simulator

def point(spec, out, value):
    return value, str(simulator._zgtsv.cache_info().currsize), 0.0

cli._sweep_point = point
simulator._cores = lambda: 2
for target in ("criteria", "simulate"):
    out = Path({str(tmp_path)!r}) / target
    text = {CRITERIA_SWEEP!r}.replace("criteria\\n", target + "\\n")
    cli.run_job(cli.parse_config(text, "sweep", out), workers=2)
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    print(target, [row.split(",")[1] for row in rows], simulator._zgtsv.cache_info().currsize)
""")
        assert sweeps == ("criteria ['0', '0', '0'] 0\n"
                          "simulate ['1', '1', '1'] 1\n")
        levels = _fresh("""
import numpy as np
from ptnls import GaussianIC, RadialGrid, RunConfig, SystemParams, simulator

def level(ic, params, level):
    trace = {"t": np.array([0.0, 1.0]), "S0": np.array([1.0, 1.0])}
    return simulator.RunOutcome(str(simulator._zgtsv.cache_info().currsize), 1.0, "None", trace)

simulator._run_level = level
simulator._cores = lambda: 2
rep = simulator.convergence_check(GaussianIC(1.0, 1.0), SystemParams(gamma=0.5, kappa=1.0),
                                  RadialGrid(4.0, 31), RunConfig())
print(simulator._zgtsv.cache_info().currsize, rep.verdicts)
""")
        assert levels == "1 ['1', '1']\n"


_CRITERIA_KEYS = (
    "params.gamma", "params.kappa", "params.g1", "params.g2", "params.g",
    "ic.A", "ic.B", "ic.a", "ic.b", "criteria.horizon",
)
_EXTREMES = (0.0, -0.0, -1.0, 1e300, -1e300, 1e-300, 1e-320,
             math.nan, math.inf, -math.inf)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    values=st.dictionaries(
        st.sampled_from(_CRITERIA_KEYS),
        st.one_of(st.floats(0.05, 6), st.floats(-6, 6),
                  st.sampled_from(_EXTREMES), st.floats()),
        max_size=5,
    ),
    dim=st.one_of(st.just(3), st.sampled_from([1, 2, 4, 7, 10**6, 10**400])),
)
# c2 = 8e-321: beta = c3*gamma/c2 overflows, and the lemma bounds would be nan
@example(values={"params.kappa": 1e-320, "params.g2": 1e-320, "ic.A": 1e-320}, dim=3)
# F's gain coefficient 4 kappa S0 / gamma^2 overflows, so the lemmas would be nan
@example(values={"params.gamma": 1e-160}, dim=3)
# a t^2 = -inf meets the gain term's +inf in F, which is inf there, not nan
@example(values={"ic.A": 4.5, "ic.B": 6.0, "ic.a": 1.0, "ic.b": 0.5, "params.g": 1.0,
                 "criteria.horizon": 1e300}, dim=3)
def test_criteria_exits_with_a_documented_code(values, dim):
    text = "".join(f"{k} = {v!r}\n" for k, v in values.items())
    text += f"params.dim = {dim}\ncriteria.samples = 32\n"
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "job.cfg"
        cfg.write_text(text)
        code = main(["criteria", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
        if code == EXIT_OK:  # a written report holds finite numbers only
            report = (Path(tmp) / "out" / "report.txt").read_text()
            assert not re.search(r"\b(nan|inf)\b", report), report
            # and the bounds' trace, where there is one, may reach inf but not nan
            for trace in (Path(tmp) / "out").glob("*.csv"):
                assert "nan" not in trace.read_text(), trace.name
    if all(math.isfinite(v) for v in values.values()):
        assert code in (EXIT_OK, EXIT_VALIDATION)
    else:
        assert code == EXIT_PARSE


# Criteria mode only: an empty config runs the default criteria job in
# milliseconds, where an empty simulate config would run n = 7999 to t = 5.
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.binary(max_size=120))
@example(data=MINIMAL.encode() + b"params.g = 0.5\xff\n")
@example(data=b"criteria.samples = 100000000000000000\n")
def test_any_config_bytes_exit_with_a_documented_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "job.cfg"
        cfg.write_bytes(data)
        code = main(["criteria", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_SOLVER, EXIT_IO)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _jobspecs(draw):
    dt_min = draw(_positive)
    spec = JobSpec(
        mode=draw(st.sampled_from(["criteria", "simulate", "convergence"])),
        params=SystemParams(
            gamma=draw(st.floats(min_value=0.0, allow_infinity=False)),
            kappa=draw(_positive),
            g1=draw(_finite), g2=draw(_finite), g=draw(_finite),
            dim=draw(st.integers(1, 10**6)),
        ),
        ic=GaussianIC(draw(_positive), draw(_positive), draw(_positive), draw(_positive)),
        runConfig=RunConfig(
            dt0=draw(st.floats(min_value=dt_min, allow_infinity=False)),
            dtMin=dt_min,
            blowupRatio=draw(st.floats(min_value=1.0, exclude_min=True,
                                       allow_infinity=False)),
            tMax=draw(_positive),
            sampleEvery=draw(st.integers(1, 10**6)),
            cnIterations=draw(st.integers(1, 100)),
        ),
        grid=RadialGrid(L=draw(_positive), n=draw(st.integers(16, 10**6))),
        horizon=draw(st.none() | _finite),
        samples=draw(st.integers(1, 10**6)),
        outputDir=Path(draw(st.sampled_from([".", "out", "runs/a b"]))),
    )
    section = draw(st.sampled_from(["none", "sweep", "figure"]))
    if section == "sweep":
        spec = replace(
            spec, mode="sweep",
            sweepAxis=draw(st.sampled_from(sorted(cli._SWEEP_AXES))),
            sweepValues=tuple(draw(st.lists(_finite, min_size=1, max_size=5,
                                            unique=True))),
            sweepTarget=draw(st.sampled_from(["simulate", "criteria"])),
        )
    elif section == "figure":
        spec = replace(spec, mode="figure", figureId=draw(st.sampled_from(FIGURE_IDS)))
    return spec


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(spec=_jobspecs())
def test_jobspec_round_trips_and_pickles(spec):
    # the sweep pool ships this object to its workers
    assert parse_config(serialize_jobspec(spec), spec.mode, spec.outputDir) == spec
    assert pickle.loads(pickle.dumps(spec)) == spec


_SIMULATE_FREE_KEYS = (
    "params.gamma", "params.kappa", "params.g1", "params.g2", "params.g",
    "ic.A", "ic.B", "ic.a", "ic.b", "run.blowup_ratio", "grid.L",
)
_ANY_FLOAT = st.one_of(st.floats(0.05, 6), st.floats(-6, 6),
                       st.sampled_from(_EXTREMES), st.floats())


_SMALL_RUN = dict(t_max=0.01, steps=10.0, halvings=16.0, n=31, sample_every=50,
                  cn_iterations=2, dim=3)


# No example can run long: grid.n <= 127, run.cn_iterations <= 3,
# run.t_max <= 0.5 (or one of _EXTREMES), run.t_max/run.dt0 <= 40 and
# run.dt0/run.dt_min <= 16.  dt never grows, so a run takes at most
# t_max/dt_min <= 640 accepted steps plus four rejections, whatever t_max is.
# A ratio t_max/dt0 below 1 gives one step, clipped to the horizon.
@pytest.mark.filterwarnings("error::RuntimeWarning")  # no config, however extreme, warns
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    values=st.dictionaries(st.sampled_from(_SIMULATE_FREE_KEYS), _ANY_FLOAT, max_size=3),
    t_max=st.one_of(st.floats(1e-3, 0.5), st.sampled_from(_EXTREMES)),
    steps=st.floats(0.5, 40),
    halvings=st.floats(1, 16),
    n=st.integers(16, 127),
    sample_every=st.integers(1, 50),
    cn_iterations=st.integers(1, 3),
    dim=st.sampled_from([3] * 5 + [1, 4, 10**400]),
)
# r^2 overflows in the profile and in 1/r^2; r^2 underflows in 1/r^2; a width^2
# underflows in the profile; a width^2 overflows a float (exit 3, naming widthV)
@example(values={"grid.L": 1e300}, **_SMALL_RUN)
@example(values={"grid.L": 1e-300}, **_SMALL_RUN)
@example(values={"ic.a": 1e-200}, **_SMALL_RUN)
@example(values={"ic.b": 1e200}, **_SMALL_RUN)
def test_simulate_exits_with_a_documented_code(values, t_max, steps, halvings, n,
                                               sample_every, cn_iterations, dim):
    dt0 = t_max / steps
    values = {**values, "run.t_max": t_max, "run.dt0": dt0, "run.dt_min": dt0 / halvings}
    text = "".join(f"{k} = {v!r}\n" for k, v in values.items())
    text += (f"grid.n = {n}\nrun.sample_every = {sample_every}\n"
             f"run.cn_iterations = {cn_iterations}\nparams.dim = {dim}\n")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "job.cfg"
        cfg.write_text(text)
        code = main(["simulate", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
        if code == EXIT_OK:  # the run ended on or before its horizon
            outcome = (Path(tmp) / "out" / "outcome.txt").read_text()
            t_stop = float(re.search(r"tStop = (.*)", outcome).group(1))
            assert t_stop <= t_max, outcome
    if all(math.isfinite(v) for v in values.values()):
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_SOLVER)
    else:
        assert code == EXIT_PARSE


def _readme_key_table():
    """{key: default cell} from the key table in README's CLI section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command-line interface", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \| ([^|]+) \|", section, flags=re.M)
    return {key: cell.strip() for key, cell in rows}


def test_readme_documents_every_key_and_default():
    table = _readme_key_table()
    assert list(table) == list(cli._KEYS)
    for key, cell in table.items():
        default = cli._get(cli._DEFAULTS, key)
        if cell.startswith("none"):
            assert default is None, key
        else:
            assert cli._KEYS[key][2](cell.strip("`")) == default, key


def test_readme_documents_every_trace_column():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Simulator trace", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `(\w+)` \|", section, flags=re.M) == TRACE_COLUMNS
