"""Batch front door: config parsing, job execution, CSV/report emission.

Usage: ptnls <mode> --config <file> [--out <dir>] [--workers k]
Modes: criteria, simulate, sweep, figure, convergence.

Config documents are line-oriented ``key = value`` with dotted section
keys (``params.gamma = 0.5``) and ``#`` comments.  Unknown and duplicate
keys are rejected.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import criteria as crit
from .errors import (
    ConfigInvalid,
    NotManakov,
    ParseError,
    PtnlsError,
    RegimeViolation,
    SolverDiverged,
    ValidationError,
)
from .functionals import gaussian_moments
from .model import GaussianIC, SystemParams, classify_phase
from .simulator import (
    DEFAULT_GRID,
    RadialGrid,
    RunConfig,
    RunOutcome,
    convergence_check,
    run,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4
EXIT_IO = 5

MODES = ("criteria", "simulate", "sweep", "figure", "convergence")

FIGURE_IDS = (
    "fig1a",
    "fig1b",
    "fig1c",
    "fig2",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig4a",
    "fig4b",
)

_FLOAT_KEYS = {
    "params.gamma",
    "params.kappa",
    "params.g1",
    "params.g2",
    "params.g",
    "ic.A",
    "ic.B",
    "ic.a",
    "ic.b",
    "run.dt0",
    "run.dt_min",
    "run.blowup_ratio",
    "run.t_max",
    "grid.L",
    "criteria.horizon",
}
_INT_KEYS = {"params.dim", "run.sample_every", "run.cn_iterations", "grid.n", "criteria.samples"}
_STR_KEYS = {"sweep.axis", "sweep.target", "figure.id"}
_LIST_KEYS = {"sweep.values"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _LIST_KEYS

_SWEEP_AXES = {
    "params.gamma",
    "params.kappa",
    "params.g1",
    "params.g2",
    "params.g",
    "ic.A",
    "ic.B",
    "ic.a",
    "ic.b",
}


@dataclass(frozen=True)
class JobSpec:
    mode: str
    params: SystemParams
    ic: GaussianIC
    runConfig: RunConfig
    grid: RadialGrid
    horizon: Optional[float] = None
    samples: int = 4096
    sweepAxis: Optional[str] = None
    sweepValues: Optional[tuple] = None
    sweepTarget: str = "simulate"
    figureId: Optional[str] = None
    outputDir: Path = Path(".")


def parse_config(text: str, mode: str, out_dir: Path = Path(".")) -> JobSpec:
    """Parse a config document into a validated JobSpec with defaults."""
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    seen: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ParseError(lineno, f"duplicate key {key!r}")
        if key not in _ALL_KEYS:
            raise ParseError(lineno, f"unknown key {key!r}")
        if not value:
            raise ParseError(lineno, f"empty value for {key!r}")
        try:
            if key in _FLOAT_KEYS:
                seen[key] = float(value)
            elif key in _INT_KEYS:
                seen[key] = int(value)
            elif key in _LIST_KEYS:
                seen[key] = tuple(float(v) for v in value.split(","))
            else:
                seen[key] = value
        except ValueError:
            raise ParseError(lineno, f"cannot parse value {value!r} for {key!r}")
        if key in _FLOAT_KEYS | _LIST_KEYS and not np.isfinite(seen[key]).all():
            raise ParseError(lineno, f"non-finite value {value!r} for {key!r}")
    return _build_jobspec(mode, seen, out_dir)


def _build_jobspec(mode: str, kv: dict, out_dir: Path) -> JobSpec:
    try:
        params = SystemParams(
            gamma=kv.get("params.gamma", 0.5),
            kappa=kv.get("params.kappa", 1.0),
            g1=kv.get("params.g1", 1.0),
            g2=kv.get("params.g2", 1.0),
            g=kv.get("params.g", 1.0),
            dim=kv.get("params.dim", 3),
        )
        ic = GaussianIC(
            ampU=kv.get("ic.A", 1.0),
            ampV=kv.get("ic.B", 1.0),
            widthU=kv.get("ic.a", 1.0),
            widthV=kv.get("ic.b", 1.0),
        )
        run_cfg = RunConfig(
            dt0=kv.get("run.dt0", 1e-4),
            dtMin=kv.get("run.dt_min", 1e-8),
            blowupRatio=kv.get("run.blowup_ratio", 100.0),
            tMax=kv.get("run.t_max", 5.0),
            sampleEvery=kv.get("run.sample_every", 100),
            cnIterations=kv.get("run.cn_iterations", 2),
        )
        grid = RadialGrid(
            L=kv.get("grid.L", DEFAULT_GRID.L), n=kv.get("grid.n", DEFAULT_GRID.n)
        )
    except (ValueError, ConfigInvalid) as exc:
        raise ValidationError(str(exc)) from exc
    sweep_axis = kv.get("sweep.axis")
    sweep_values = kv.get("sweep.values")
    sweep_target = kv.get("sweep.target", "simulate")
    figure_id = kv.get("figure.id")
    if mode == "sweep":
        if sweep_axis is None or sweep_values is None:
            raise ValidationError("sweep mode needs sweep.axis and sweep.values")
        if sweep_axis not in _SWEEP_AXES:
            raise ValidationError(f"unsupported sweep axis {sweep_axis!r}")
        if sweep_target not in ("simulate", "criteria"):
            raise ValidationError(f"sweep.target must be simulate or criteria")
        if len(set(sweep_values)) != len(sweep_values):
            raise ValidationError("sweep.values must not repeat a value")
    if mode == "figure":
        if figure_id is None:
            raise ValidationError("figure mode needs figure.id")
        if figure_id not in FIGURE_IDS:
            raise ValidationError(f"unknown figure id {figure_id!r}")
    return JobSpec(
        mode=mode,
        params=params,
        ic=ic,
        runConfig=run_cfg,
        grid=grid,
        horizon=kv.get("criteria.horizon"),
        samples=kv.get("criteria.samples", 4096),
        sweepAxis=sweep_axis,
        sweepValues=sweep_values,
        sweepTarget=sweep_target,
        figureId=figure_id,
        outputDir=Path(out_dir),
    )


def serialize_jobspec(spec: JobSpec) -> str:
    """Config-document form of a JobSpec; parse_config round-trips it."""
    lines = [
        f"params.gamma = {spec.params.gamma!r}",
        f"params.kappa = {spec.params.kappa!r}",
        f"params.g1 = {spec.params.g1!r}",
        f"params.g2 = {spec.params.g2!r}",
        f"params.g = {spec.params.g!r}",
        f"params.dim = {spec.params.dim}",
        f"ic.A = {spec.ic.ampU!r}",
        f"ic.B = {spec.ic.ampV!r}",
        f"ic.a = {spec.ic.widthU!r}",
        f"ic.b = {spec.ic.widthV!r}",
        f"run.dt0 = {spec.runConfig.dt0!r}",
        f"run.dt_min = {spec.runConfig.dtMin!r}",
        f"run.blowup_ratio = {spec.runConfig.blowupRatio!r}",
        f"run.t_max = {spec.runConfig.tMax!r}",
        f"run.sample_every = {spec.runConfig.sampleEvery}",
        f"run.cn_iterations = {spec.runConfig.cnIterations}",
        f"grid.L = {spec.grid.L!r}",
        f"grid.n = {spec.grid.n}",
        f"criteria.samples = {spec.samples}",
    ]
    if spec.horizon is not None:
        lines.append(f"criteria.horizon = {spec.horizon!r}")
    if spec.sweepAxis is not None:
        lines.append(f"sweep.axis = {spec.sweepAxis}")
        lines.append("sweep.values = " + ",".join(repr(v) for v in spec.sweepValues))
        lines.append(f"sweep.target = {spec.sweepTarget}")
    if spec.figureId is not None:
        lines.append(f"figure.id = {spec.figureId}")
    return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12e}"


def write_csv(path: Path, header: list, columns: list):
    rows = zip(*columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path: Path):
    """Reload a CSV written by write_csv: (header, dict of float columns)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        return header, {h: np.empty(0) for h in header}
    return header, {h: data[:, i] for i, h in enumerate(header)}


TRACE_COLUMNS = [
    "t",
    "S0",
    "S1",
    "S2",
    "S3",
    "E",
    "X",
    "Y",
    "peakU2",
    "peakV2",
    "originU",
    "originV",
]


def write_trace(path: Path, outcome: RunOutcome):
    tr = outcome.trace
    cols = [
        [s.t for s in tr],
        [s.stokes.s0 for s in tr],
        [s.stokes.s1 for s in tr],
        [s.stokes.s2 for s in tr],
        [s.stokes.s3 for s in tr],
        [s.energy for s in tr],
        [s.msw for s in tr],
        [s.mswRate for s in tr],
        [s.peakU2 for s in tr],
        [s.peakV2 for s in tr],
        [s.originU for s in tr],
        [s.originV for s in tr],
    ]
    write_csv(path, TRACE_COLUMNS, cols)


def _run_criteria_job(spec: JobSpec, out: Path):
    """Write report.txt and criteria.csv; return the Theorem1/2 report or None."""
    params, ic = spec.params, spec.ic
    initial = gaussian_moments(ic, params)
    horizon = spec.horizon or crit.default_horizon(params)
    lines = [
        "# column order in criteria.csv: see header row",
        f"phase = {classify_phase(params).value}",
        f"S0(0) = {initial.s0!r}",
        f"S1(0) = {initial.s1!r}",
        f"S3(0) = {initial.s3!r}",
        f"E(0) = {initial.energy!r}",
        f"X(0) = {initial.msw!r}",
        f"Y(0) = {initial.mswRate!r}",
        f"horizon = {horizon!r}",
    ]
    cc = crit.constants(params)
    lines.append(f"c1 = {cc.c1!r}")
    lines.append(f"c2 = {cc.c2!r}")
    lines.append(f"c3 = {cc.c3!r}")
    lines.append(f"c4 = {cc.c4!r}")
    rep = None
    if crit.in_focusing_regime(params):
        rep = crit.check_theorem1(initial, params, horizon, spec.samples)
        lines.append(f"theorem1.satisfied = {rep.satisfied}")
        lines.append(f"theorem1.T0 = {rep.certifiedTime!r}")
        lem1 = crit.lemma1_threshold(initial, params)
        lem2 = crit.lemma2_threshold(initial, params)
        lines.append(f"lemma1.satisfied = {lem1['satisfied']}")
        lines.append(f"lemma1.E0bound = {lem1['E0bound']!r}")
        lines.append(f"lemma2.satisfied = {lem2['satisfied']}")
        lines.append(f"lemma2.Y0bound = {lem2['Y0bound']!r}")
        tr = rep.functionTrace
        write_csv(out / "criteria.csv", ["t", "F", "M", "G"],
                  [tr["t"], tr["F"], tr["M"], tr["G"]])
    if crit.in_early_collapse_regime(params):
        rep = crit.check_theorem2(initial, params, horizon, spec.samples)
        lines.append(f"theorem2.satisfied = {rep.satisfied}")
        lines.append(f"theorem2.Tstar = {rep.certifiedTime!r}")
        tr = rep.functionTrace
        write_csv(out / "criteria.csv", ["t", "Z"], [tr["t"], tr["Z"]])
    try:
        inv = crit.manakov_invariants(initial, params)
        lines.append(f"manakov.S1const = {inv['S1const']!r}")
        lines.append(f"manakov.Sconst = {inv['Sconst']!r}")
        if inv["oscillation"]:
            for k, v in inv["oscillation"].items():
                lines.append(f"manakov.{k} = {v!r}")
        if params.g > 0 and params.dim >= 3:
            repm = crit.check_manakov_theorem(initial, params, horizon, spec.samples)
            lines.append(f"manakov.satisfied = {repm.satisfied}")
            lines.append(f"manakov.T0 = {repm.certifiedTime!r}")
    except NotManakov:
        pass
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rep


def _run_simulate_job(spec: JobSpec, out: Path) -> RunOutcome:
    """Run the simulator and write trace.csv and outcome.txt."""
    outcome = run(spec.ic, spec.params, spec.grid, spec.runConfig)
    write_trace(out / "trace.csv", outcome)
    (out / "outcome.txt").write_text(
        f"verdict = {outcome.verdict}\n"
        f"tStop = {outcome.tStop!r}\n"
        f"component = {outcome.component}\n",
        encoding="utf-8",
    )
    return outcome


def _set_axis(spec: JobSpec, axis: str, value: float) -> JobSpec:
    section, name = axis.split(".")
    if section == "params":
        return replace(spec, params=dataclasses.replace(spec.params, **{name: value}))
    field_map = {"A": "ampU", "B": "ampV", "a": "widthU", "b": "widthV"}
    return replace(spec, ic=dataclasses.replace(spec.ic, **{field_map[name]: value}))


def _sweep_point(spec: JobSpec, out: Path, value: float):
    """Run one sweep point into its own directory: (value, outcome, time)."""
    sub = _set_axis(spec, spec.sweepAxis, value)
    name = repr(value).removesuffix(".0")  # unique per float; A=2, not A=2.0
    sub_dir = out / f"{spec.sweepAxis.split('.')[1]}={name}"
    sub_dir.mkdir(parents=True, exist_ok=True)
    if spec.sweepTarget == "criteria":
        rep = _run_criteria_job(sub, sub_dir)
        if rep is None:
            raise RegimeViolation("sweep.target = criteria needs the "
                                  "focusing or early-collapse regime")
        outcome = "satisfied" if rep.satisfied else "not-satisfied"
        tval = rep.certifiedTime if rep.certifiedTime is not None else math.nan
        return value, outcome, tval
    outcome = _run_simulate_job(sub, sub_dir)
    return value, outcome.verdict, outcome.tStop


def _cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_sweep_job(spec: JobSpec, out: Path, workers: int):
    workers = min(workers, len(spec.sweepValues), _cores())
    if workers > 1:  # the partial pickles by reference, so any start method works
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(partial(_sweep_point, spec, out), spec.sweepValues))
    else:
        rows = [_sweep_point(spec, out, v) for v in spec.sweepValues]
    with open(out / "summary.csv", "w", encoding="utf-8") as fh:
        fh.write("value,outcome,time\n")
        for value, outcome, tval in rows:
            fh.write(f"{_fmt(value)},{outcome},{_fmt(tval)}\n")


# Parameter sets of the bundled reference scenarios, keyed by figure id.
_FIG1_BASE = dict(gamma=0.5, kappa=1.0, g1=4.0, g2=-1.0, g=-0.5,
                  A=5.8, B=1.3, a=1.0, b=1.0)
_FIG2_BASE = dict(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=-0.5,
                  A=4.0, B=2.0, a=0.3, b=0.1)
_FIG3_BASE = dict(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=1.0,
                  A=4.5, B=4.0, a=1.0, b=0.5)

FIGURES = {
    "fig1a": ("criteria", _FIG1_BASE, "ic.B", (1.3, 2.6, 3.9)),
    "fig1b": ("criteria", {**_FIG1_BASE, "B": 0.9}, "params.gamma", (0.15, 0.3, 0.45)),
    "fig1c": ("criteria", {**_FIG1_BASE, "B": 0.9}, "params.kappa", (0.4, 0.8, 1.2)),
    "fig2": ("criteria", _FIG2_BASE, None, None),
    "fig3a": ("simulate", _FIG3_BASE, "params.g", (1.0, -1.0, -2.0)),
    "fig3b": ("simulate", {**_FIG3_BASE, "gamma": 1.5}, "params.g", (1.0, -1.0, -2.0)),
    "fig3c": (
        "simulate",
        {**_FIG3_BASE, "A": 0.5, "B": 2.7, "a": 0.3, "b": 0.3, "g": 1.0},
        "params.gamma",
        (0.5, 1.5),
    ),
    "fig4a": (
        "simulate",
        {**_FIG3_BASE, "B": 1.0, "a": 1.0, "b": 0.5, "g": 1.0},
        "ic.A",
        (3.0, 6.0),
    ),
    "fig4b": (
        "simulate",
        {**_FIG3_BASE, "A": 1.0, "B": 1.0, "a": 1.0, "b": 0.5, "g": 1.0},
        "params.gamma",
        (0.5, 0.9),
    ),
}

# fig2 runs its three input variants rather than a single axis.
_FIG2_VARIANTS = (("a", {}), ("c", {"B": 3.0}), ("e", {"b": 0.16}))


def _apply_figure(spec: JobSpec, figure_id: str) -> JobSpec:
    _, base, _, _ = FIGURES[figure_id]
    params = dataclasses.replace(
        spec.params,
        gamma=base["gamma"],
        kappa=base["kappa"],
        g1=base["g1"],
        g2=base["g2"],
        g=base["g"],
        dim=3,
    )
    ic = GaussianIC(ampU=base["A"], ampV=base["B"], widthU=base["a"], widthV=base["b"])
    return replace(spec, params=params, ic=ic)


def _run_figure_job(spec: JobSpec, out: Path, workers: int):
    fig = spec.figureId
    target, _, axis, values = FIGURES[fig]
    base = _apply_figure(spec, fig)
    if fig == "fig2":
        for tag, override in _FIG2_VARIANTS:
            sub = base
            for k, v in override.items():
                sub = _set_axis(sub, f"ic.{k}", v)
            sub_dir = out / f"panel_{tag}"
            sub_dir.mkdir(parents=True, exist_ok=True)
            _run_criteria_job(sub, sub_dir)
        return
    sweep = replace(
        base, sweepAxis=axis, sweepValues=values, sweepTarget=target, mode="sweep"
    )
    _run_sweep_job(sweep, out, workers)


def _run_convergence_job(spec: JobSpec, out: Path):
    rep = convergence_check(spec.ic, spec.params, spec.grid, spec.runConfig, 1)
    lines = [
        f"verdicts = {','.join(rep.verdicts)}",
        f"tStops = {','.join(repr(t) for t in rep.tStops)}",
        f"tStopDiffs = {','.join(repr(d) for d in rep.tStopDiffs)}",
        f"traceDiffs = {','.join(repr(d) for d in rep.traceDiffs)}",
        f"converged = {rep.converged}",
        f"adaptivityHeadroom = {rep.adaptivityHeadroom}",
    ]
    (out / "convergence.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_job(spec: JobSpec, workers: int = 1) -> int:
    """Execute a parsed job; returns a process exit status."""
    try:
        out = spec.outputDir
        out.mkdir(parents=True, exist_ok=True)
        if spec.mode == "criteria":
            _run_criteria_job(spec, out)
        elif spec.mode == "simulate":
            outcome = _run_simulate_job(spec, out)
            if outcome.verdict == "SolverDiverged":
                raise SolverDiverged(f"run diverged at t={outcome.tStop:g}")
        elif spec.mode == "sweep":
            _run_sweep_job(spec, out, workers)
        elif spec.mode == "figure":
            _run_figure_job(spec, out, workers)
        elif spec.mode == "convergence":
            _run_convergence_job(spec, out)
        else:
            raise ValidationError(f"unknown mode {spec.mode!r}")
    except SolverDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, BrokenProcessPool) as exc:  # BrokenProcessPool: a worker died
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (PtnlsError, ValueError, ArithmeticError) as exc:  # inputs out of reach
        msg = exc if isinstance(exc, PtnlsError) else repr(exc)
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ptnls",
        description="Blowup criteria and radial simulation for coupled "
        "gain/loss NLS equations.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="config document path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        spec = parse_config(text, args.mode, Path(args.out))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, PtnlsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run_job(spec, workers=max(1, args.workers))


if __name__ == "__main__":
    sys.exit(main())
