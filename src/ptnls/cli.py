"""Batch front door: config parsing, job execution, CSV/report emission.

Usage: ptnls <mode> --config <file> [--out <dir>] [--workers k]
Modes: criteria, simulate, sweep, figure, convergence.

Config documents are line-oriented ``key = value`` with dotted section
keys (``params.gamma = 0.5``) and ``#`` comments.  Unknown and duplicate
keys are rejected.
"""

from __future__ import annotations

import argparse
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

@dataclass(frozen=True)
class JobSpec:
    mode: str
    params: SystemParams
    ic: GaussianIC
    runConfig: RunConfig
    grid: RadialGrid
    horizon: Optional[float] = None
    samples: int = crit._DEFAULT_SAMPLES
    sweepAxis: Optional[str] = None
    sweepValues: Optional[tuple] = None
    sweepTarget: str = "simulate"
    figureId: Optional[str] = None
    outputDir: Path = Path(".")


# Every config key: (JobSpec field, field inside it or None, value type).
# Parsing, defaults, serializing and the sweep axes all read this table.
_KEYS = {
    "params.gamma": ("params", "gamma", float),
    "params.kappa": ("params", "kappa", float),
    "params.g1": ("params", "g1", float),
    "params.g2": ("params", "g2", float),
    "params.g": ("params", "g", float),
    "params.dim": ("params", "dim", int),
    "ic.A": ("ic", "ampU", float),
    "ic.B": ("ic", "ampV", float),
    "ic.a": ("ic", "widthU", float),
    "ic.b": ("ic", "widthV", float),
    "run.dt0": ("runConfig", "dt0", float),
    "run.dt_min": ("runConfig", "dtMin", float),
    "run.blowup_ratio": ("runConfig", "blowupRatio", float),
    "run.t_max": ("runConfig", "tMax", float),
    "run.sample_every": ("runConfig", "sampleEvery", int),
    "run.cn_iterations": ("runConfig", "cnIterations", int),
    "grid.L": ("grid", "L", float),
    "grid.n": ("grid", "n", int),
    "criteria.horizon": ("horizon", None, float),
    "criteria.samples": ("samples", None, int),
    "sweep.axis": ("sweepAxis", None, str),
    "sweep.values": ("sweepValues", None, tuple),
    "sweep.target": ("sweepTarget", None, str),
    "figure.id": ("figureId", None, str),
}

# The values of the keys that a config leaves out.
_DEFAULTS = JobSpec("criteria", SystemParams(gamma=0.5, kappa=1.0),
                    GaussianIC(1.0, 1.0), RunConfig(), DEFAULT_GRID)

_SWEEP_AXES = {key for key, (attr, _, kind) in _KEYS.items()
               if attr in ("params", "ic") and kind is float}


def _get(spec: JobSpec, key: str):
    attr, name, _ = _KEYS[key]
    value = getattr(spec, attr)
    return value if name is None else getattr(value, name)


def _override(spec: JobSpec, kv: dict) -> JobSpec:
    """spec with the config keys in kv set.

    Each section is rebuilt by one constructor call, in table order, so its
    checks (such as dt0 >= dtMin) see the final values; a failed check
    raises ValueError or ConfigInvalid.
    """
    top, sections = {}, {}
    for key, (attr, name, _) in _KEYS.items():
        if key in kv and name is None:
            top[attr] = kv[key]
        elif key in kv:
            sections.setdefault(attr, {})[name] = kv[key]
    for attr, changes in sections.items():
        top[attr] = replace(getattr(spec, attr), **changes)
    return replace(spec, **top)


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
        if key not in _KEYS:
            raise ParseError(lineno, f"unknown key {key!r}")
        if not value:
            raise ParseError(lineno, f"empty value for {key!r}")
        kind = _KEYS[key][2]
        try:
            if kind is tuple:
                seen[key] = tuple(float(v) for v in value.split(","))
            else:
                seen[key] = kind(value)
        except ValueError:
            raise ParseError(lineno, f"cannot parse value {value!r} for {key!r}")
        if kind in (float, tuple) and not np.isfinite(seen[key]).all():
            raise ParseError(lineno, f"non-finite value {value!r} for {key!r}")
    try:
        spec = _override(replace(_DEFAULTS, mode=mode, outputDir=Path(out_dir)), seen)
    except (ValueError, ConfigInvalid) as exc:
        raise ValidationError(str(exc)) from exc
    if mode == "sweep":
        if spec.sweepAxis is None or spec.sweepValues is None:
            raise ValidationError("sweep mode needs sweep.axis and sweep.values")
        if spec.sweepAxis not in _SWEEP_AXES:
            raise ValidationError(f"unsupported sweep axis {spec.sweepAxis!r}")
        if spec.sweepTarget not in ("simulate", "criteria"):
            raise ValidationError(f"sweep.target must be simulate or criteria")
        if len(set(spec.sweepValues)) != len(spec.sweepValues):
            raise ValidationError("sweep.values must not repeat a value")
    if mode == "figure":
        if spec.figureId is None:
            raise ValidationError("figure mode needs figure.id")
        if spec.figureId not in FIGURE_IDS:
            raise ValidationError(f"unknown figure id {spec.figureId!r}")
    return spec


def serialize_jobspec(spec: JobSpec) -> str:
    """Config-document form of a JobSpec; parse_config round-trips it."""
    lines = []
    for key, (_, _, kind) in _KEYS.items():
        value = _get(spec, key)
        if value is not None:
            text = ",".join(map(str, value)) if kind is tuple else str(value)
            lines.append(f"{key} = {text}")
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
    horizon = crit.default_horizon(params) if spec.horizon is None else spec.horizon
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


def _sweep_point(spec: JobSpec, out: Path, value: float):
    """Run one sweep point into its own directory: (value, outcome, time)."""
    sub = _override(spec, {spec.sweepAxis: value})
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


# The bundled reference scenarios, keyed by figure id: (target, config
# keys set over the job's own, sweep axis, sweep values).
_FIG1_BASE = {"params.gamma": 0.5, "params.kappa": 1.0, "params.g1": 4.0,
              "params.g2": -1.0, "params.g": -0.5, "params.dim": 3,
              "ic.A": 5.8, "ic.B": 1.3, "ic.a": 1.0, "ic.b": 1.0}
_FIG2_BASE = {"params.gamma": 0.5, "params.kappa": 1.0, "params.g1": 1.0,
              "params.g2": 1.0, "params.g": -0.5, "params.dim": 3,
              "ic.A": 4.0, "ic.B": 2.0, "ic.a": 0.3, "ic.b": 0.1}
_FIG3_BASE = {"params.gamma": 0.5, "params.kappa": 1.0, "params.g1": 1.0,
              "params.g2": 1.0, "params.g": 1.0, "params.dim": 3,
              "ic.A": 4.5, "ic.B": 4.0, "ic.a": 1.0, "ic.b": 0.5}

FIGURES = {
    "fig1a": ("criteria", _FIG1_BASE, "ic.B", (1.3, 2.6, 3.9)),
    "fig1b": ("criteria", {**_FIG1_BASE, "ic.B": 0.9}, "params.gamma", (0.15, 0.3, 0.45)),
    "fig1c": ("criteria", {**_FIG1_BASE, "ic.B": 0.9}, "params.kappa", (0.4, 0.8, 1.2)),
    "fig2": ("criteria", _FIG2_BASE, None, None),
    "fig3a": ("simulate", _FIG3_BASE, "params.g", (1.0, -1.0, -2.0)),
    "fig3b": ("simulate", {**_FIG3_BASE, "params.gamma": 1.5},
              "params.g", (1.0, -1.0, -2.0)),
    "fig3c": ("simulate",
              {**_FIG3_BASE, "ic.A": 0.5, "ic.B": 2.7, "ic.a": 0.3, "ic.b": 0.3},
              "params.gamma", (0.5, 1.5)),
    "fig4a": ("simulate", {**_FIG3_BASE, "ic.B": 1.0}, "ic.A", (3.0, 6.0)),
    "fig4b": ("simulate", {**_FIG3_BASE, "ic.A": 1.0, "ic.B": 1.0},
              "params.gamma", (0.5, 0.9)),
}
FIGURE_IDS = tuple(FIGURES)

# fig2 runs its three input variants rather than a single axis.
_FIG2_VARIANTS = (("a", {}), ("c", {"ic.B": 3.0}), ("e", {"ic.b": 0.16}))


def _run_figure_job(spec: JobSpec, out: Path, workers: int):
    target, base, axis, values = FIGURES[spec.figureId]
    base = _override(spec, base)
    if spec.figureId == "fig2":
        for tag, variant in _FIG2_VARIANTS:
            sub_dir = out / f"panel_{tag}"
            sub_dir.mkdir(parents=True, exist_ok=True)
            _run_criteria_job(_override(base, variant), sub_dir)
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
