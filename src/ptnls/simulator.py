"""Radially symmetric 3D time evolution of the coupled gain/loss system.

Works in the reduced variables p = r*u, q = r*v on a uniform grid with zero
boundary values at r = 0 and r = L.  The stepper is Crank-Nicolson with the
nonlinear factor handled by lagged fixed-point correction; each corrector
pass solves the (p, q) pair, stacked, with one LAPACK zgtsv call, and
writes its operands into scratch arrays that run makes once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import zgtsv

from .errors import ConfigInvalid, SolverDiverged
from .functionals import TRACE_COLUMNS, grid_functionals
from .model import GaussianIC, SystemParams, evaluate_ic


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid of n interior nodes on [0, L]; dr = L/(n+1)."""

    L: float
    n: int

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise ValueError("L must be finite and > 0")
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError("n must be an integer")
        if self.n < 16:
            raise ValueError("need at least 16 interior nodes")

    @property
    def dr(self) -> float:
        return self.L / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.dr * np.arange(1, self.n + 1)

    @cached_property
    def inv_r2(self) -> np.ndarray:
        """1/r^2 at the nodes, made once per grid and read-only."""
        inv = 1.0 / self.nodes**2
        inv.flags.writeable = False
        return inv


@dataclass(frozen=True)
class RadialState:
    grid: RadialGrid
    p: np.ndarray
    q: np.ndarray
    t: float

    def __post_init__(self):
        if self.p.shape != (self.grid.n,) or self.q.shape != (self.grid.n,):
            raise ValueError("field arrays must match the grid")


# Desk-scale defaults; the reference resolution (dr ~ 1e-5) is far beyond
# what is practical here, so verdicts are qualitative.
@dataclass(frozen=True)
class RunConfig:
    dt0: float = 1e-4
    dtMin: float = 1e-8
    blowupRatio: float = 100.0
    tMax: float = 5.0
    sampleEvery: int = 100
    cnIterations: int = 2

    def __post_init__(self):
        # dtMin == dt0 is allowed (no adaptivity headroom; flagged by
        # convergence_check) but dtMin may never exceed dt0
        if not all(map(math.isfinite, (self.dt0, self.blowupRatio, self.tMax))):
            raise ConfigInvalid("dt0, blowupRatio and tMax must be finite")
        if not (self.dt0 >= self.dtMin > 0):
            raise ConfigInvalid("need dt0 >= dtMin > 0")
        if not self.blowupRatio > 1:
            raise ConfigInvalid("blowupRatio must be > 1")
        counts = (self.sampleEvery, self.cnIterations)
        if not all(isinstance(c, (int, np.integer)) for c in counts):
            raise ConfigInvalid("sampleEvery and cnIterations must be integers")
        if self.tMax <= 0 or self.sampleEvery < 1 or self.cnIterations < 1:
            raise ConfigInvalid("tMax, sampleEvery, cnIterations must be positive")


DEFAULT_GRID = RadialGrid(L=16.0, n=7999)  # dr = 2e-3


@dataclass(frozen=True)
class RunOutcome:
    verdict: str  # BlowupLike | Dispersed | MaxTimeReached | SolverDiverged
    tStop: float
    component: str  # U | V | Both | None
    trace: Dict[str, np.ndarray]  # TRACE_COLUMNS name -> one value per sample
    finalState: Optional[RadialState] = field(default=None, repr=False)


def load_initial(ic: GaussianIC, grid: RadialGrid, params: SystemParams) -> RadialState:
    """Sample the Gaussian inputs onto the grid in the p = r*u variables."""
    r = grid.nodes
    u0, v0 = evaluate_ic(ic, params, r)
    return RadialState(grid=grid, p=r * u0, q=r * v0, t=0.0)


def _tridiag_solve(diag, off, rhs, links=None):
    """Solve each row of rhs with that row of diag on the diagonal and off
    beside it, as one system whose off-diagonal is zero where two rows meet;
    elimination does not cross that zero link.  Overwrites diag and rhs,
    and returns the solution in rhs's memory.

    links, one row each for zgtsv's sub- and superdiagonal, is scratch
    space: it is filled here on every call, so one array serves every solve
    of a run with the same operands bit for bit.  With None a fresh one is
    made."""
    if not (np.isfinite(diag.view(float)).all() and np.isfinite(rhs.view(float)).all()):
        raise SolverDiverged("non-finite operands in the tridiagonal solve")
    if links is None:
        links = np.empty((2, diag.size - 1), complex)
    links.fill(off)
    links[:, diag.shape[-1] - 1 :: diag.shape[-1]] = 0
    *_, x, info = zgtsv(links[0], diag.ravel(), links[1], rhs.ravel(), overwrite_dl=1,
                        overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info != 0:
        raise SolverDiverged(f"tridiagonal solve failed: zgtsv info = {info}")
    return x.reshape(rhs.shape)


def _lap(f: np.ndarray, out: np.ndarray) -> np.ndarray:
    """dr^2 times the 3-point Laplacian along the last axis, zero outside."""
    np.multiply(-2.0, f, out=out)
    out[..., :-1] += f[..., 1:]
    out[..., 1:] += f[..., :-1]
    return out


def _abs2(f: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """|f|^2 as re^2 + im^2, which is cheaper than squaring np.abs (hypot)."""
    np.multiply(f.real, f.real, out=out)
    return np.add(out, np.multiply(f.imag, f.imag, out=scratch), out=out)


class _Workspace(NamedTuple):
    """Scratch arrays for the steps of one run on n nodes; every step
    overwrites them, so none outlives the step that wrote it."""

    f0: np.ndarray  # (2, n) complex: (p, q) at the old time level
    c0: np.ndarray  # (2, n) complex: the part of rhs fixed for the step
    diag: np.ndarray  # (2, n) complex: (1 + k gain) f0, i k w, then the diagonal
    coupling: np.ndarray  # (2, n) complex: i k kappa times the swapped guess
    f2_0: np.ndarray  # (2, n) float: |f0|^2
    f2m: np.ndarray  # (2, n) float: the midpoint |f|^2
    w: np.ndarray  # (2, n) float: k times the frozen nonlinear factor
    links: np.ndarray  # (2, 2n - 1) complex: zgtsv's off-diagonals


def _workspace(n: int) -> _Workspace:
    c = [np.empty((2, n), complex) for _ in range(4)]
    f = [np.empty((2, n)) for _ in range(3)]
    return _Workspace(*c, *f, np.empty((2, 2 * n - 1), complex))


def step(
    state: RadialState,
    params: SystemParams,
    dt: float,
    cn_iterations: int = 2,
    *,
    work: Optional[_Workspace] = None,
) -> RadialState:
    """One Crank-Nicolson step of size dt.

    The nonlinear factor w = r^-2 (g1|p|^2 + g|q|^2, g|p|^2 + g2|q|^2) is
    frozen at a midpoint estimate and used on both time levels (this keeps
    the linear solve a Cayley transform, hence power-conserving at
    gamma = 0); the linear coupling is averaged between the old level and
    the current corrector guess fs (f0 on the first pass).  With k = dt/2
    each pass solves, for f,

        (1 - k (i lap + gain + i w)) f
            = f0 + k (i lap f0 + gain f0 + i w f0) - i k kappa (f0 + fs)[::-1]

    where [::-1] swaps the p and q rows.  k is distributed over the terms,
    so that a pass forms only what depends on its guess:
    rhs = i k w f0 + c0 - i k kappa fs[::-1] and diag = dc - i k w, with
    c0 = f0 + k (i lap f0 + gain f0) - i k kappa f0[::-1] and
    dc = 1 - k (-2i/dr^2 + gain) formed once per step and 1/r^2 once per
    grid (RadialGrid.inv_r2).

    work holds scratch arrays from _workspace(grid.n), which run makes once
    and passes to every step; with None a fresh set is made.  Each step
    writes every one of them before it reads it, so the result does not
    depend on what they held.  Only each pass's right-hand side is new,
    because the solve returns the field in it; the returned state shares no
    memory with work.  Overflow raises no warning: the finiteness checks
    report it as SolverDiverged.
    """
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and > 0")
    if cn_iterations < 1:
        raise ValueError("cn_iterations must be >= 1")
    grid = state.grid
    work = _workspace(grid.n) if work is None else work
    k = dt / 2.0
    kr = k / grid.dr**2
    gain = np.array([[params.gamma], [-params.gamma]])
    g12 = np.array([[params.g1], [params.g2]])
    ik_kappa = 1j * k * params.kappa
    f0, c0, coupling, f2_0 = work.f0, work.c0, work.coupling, work.f2_0
    f0[0], f0[1] = state.p, state.q
    with np.errstate(over="ignore", invalid="ignore"):
        _abs2(f0, out=f2_0, scratch=work.w)
        # the first pass's coupling term is the f0 half of c0's
        np.multiply(ik_kappa, f0[::-1], out=coupling)
        np.multiply(1j * kr, _lap(f0, out=c0), out=c0)
        c0 += np.multiply(1.0 + k * gain, f0, out=work.diag)
        c0 -= coupling
        dc = 1.0 - k * gain + 2j * kr
        fs = f0
        for _ in range(cn_iterations):
            # k times the midpoint |f|^2 is k |f0|^2 on the first pass and
            # k/2 (|f0|^2 + |fs|^2) after it
            if fs is f0:
                f2m, scale = f2_0, k
            else:
                f2m = np.add(f2_0, _abs2(fs, out=work.f2m, scratch=work.w), out=work.f2m)
                scale = 0.5 * k
                np.multiply(ik_kappa, fs[::-1], out=coupling)
            kw = np.multiply(scale * params.g, f2m[::-1], out=work.w)
            kw += np.multiply(scale * g12, f2m, out=work.f2m)
            kw *= grid.inv_r2
            ikw = np.multiply(1j, kw, out=work.diag)
            rhs = np.multiply(ikw, f0)
            rhs += c0
            rhs -= coupling
            diag = np.subtract(dc, ikw, out=ikw)
            fs = _tridiag_solve(diag, -1j * kr, rhs, work.links)
    if not np.all(np.isfinite(fs.view(float))):
        raise SolverDiverged(f"non-finite field values at t={state.t + dt:g}")
    return replace(state, p=fs[0], q=fs[1], t=state.t + dt)


# Summing n steps of size dt leaves a rounding residue of up to about
# n * eps * tMax, i.e. n**2 * eps relative to dt; 1e-6 covers n up to ~1e5.
_RESIDUE = 1e-6


def _advance(state: RadialState, params: SystemParams, dt: float, cfg: RunConfig,
             work: Optional[_Workspace] = None):
    """One step of size dt, or of what is left of [0, cfg.tMax] if that is less,
    taken with the scratch arrays work.

    A remainder that exceeds dt by no more than a rounding residue is taken
    whole, so a run that reaches its horizon ends on tMax exactly rather than
    a residue short of it or one full step past it.  The caller's dt, the
    adaptive step carried into later steps, is left as it is.
    """
    rest = cfg.tMax - state.t
    if rest <= dt * (1.0 + _RESIDUE):
        last = step(state, params, rest, cfg.cnIterations, work=work)
        return replace(last, t=cfg.tMax)
    return step(state, params, dt, cfg.cnIterations, work=work)


def _origin_amp(state: RadialState) -> tuple:
    r1 = state.grid.dr
    return abs(state.p[0]) / r1, abs(state.q[0]) / r1


def _peak(state: RadialState) -> float:
    return max(np.max(np.abs(state.p)), np.max(np.abs(state.q)))


def run(
    ic: GaussianIC,
    params: SystemParams,
    grid: RadialGrid = DEFAULT_GRID,
    cfg: RunConfig = RunConfig(),
) -> RunOutcome:
    """Evolve until blowup-like growth, the time horizon, or divergence.

    One accept/reject loop: a step whose field peak max(|p|, |q|) grows by
    more than 5% is retried with dt halved, down to cfg.dtMin.  Accepted
    steps are counted and sampled every cfg.sampleEvery until an origin
    amplitude ratio first crosses cfg.blowupRatio.  A short grace phase
    follows, because collapsing components cross at slightly staggered
    times: its steps are neither counted nor sampled, and it ends when the
    smaller ratio stops growing, when both ratios have crossed, or when one
    reaches 2 * cfg.blowupRatio.  The component flag (U, V or Both) thus
    reflects joint growth rather than the tie-break of a single step.
    Divergence (a SolverDiverged step or a non-finite peak) ends a run as
    SolverDiverged before the crossing and ends the grace phase after it.
    A run whose t = 0 diagnostics are not finite raises OverflowError.

    'BlowupLike' deliberately hedges: it records that the origin amplitude
    ratio crossed cfg.blowupRatio, which is the presumable manifestation of
    the blowup, not a proof.  No step ends past cfg.tMax, so tStop <= tMax
    always, and a run that reaches its horizon stops at tStop == tMax.  The
    trace, one array per TRACE_COLUMNS name, always ends with a sample of
    the final state.
    """
    state = load_initial(ic, grid, params)
    u0_origin, v0_origin = _origin_amp(state)
    samples = [grid_functionals(state, params)]
    bad = [c for c, v in samples[0].items() if not math.isfinite(v)]
    if bad:
        raise OverflowError(f"t = 0 diagnostics not finite: {', '.join(bad)}")
    peak = max(_peak(state), 1e-300)
    work = _workspace(grid.n)
    dt = cfg.dt0
    steps = 0
    lag = None  # the smaller origin ratio, once one ratio has crossed
    diverged = False
    while state.t < cfg.tMax:
        try:
            new = _advance(state, params, dt, cfg, work)
        except SolverDiverged:
            new_peak = math.inf
        else:
            new_peak = _peak(new)
        if not math.isfinite(new_peak):
            diverged = lag is None
            break
        if new_peak / peak - 1.0 > 0.05 and dt / 2 >= cfg.dtMin:
            dt /= 2
            continue
        state, peak = new, max(new_peak, 1e-300)
        ou, ov = _origin_amp(state)
        ratio_u = ou / u0_origin if u0_origin > 0 else 0.0
        ratio_v = ov / v0_origin if v0_origin > 0 else 0.0
        if lag is None:
            steps += 1
            if steps % cfg.sampleEvery == 0:
                samples.append(grid_functionals(state, params))
            if max(ratio_u, ratio_v) < cfg.blowupRatio:
                continue
        elif min(ratio_u, ratio_v) <= lag:  # the laggard stopped growing
            break
        lag = min(ratio_u, ratio_v)
        if lag >= cfg.blowupRatio or max(ratio_u, ratio_v) >= 2 * cfg.blowupRatio:
            break
    if samples[-1]["t"] != state.t:
        samples.append(grid_functionals(state, params))
    trace = {c: np.array([s[c] for s in samples], dtype=float) for c in TRACE_COLUMNS}
    if diverged:
        return RunOutcome("SolverDiverged", state.t, "None", trace, state)
    if lag is not None:
        comp = (
            "Both" if min(ratio_u, ratio_v) >= cfg.blowupRatio
            else ("U" if ratio_u >= cfg.blowupRatio else "V")
        )
        return RunOutcome("BlowupLike", state.t, comp, trace, state)
    verdict = "MaxTimeReached"
    peak_u2, peak_v2 = trace["peakU2"], trace["peakV2"]
    peaks_bounded = (
        math.sqrt(peak_u2[-1]) < 2 * math.sqrt(peak_u2[0])
        and math.sqrt(peak_v2[-1]) < 2 * math.sqrt(peak_v2[0])
    )
    tail = trace["X"][trace["t"] >= 0.75 * cfg.tMax]
    msw_growing = tail.size >= 2 and bool(np.all(tail[1:] >= tail[:-1]))
    if peaks_bounded and msw_growing:
        verdict = "Dispersed"
    return RunOutcome(verdict, state.t, "None", trace, state)


@dataclass(frozen=True)
class ConvergenceReport:
    verdicts: List[str]
    tStops: List[float]
    tStopDiffs: List[float]
    traceDiffs: List[float]
    converged: bool
    adaptivityHeadroom: bool


def _refine_grid(grid: RadialGrid) -> RadialGrid:
    return RadialGrid(L=grid.L, n=2 * (grid.n + 1) - 1)


def convergence_check(
    ic: GaussianIC,
    params: SystemParams,
    grid: RadialGrid,
    cfg: RunConfig,
    refinements: int = 1,
) -> ConvergenceReport:
    """Rerun with dr and dt halved and report Cauchy differences.  converged
    needs one verdict for every run and differences that never grow; with one
    refinement there is no trend, so it says only that the verdicts agree."""
    if refinements < 1:
        raise ValueError("refinements must be >= 1")
    outcomes = [run(ic, params, grid, cfg)]
    g, c = grid, cfg
    for _ in range(refinements):
        g = _refine_grid(g)
        c = replace(c, dt0=c.dt0 / 2, dtMin=c.dtMin / 2)
        outcomes.append(run(ic, params, g, c))
    t_stops = [o.tStop for o in outcomes]
    t_stop_diffs = [abs(b - a) for a, b in zip(t_stops, t_stops[1:])]
    trace_diffs = []
    for a, b in zip(outcomes, outcomes[1:]):
        t_common = np.linspace(0.0, 0.9 * min(a.tStop, b.tStop), 32)
        if t_common[-1] <= 0:
            trace_diffs.append(float("nan"))
            continue
        sa = np.interp(t_common, a.trace["t"], a.trace["S0"])
        sb = np.interp(t_common, b.trace["t"], b.trace["S0"])
        trace_diffs.append(float(np.max(np.abs(sa - sb) / np.maximum(1.0, np.abs(sb)))))
    verdicts = [o.verdict for o in outcomes]
    converged = len(set(verdicts)) == 1 and all(
        b <= a for d in (t_stop_diffs, trace_diffs) for a, b in zip(d, d[1:]))
    return ConvergenceReport(
        verdicts=verdicts,
        tStops=t_stops,
        tStopDiffs=t_stop_diffs,
        traceDiffs=trace_diffs,
        converged=converged,
        adaptivityHeadroom=cfg.dt0 > cfg.dtMin,
    )
