"""Radially symmetric 3D time evolution of the coupled gain/loss system.

Works in the reduced variables p = r*u, q = r*v on a uniform grid with zero
boundary values at r = 0 and r = L.  The stepper is Crank-Nicolson with the
nonlinear factor handled by lagged fixed-point correction; each corrector
pass solves one complex tridiagonal system per component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np
from scipy.linalg import solve_banded

from .errors import ConfigInvalid, SolverDiverged
from .functionals import DiagnosticsSample, grid_functionals
from .model import GaussianIC, SystemParams, evaluate_ic


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid of n interior nodes on [0, L]; dr = L/(n+1)."""

    L: float
    n: int

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise ValueError("L must be finite and > 0")
        if self.n < 16:
            raise ValueError("need at least 16 interior nodes")

    @property
    def dr(self) -> float:
        return self.L / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.dr * np.arange(1, self.n + 1)


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
        if self.tMax <= 0 or self.sampleEvery < 1 or self.cnIterations < 1:
            raise ConfigInvalid("tMax, sampleEvery, cnIterations must be positive")


DEFAULT_GRID = RadialGrid(L=16.0, n=7999)  # dr = 2e-3


@dataclass(frozen=True)
class RunOutcome:
    verdict: str  # BlowupLike | Dispersed | MaxTimeReached | SolverDiverged
    tStop: float
    component: str  # U | V | Both | None
    trace: List[DiagnosticsSample]
    finalState: Optional[RadialState] = field(default=None, repr=False)


def load_initial(ic: GaussianIC, grid: RadialGrid, params: SystemParams) -> RadialState:
    """Sample the Gaussian inputs onto the grid in the p = r*u variables."""
    r = grid.nodes
    u0, v0 = evaluate_ic(ic, params, r)
    return RadialState(grid=grid, p=r * u0, q=r * v0, t=0.0)


def _tridiag_solve(diag, off, rhs):
    ab = np.zeros((3, diag.size), dtype=complex)
    ab[0, 1:] = off
    ab[1, :] = diag
    ab[2, :-1] = off
    try:
        return solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SolverDiverged(f"tridiagonal solve failed: {exc}") from exc


def _lap(f: np.ndarray, dr: float) -> np.ndarray:
    out = -2.0 * f
    out[:-1] += f[1:]
    out[1:] += f[:-1]
    return out / dr**2


def step(
    state: RadialState,
    params: SystemParams,
    dt: float,
    cn_iterations: int = 2,
) -> RadialState:
    """One Crank-Nicolson step of size dt.

    The nonlinear factor r^-2(g1|p|^2 + g|q|^2) is frozen at a midpoint
    estimate and used on both time levels (this keeps the linear solve a
    Cayley transform, hence power-conserving at gamma = 0); the linear
    coupling is averaged between the old level and the current corrector
    guess.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    grid = state.grid
    dr = grid.dr
    r2 = grid.nodes**2
    gamma, kappa = params.gamma, params.kappa
    g1, g2, g = params.g1, params.g2, params.g
    k = dt / 2.0
    off = -1j * k / dr**2
    p0, q0 = state.p, state.q
    p2_0, q2_0 = np.abs(p0) ** 2, np.abs(q0) ** 2
    lap_p0 = _lap(p0, dr)
    lap_q0 = _lap(q0, dr)
    ps, qs = p0, q0
    for _ in range(cn_iterations):
        p2m = 0.5 * (p2_0 + np.abs(ps) ** 2)
        q2m = 0.5 * (q2_0 + np.abs(qs) ** 2)
        w_p = (g1 * p2m + g * q2m) / r2
        w_q = (g * p2m + g2 * q2m) / r2
        rhs_p = (
            p0
            + k * (1j * lap_p0 + gamma * p0 + 1j * w_p * p0)
            - 1j * k * kappa * (q0 + qs)
        )
        rhs_q = (
            q0
            + k * (1j * lap_q0 - gamma * q0 + 1j * w_q * q0)
            - 1j * k * kappa * (p0 + ps)
        )
        diag_p = 1.0 - k * (-2j / dr**2 + gamma + 1j * w_p)
        diag_q = 1.0 - k * (-2j / dr**2 - gamma + 1j * w_q)
        ps = _tridiag_solve(diag_p, off, rhs_p)
        qs = _tridiag_solve(diag_q, off, rhs_q)
    if not (np.all(np.isfinite(ps.view(float))) and np.all(np.isfinite(qs.view(float)))):
        raise SolverDiverged(f"non-finite field values at t={state.t + dt:g}")
    return replace(state, p=ps, q=qs, t=state.t + dt)


# Summing n steps of size dt leaves a rounding residue of up to about
# n * eps * tMax, i.e. n**2 * eps relative to dt; 1e-6 covers n up to ~1e5.
_RESIDUE = 1e-6


def _advance(state: RadialState, params: SystemParams, dt: float, cfg: RunConfig):
    """One step of size dt, or of what is left of [0, cfg.tMax] if that is less.

    A remainder that exceeds dt by no more than a rounding residue is taken
    whole, so a run that reaches its horizon ends on tMax exactly rather than
    a residue short of it or one full step past it.  The caller's dt, the
    adaptive step carried into later steps, is left as it is.
    """
    rest = cfg.tMax - state.t
    if rest <= dt * (1.0 + _RESIDUE):
        return replace(step(state, params, rest, cfg.cnIterations), t=cfg.tMax)
    return step(state, params, dt, cfg.cnIterations)


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

    'BlowupLike' deliberately hedges: it records that the origin amplitude
    ratio crossed cfg.blowupRatio, which is the presumable manifestation of
    the blowup, not a proof.  No step ends past cfg.tMax, so tStop <= tMax
    always, and a run that reaches its horizon stops at tStop == tMax.  The
    trace always ends with a sample of the final state.
    """
    state = load_initial(ic, grid, params)
    u0_origin, v0_origin = _origin_amp(state)
    trace = [grid_functionals(state, params)]
    peak_u0 = math.sqrt(trace[0].peakU2)
    peak_v0 = math.sqrt(trace[0].peakV2)
    peak = max(_peak(state), 1e-300)
    dt = cfg.dt0
    steps = 0
    lag = None  # the smaller origin ratio, once one ratio has crossed
    diverged = False
    while state.t < cfg.tMax:
        try:
            new = _advance(state, params, dt, cfg)
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
                trace.append(grid_functionals(state, params))
            if max(ratio_u, ratio_v) < cfg.blowupRatio:
                continue
        elif min(ratio_u, ratio_v) <= lag:  # the laggard stopped growing
            break
        lag = min(ratio_u, ratio_v)
        if lag >= cfg.blowupRatio or max(ratio_u, ratio_v) >= 2 * cfg.blowupRatio:
            break
    if trace[-1].t != state.t:
        trace.append(grid_functionals(state, params))
    if diverged:
        return RunOutcome("SolverDiverged", state.t, "None", trace, state)
    if lag is not None:
        comp = (
            "Both" if min(ratio_u, ratio_v) >= cfg.blowupRatio
            else ("U" if ratio_u >= cfg.blowupRatio else "V")
        )
        return RunOutcome("BlowupLike", state.t, comp, trace, state)
    verdict = "MaxTimeReached"
    last = trace[-1]
    peaks_bounded = (
        math.sqrt(last.peakU2) < 2 * peak_u0 and math.sqrt(last.peakV2) < 2 * peak_v0
    )
    tail = [s for s in trace if s.t >= 0.75 * cfg.tMax]
    msw_growing = len(tail) >= 2 and all(
        b.msw >= a.msw for a, b in zip(tail, tail[1:])
    )
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
    """Rerun with dr and dt halved and report Cauchy differences."""
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
        sa = np.interp(t_common, [s.t for s in a.trace], [s.stokes.s0 for s in a.trace])
        sb = np.interp(t_common, [s.t for s in b.trace], [s.stokes.s0 for s in b.trace])
        trace_diffs.append(float(np.max(np.abs(sa - sb) / np.maximum(1.0, np.abs(sb)))))
    converged = all(
        b <= a for a, b in zip(t_stop_diffs, t_stop_diffs[1:])
    ) and all(b <= a for a, b in zip(trace_diffs, trace_diffs[1:]))
    return ConvergenceReport(
        verdicts=[o.verdict for o in outcomes],
        tStops=t_stops,
        tStopDiffs=t_stop_diffs,
        traceDiffs=trace_diffs,
        converged=converged,
        adaptivityHeadroom=cfg.dt0 > cfg.dtMin,
    )
