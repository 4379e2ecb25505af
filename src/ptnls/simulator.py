"""Radially symmetric 3D time evolution of the coupled gain/loss system.

Works in the reduced variables p = r*u, q = r*v, held as the rows of one
(2, n) array, on a uniform grid with zero boundary values at r = 0 and
r = L.  The stepper is Crank-Nicolson with the nonlinear factor handled by
lagged fixed-point correction; each corrector pass solves the (p, q) pair
in Cayley form with one LAPACK zgtsv call, and writes its operands into
scratch arrays that the accept/reject loop makes once per run.  What a
pass needs that depends only on dt, the grid and the coefficients comes
from _operator, which memoizes its last call, so it is made again only
when one of them changes.

zgtsv is bound at the first solve, not with this module (_zgtsv), and
first from the LAPACK that numpy has already loaded, so that a solving
process maps one OpenBLAS and loads nothing of scipy: a one-step simulate
on 999 nodes peaks at 30.8 MB against 33.4 MB with scipy's extension.
Where numpy does not export the routine, the fallback is scipy's LAPACK
extension alone: importing scipy.linalg would bring about 300 more modules
and take about 0.2 s, and the closed-form criteria never solve, so
`import ptnls` and a `ptnls criteria` job load nothing of scipy (README,
"Install and test", quotes the measured numbers).  convergence_check and a
simulate sweep bind the solver before they start a worker pool, so workers
forked from a parent that has not solved yet inherit it rather than each
loading it again, which saves each 5-10 ms on the fallback path and about
0.1 ms on numpy's; a spawn or forkserver worker binds it itself at its
first solve.  ProcessPoolExecutor, which brings multiprocessing and
socket, is likewise imported at the first pool.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, lru_cache, partial
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

import numpy as np

from .errors import ConfigInvalid, SolverDiverged
from .functionals import TRACE_COLUMNS, _abs2, grid_functionals
from .model import GaussianIC, SystemParams, _is_int, evaluate_ic


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid of n interior nodes on [0, L]; dr = L/(n+1)."""

    L: float
    n: int

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise ValueError("L must be finite and > 0")
        if not _is_int(self.n):
            raise ValueError("n must be an integer")
        if self.n < 16:
            raise ValueError("need at least 16 interior nodes")

    @property
    def dr(self) -> float:
        return self.L / (self.n + 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        """The interior nodes r = dr, 2 dr, ..., n dr, made once per grid and
        read-only."""
        r = self.dr * np.arange(1, self.n + 1)
        r.flags.writeable = False
        return r

    @cached_property
    def inv_r2(self) -> np.ndarray:
        """1/r^2 at the nodes, made once per grid and read-only; inf where
        r^2 underflows to 0 and 0 where it overflows, without a warning."""
        with np.errstate(over="ignore", divide="ignore"):
            inv = 1.0 / self.nodes**2
        inv.flags.writeable = False
        return inv


@dataclass(frozen=True)
class RadialState:
    """The field at time t on the grid's interior nodes: row 0 of f is
    p = r*u and row 1 is q = r*v."""

    grid: RadialGrid
    f: np.ndarray
    t: float

    def __post_init__(self):
        if self.f.shape != (2, self.grid.n):
            raise ValueError("the field must have shape (2, grid.n)")


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
        if not all(map(_is_int, (self.sampleEvery, self.cnIterations))):
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
    return RadialState(grid=grid, f=r * np.array(evaluate_ic(ic, params, r)), t=0.0)


@cache
def _zgtsv():
    """LAPACK's zgtsv, bound at the first call, as zgtsv(dl, d, du, b,
    overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1), which
    solves in place and returns (dl, d, du, x, info), x in b's memory.

    It is numpy's own LAPACK where that exports the routine: the standard
    numpy wheels bundle scipy-openblas64, and the handle of
    numpy.linalg._umath_linalg resolves its ILP64 symbol scipy_zgtsv_64_,
    which ctypes calls with 64-bit integers.  That binding checks what
    f2py's wrapper checks: complex128 operands of shapes (n - 1,), (n,),
    (n - 1,) and (n,) with n >= 2, and every overwrite flag true;
    c_char.from_buffer, the cheapest way to take their addresses, raises
    TypeError unless each is writable and C-contiguous.  Every call makes
    its own ctypes objects, because ctypes releases the GIL and two threads
    may solve at once.  Where the symbol does not resolve (conda or
    Accelerate builds of numpy, or Windows; none was tried), it is
    scipy.linalg._flapack.zgtsv, loaded without importing scipy or
    scipy.linalg, and the object scipy.linalg.lapack.zgtsv names, whichever
    of the two loads first.  ImportError naming both if neither is there."""
    try:
        import ctypes
        from numpy.linalg import _umath_linalg
        solve = ctypes.CDLL(_umath_linalg.__file__).scipy_zgtsv_64_
    except (ImportError, OSError, AttributeError):
        pkg = importlib.util.find_spec("scipy")
        dirs = [os.path.join(d, "linalg") for d in getattr(pkg, "submodule_search_locations", [])]
        spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", dirs)
        if spec is None:
            raise ImportError("zgtsv needs numpy's scipy_zgtsv_64_ or scipy.linalg._flapack, "
                              "and neither was found", name="scipy.linalg._flapack") from None
        flapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(flapack)
        return flapack.zgtsv
    # every argument is a byref, which ctypes passes as the pointer it is;
    # declaring argtypes would cost about 1 us a call to convert them again
    solve.restype = None
    i64, ref, ptr = ctypes.c_int64, ctypes.byref, ctypes.c_char.from_buffer

    def zgtsv(dl, d, du, b, overwrite_dl=0, overwrite_d=0, overwrite_du=0, overwrite_b=0):
        n = d.size
        if not (overwrite_dl and overwrite_d and overwrite_du and overwrite_b
                and dl.dtype == d.dtype == du.dtype == b.dtype == complex
                and dl.shape == du.shape == (n - 1,) and d.shape == b.shape == (n,)):
            raise ValueError("zgtsv solves in place, on complex128 of shapes n-1, n, n-1, n")
        n_, info = ref(i64(n)), i64()  # from_buffer raises unless writable and contiguous
        solve(n_, ref(i64(1)), ref(ptr(dl)), ref(ptr(d)), ref(ptr(du)), ref(ptr(b)), n_, ref(info))
        return dl, d, du, b, info.value

    return zgtsv


def _tridiag_solve(diag, link, rhs, scratch):
    """Solve each row of rhs with that row of diag on the diagonal and link,
    one (2n - 1) row for the two rows stacked as one system, as both the
    sub- and the superdiagonal.  Overwrites diag, rhs and scratch, and
    returns the solution in rhs's memory; link is copied into both rows of
    scratch, the (2, 2n - 1) dl and du that zgtsv overwrites, and is only
    read, so one link serves every solve with the same off-diagonal."""
    if not (np.isfinite(diag.view(float)).all() and np.isfinite(rhs.view(float)).all()):
        raise SolverDiverged("non-finite operands in the tridiagonal solve")
    np.copyto(scratch, link)
    *_, x, info = _zgtsv()(scratch[0], diag.ravel(), scratch[1], rhs.ravel(),
                           overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info != 0:
        raise SolverDiverged(f"tridiagonal solve failed: zgtsv info = {info}")
    return x.reshape(rhs.shape)


@lru_cache(maxsize=1)
def _operator(n: int, dr: float, dt: float, gamma, kappa, g1, g2, g) -> tuple:
    """What a step of size dt needs that depends only on dt, the grid and
    the coefficients: dc = 1 - k (gain - 2i/dr^2), the (2, 1) diagonal
    without w; i k kappa; first and later, k and k/2 times (g1, g; g, g2),
    for the first pass and those after it; and link, zgtsv's sub- and
    superdiagonal in one row, -i k/dr^2 but for a zero where the two stacked
    rows meet, so that elimination does not cross from one into the other.
    The arrays are read-only, because every step with the same arguments
    shares them."""
    k = dt / 2.0
    kr = k / dr**2
    gain = np.array([[gamma], [-gamma]])
    gmat = np.array([[g1, g], [g, g2]])
    dc = 1.0 - k * gain + 2j * kr
    first, later = k * gmat, 0.5 * k * gmat
    link = np.full(2 * n - 1, -1j * kr)
    link[n - 1] = 0
    for arr in (dc, first, later, link):
        arr.flags.writeable = False
    return dc, 1j * k * kappa, first, later, link


class _Workspace(NamedTuple):
    """Scratch arrays for the steps of one run on n nodes; every step
    overwrites them, so none outlives the step that wrote it."""

    b: np.ndarray  # (2, n) complex: 2 f0 - i k kappa f0[::-1]
    diag: np.ndarray  # (2, n) complex: i k w, then the diagonal
    f2_0: np.ndarray  # (2, n) float: |f0|^2
    f2m: np.ndarray  # (2, n) float: the midpoint |f|^2
    w: np.ndarray  # (2, n) float: k times the frozen nonlinear factor
    links: np.ndarray  # (2, 2n - 1) complex: the operator's link twice, for zgtsv to overwrite


def _workspace(n: int) -> _Workspace:
    rows = [np.empty((2, n), kind) for kind in (complex, complex, float, float, float)]
    return _Workspace(*rows, np.empty((2, 2 * n - 1), complex))


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
    the current corrector guess fs (f0 on the first pass).  f0 is state.f,
    the old time level, which step reads and never writes.  With k = dt/2
    and M = 1 - k (i lap + gain + i w), each pass solves, for f,

        M f = (2 - M) f0 - i k kappa (f0 + fs)[::-1]

    where [::-1] swaps the p and q rows.  It does so in Cayley form: it
    solves M z = b - i k kappa fs[::-1], with b = 2 f0 - i k kappa f0[::-1]
    formed once per step, and takes f = z - f0.  That is the same scheme
    with rounding in a different order, and it never applies the Laplacian
    to f0.  A pass forms only w, the diagonal dc - i k w and the guess's
    coupling term, which it writes into the array that the solve returns
    the field in and subtracts from b there.  dc = 1 - k (gain - 2i/dr^2),
    i k kappa, k times the coefficient matrix (g1, g; g, g2) and the one
    row that is both of zgtsv's off-diagonals depend only on dt, the grid
    and the coefficients; they come from _operator, which memoizes its
    last call, so they are made again only when one of those changes: in a
    run, when dt halves or the last step is clipped to tMax.  1/r^2 is made
    once per grid (RadialGrid.inv_r2).

    work holds scratch arrays from _workspace(grid.n), which _accepted
    makes once per run and passes to every step; with None a fresh set is
    made.  Each step writes every scratch array before it reads it, and
    _operator is a pure function of its arguments, so the result does not
    depend on what work held or on which step came before.  Only each
    pass's right-hand side is new, because the solve returns the field in
    it; the returned state shares no memory with work or with state.f.
    Overflow raises no warning: the finiteness checks report it as
    SolverDiverged.
    """
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and > 0")
    if not _is_int(cn_iterations):
        raise ValueError("cn_iterations must be an integer")
    if cn_iterations < 1:
        raise ValueError("cn_iterations must be >= 1")
    grid = state.grid
    work = _workspace(grid.n) if work is None else work
    dc, ik_kappa, first, later, link = _operator(
        grid.n, grid.dr, dt, params.gamma, params.kappa, params.g1, params.g2, params.g)
    f0, b, f2_0, fs = state.f, work.b, work.f2_0, state.f
    with np.errstate(over="ignore", invalid="ignore"):
        f2m = _abs2(f0, out=f2_0, scratch=work.w)
        for i in range(cn_iterations):
            rhs = np.multiply(ik_kappa, fs[::-1])  # the guess's coupling term
            # the midpoint |f|^2 is |f0|^2 on the first pass and
            # (|f0|^2 + |fs|^2)/2 after it; later holds the 1/2
            if i:
                f2m = np.add(f2_0, _abs2(fs, out=work.f2m, scratch=work.w), out=work.f2m)
                kg = later
            else:  # the first pass's coupling term is the f0 half of b's
                np.subtract(np.add(f0, f0, out=b), rhs, out=b)
                kg = first
            kw = np.matmul(kg, f2m, out=work.w)
            kw *= grid.inv_r2
            diag = np.subtract(dc, np.multiply(1j, kw, out=work.diag), out=work.diag)
            fs = _tridiag_solve(diag, link, np.subtract(b, rhs, out=rhs), work.links)
            fs -= f0
    if not np.all(np.isfinite(fs.view(float))):
        raise SolverDiverged(f"non-finite field values at t={state.t + dt:g}")
    return replace(state, f=fs, t=state.t + dt)


# Summing n steps of size dt leaves a rounding residue of up to about
# n * eps * tMax, i.e. n**2 * eps relative to dt; 1e-6 covers n up to ~1e5.
_RESIDUE = 1e-6


def _origin_amp(state: RadialState) -> np.ndarray:
    """|u| and |v| at the first node r1, next to the axis: |p| / r1, |q| / r1."""
    return np.abs(state.f[:, 0]) / state.grid.nodes[0]


def _peak(state: RadialState) -> float:
    """The field peak max(|p|, |q|), floored at 1e-300 so that a growth ratio
    never divides by 0; nan and inf pass through."""
    return max(np.max(np.abs(state.f)), 1e-300)


def _accepted(state: RadialState, params: SystemParams, cfg: RunConfig):
    """Each accepted state after state, in order: the one accept/reject
    loop, whose steps share one set of scratch arrays.

    A step whose field peak max(|p|, |q|) grows by more than 5% is retried
    from the same state with dt halved, down to cfg.dtMin, and the halved
    dt is kept.  A step is of size dt, or of what is left of [0, cfg.tMax]
    if that is less; a remainder that exceeds dt by no more than a rounding
    residue is taken whole, so the stream ends on tMax exactly rather than
    a residue short of it or one full step past it.  A step that raises
    SolverDiverged or gives a peak that is not finite ends it short of tMax.
    """
    peak = _peak(state)
    dt = cfg.dt0
    work = _workspace(state.grid.n)
    while state.t < cfg.tMax:
        rest = cfg.tMax - state.t
        last = rest <= dt * (1.0 + _RESIDUE)
        try:
            new = step(state, params, rest if last else dt, cfg.cnIterations, work=work)
        except SolverDiverged:
            return
        new_peak = _peak(new)
        if not math.isfinite(new_peak):
            return
        if new_peak / peak - 1.0 > 0.05 and dt / 2 >= cfg.dtMin:
            dt /= 2
            continue
        state, peak = replace(new, t=cfg.tMax) if last else new, new_peak
        yield state


def _verdict(trace: Dict[str, np.ndarray], ratios, lag: Optional[float], cfg: RunConfig):
    """The verdict and component of a run that did not diverge, from its
    trace, the origin ratios (U, V) of its final state, and lag, which is
    None if no ratio crossed cfg.blowupRatio."""
    if lag is not None:
        u, v = (r >= cfg.blowupRatio for r in ratios)
        return "BlowupLike", "Both" if u and v else "U" if u else "V"
    peak_u2, peak_v2 = trace["peakU2"], trace["peakV2"]
    peaks_bounded = (
        math.sqrt(peak_u2[-1]) < 2 * math.sqrt(peak_u2[0])
        and math.sqrt(peak_v2[-1]) < 2 * math.sqrt(peak_v2[0])
    )
    tail = trace["X"][trace["t"] >= 0.75 * cfg.tMax]
    msw_growing = tail.size >= 2 and bool(np.all(tail[1:] >= tail[:-1]))
    return "Dispersed" if peaks_bounded and msw_growing else "MaxTimeReached", "None"


def run(
    ic: GaussianIC,
    params: SystemParams,
    grid: RadialGrid = DEFAULT_GRID,
    cfg: RunConfig = RunConfig(),
) -> RunOutcome:
    """Evolve until blowup-like growth, the time horizon, or divergence.

    The states come from _accepted, which rejects a step whose peak grows
    by more than 5%, halves dt and stops at cfg.tMax.  Every
    cfg.sampleEvery-th accepted step is sampled until an origin amplitude
    ratio first crosses cfg.blowupRatio.  A short grace phase follows,
    because collapsing components cross at slightly staggered times: its
    steps are not sampled, and it ends when the smaller ratio stops
    growing, when both ratios have crossed, or when one reaches
    2 * cfg.blowupRatio.  The component flag (U, V or Both) thus reflects
    joint growth rather than the tie-break of a single step.
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
    origin = _origin_amp(state)
    samples = [grid_functionals(state, params)]
    bad = [c for c, v in samples[0].items() if not math.isfinite(v)]
    if bad:
        raise OverflowError(f"t = 0 diagnostics not finite: {', '.join(bad)}")
    lag = ratios = None  # lag: the smaller origin ratio, once one ratio has crossed
    for steps, state in enumerate(_accepted(state, params, cfg), 1):
        ratios = np.divide(_origin_amp(state), origin, out=np.zeros(2), where=origin > 0)
        if lag is None:
            if steps % cfg.sampleEvery == 0:
                samples.append(grid_functionals(state, params))
            if max(ratios) < cfg.blowupRatio:
                continue
        elif min(ratios) <= lag:  # the laggard stopped growing
            break
        lag = min(ratios)
        if lag >= cfg.blowupRatio or max(ratios) >= 2 * cfg.blowupRatio:
            break
    if samples[-1]["t"] != state.t:
        samples.append(grid_functionals(state, params))
    trace = {c: np.array([s[c] for s in samples], dtype=float) for c in TRACE_COLUMNS}
    if lag is None and state.t < cfg.tMax:
        return RunOutcome("SolverDiverged", state.t, "None", trace, state)
    verdict, component = _verdict(trace, ratios, lag, cfg)
    return RunOutcome(verdict, state.t, component, trace, state)


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


def _cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_map(fn: Callable, items: Iterable, workers: int) -> list:
    """fn applied to each item, the results in item order.

    Runs on min(workers, number of items, cores) worker processes of the
    platform's default start method, or in the calling process when that is
    1.  fn and the items are pickled, so fn must be a module-level function
    or a partial of one.  An exception raised by fn is raised here with its
    own type; a worker that dies raises BrokenProcessPool.  Every worker has
    ended when this returns or raises.  A caller whose fn solves loads the
    solver first, so that forked workers inherit it.
    """
    items = list(items)
    workers = min(workers, len(items), _cores())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # brings multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _run_level(ic: GaussianIC, params: SystemParams, level) -> RunOutcome:
    """One refinement level of convergence_check, without its final state,
    which the report does not read and a worker would otherwise send back
    (0.4 MB at n = 7999).  run is looked up at call time, and this function
    pickles by reference."""
    grid, cfg = level
    return replace(run(ic, params, grid, cfg), finalState=None)


def convergence_check(
    ic: GaussianIC,
    params: SystemParams,
    grid: RadialGrid,
    cfg: RunConfig,
    refinements: int = 1,
) -> ConvergenceReport:
    """Rerun with dr and dt halved and report Cauchy differences.  converged
    needs one verdict for every run and differences that never grow; with one
    refinement there is no trend, so it says only that the verdicts agree.

    The refinements + 1 runs do not depend on each other and run
    concurrently, one process each up to the cores available (serially in
    this process on one core).  The finest, which costs more than all the
    others together, starts first.  Every run executes the same
    deterministic code, so the report equals a serial one exactly.  An
    exception raised by a run is raised here with its own type, and a
    worker process that dies raises BrokenProcessPool.
    """
    if not _is_int(refinements):
        raise ValueError("refinements must be an integer")
    if refinements < 1:
        raise ValueError("refinements must be >= 1")
    levels = [(grid, cfg)]
    for _ in range(refinements):
        g, c = levels[-1]
        levels.append((_refine_grid(g), replace(c, dt0=c.dt0 / 2, dtMin=c.dtMin / 2)))
    _zgtsv()  # before the pool forks
    outcomes = _pool_map(partial(_run_level, ic, params), levels[::-1], len(levels))[::-1]
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
