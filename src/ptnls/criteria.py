"""Sufficient blowup conditions.

Covers the main finite-horizon check (the F/M/G conjunction), the two
threshold lemmas, the early-collapse bound Z(t) with its constant c4, the
Manakov-case variants with the extra integrals of motion, and the gain
envelopes of S0 and E.

Three rules are each written once.  One door: every public bound
(F_function, M_function, G_function, early_collapse_Z, manakov_F,
s0_upper_bound, energy_growth_bound) checks its regime, if any, and passes
its closed form and t to _door, which raises ValueError unless every t is
finite and >= 0, returns a float for a scalar t, and lets overflow give
inf without a warning.  One finiteness check: _finite raises OverflowError
where a record of constants or coefficients is made with an entry that is
not finite.  One lemma body: _lemma, for both threshold lemmas.

The closed forms (_width for F and F-hat, _M, _G, _Z) take coefficients
computed beforehand and a float or array t, and check nothing.  A check
computes its constants and coefficients once, then evaluates the closed
forms on its trace and at every step of its root-finder.  The trace arrays
equal the door bit for bit; at a float t the closed forms use math.exp and
math.expm1, which may differ from numpy's in the last bit.  The checks
trust the InitialFunctionals record: it is finite, with X0, S0 >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple, Optional

import numpy as np

from .errors import NotManakov, RegimeViolation
from .functionals import InitialFunctionals
from .model import SystemParams, _is_int

_TIME_TOL = 1e-9
_DEFAULT_SAMPLES = 4096


@dataclass(frozen=True)
class CriterionConstants:
    c1: float
    c2: Optional[float]
    c3: float
    c4: float
    beta: Optional[float]


@dataclass(frozen=True)
class CriterionReport:
    kind: str
    satisfied: bool
    certifiedTime: Optional[float]
    functionTrace: dict = field(repr=False)
    inputs: InitialFunctionals = field(repr=False)
    constants: Optional[CriterionConstants] = None
    piece: Optional[tuple] = None  # (r1, r2): where the bound falls
    bracket: Optional[tuple] = None  # (lo, hi] around certifiedTime = hi


def in_focusing_regime(params: SystemParams) -> bool:
    """g1, g2 > 0 and g > -sqrt(g1*g2): the regime of the main theorem."""
    return (
        params.g1 > 0
        and params.g2 > 0
        and params.g > -math.sqrt(params.g1 * params.g2)
    )


def in_early_collapse_regime(params: SystemParams) -> bool:
    """g1 > 0 with repulsive-or-zero g2 and g: the early-collapse regime."""
    return params.g1 > 0 and params.g2 <= 0 and params.g <= 0


def _finite(kind, k):
    """k, a record of constants or coefficients whose None entries are
    skipped; OverflowError (CLI exit 3) if finite inputs gave an entry that
    is not finite, so that no bound starts from nan or inf."""
    if not all(math.isfinite(c) for c in k if c is not None):
        raise OverflowError(f"{kind} not finite: {k}")
    return k


@lru_cache(maxsize=1)
def constants(params: SystemParams) -> CriterionConstants:
    """The constants c1..c4 entering the blowup conditions.

    c2 (and hence beta) is defined only in the focusing regime; it is left
    as None otherwise so that c1, c3, c4 remain available.  RegimeViolation
    unless dim >= 3 and gamma > 0; OverflowError (_finite) if finite inputs
    give a constant that is not finite.  Memoized: the checks and lemmas of
    one input all ask for the same params.
    """
    if params.dim < 3:
        raise RegimeViolation(f"criteria need dim >= 3, got {params.dim}")
    if not params.gamma > 0:
        raise RegimeViolation("criteria need gamma > 0 (they divide by gamma)")
    N = params.dim
    gamma, kappa = params.gamma, params.kappa
    g1, g2, g = params.g1, params.g2, params.g
    c1 = 4 * gamma * kappa + 4 * gamma**2 * (5 * N + 6) / (N - 2)
    c3 = 32 * N / (N + 2) * max(1.0, g1, g2)
    c4 = 2 * gamma * math.sqrt(kappa / gamma + (N + 2) / (N - 2))
    if in_focusing_regime(params):
        if g >= 0:
            c2 = 0.8 * min(1.0, g1, g2)
        else:
            c2 = 0.8 * min(
                1.0,
                g1 + g * math.sqrt(g1 / g2),
                g2 + g * math.sqrt(g2 / g1),
            )
        beta = c3 * gamma / c2
    else:
        c2 = None
        beta = None
    return CriterionConstants(*_finite("constants (c1, c2, c3, c4, beta)",
                                       (c1, c2, c3, c4, beta)))


def _require_c2(params: SystemParams) -> CriterionConstants:
    cc = constants(params)
    if cc.c2 is None:
        raise RegimeViolation(
            "c2 requires g1, g2 > 0 and g > -sqrt(g1*g2); got "
            f"g1={params.g1}, g2={params.g2}, g={params.g}"
        )
    return cc


def default_horizon(params: SystemParams) -> float:
    """Several gain e-foldings; the conditions are exponential-dominated beyond."""
    if not params.gamma > 0:
        raise RegimeViolation("default horizon needs gamma > 0")
    return 4.0 / params.gamma


def _setup(params: SystemParams, horizon, samples):
    """The horizon (4/gamma if None) and the samples + 1 trace times of a
    check; ValueError unless 0 < horizon < inf and samples is an integer
    >= 0."""
    horizon = default_horizon(params) if horizon is None else horizon
    if isinstance(horizon, bool):
        raise ValueError("horizon must be a number, not a bool")
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    if horizon == math.inf:
        raise ValueError("horizon must be finite")
    if not _is_int(samples):
        raise ValueError("samples must be an integer")
    if samples < 0:
        raise ValueError("samples must be >= 0")
    horizon = float(horizon)
    step = horizon / samples if samples else 0.0
    if not step > 0:  # a single time, or a step that underflows to 0
        return horizon, np.linspace(0.0, horizon, samples + 1)
    # np.linspace's own arithmetic, without its argument handling, which
    # costs more than the rest of a check's setup; a test pins the two equal
    t = np.arange(samples + 1, dtype=float)
    t *= step
    t[-1] = horizon
    return horizon, t


def _door(bound, t):
    """The closed form bound at t, a float for a scalar t; ValueError unless
    every t is finite and >= 0.  Overflow gives inf without a warning."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < math.inf)):
        raise ValueError("t must be finite and >= 0")
    with np.errstate(over="ignore"):
        out = bound(t)
    return out if out.ndim else float(out)


class _Width(NamedTuple):
    """The coefficients of X0 + Y0 t + a t^2 + b (e^{rate t} - rate t - 1):
    F for Theorem 1, and F-hat (b = 0) in the Manakov case."""

    X0: float
    Y0: float
    a: float
    b: float
    rate: float


def _expm1(x):
    """e^x - 1: math.expm1 at a Python float, inf where that overflows, and
    np.expm1 at anything else, such as a 0-d array's numpy scalar."""
    if type(x) is not float:
        return np.expm1(x)
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def _width(k: _Width, t):
    """The width bound with coefficients k at a float or array t, unchecked."""
    X0, Y0, a, b, rate = k
    val = X0 + Y0 * t  # a new array for an array t, so += below writes no input
    if a:  # a = 0 at E0 = 0, where a t^2 is 0 * inf once t * t overflows
        val += a * (t * t)  # numpy's t**2 is t * t; a float's is pow
    if b:  # b = 0 at S0 = 0, where the gain term is 0 * inf once exp overflows
        # expm1 keeps the term accurate at small t, where e^x - 1 cancels
        gain = b * (_expm1(rate * t) - rate * t)
        # it dominates: F = inf where it overflows, also where a t^2 = -inf
        if type(gain) is float:
            return val + gain if gain < math.inf else math.inf
        if gain.max(initial=0.0) == math.inf:  # 0 + inf there, not -inf + inf = nan
            val = np.where(gain < math.inf, val, 0.0)
        val += gain
    return val


def _F_terms(initial: InitialFunctionals, params: SystemParams) -> _Width:
    """F's coefficients; RegimeViolation unless gamma > 0."""
    if not params.gamma > 0:
        raise RegimeViolation("F is defined for gamma > 0 (it divides by gamma)")
    N, gamma, S0 = params.dim, params.gamma, initial.s0
    b = (4 * params.kappa / gamma**2) * S0 if S0 != 0 else 0.0
    a = (8 * N / (N + 2)) * initial.energy
    return _finite("F coefficients", _Width(initial.msw, initial.mswRate, a, b, 2 * gamma))


def F_function(initial: InitialFunctionals, params: SystemParams, t):
    """Width bound F(t) built from the t=0 functionals."""
    return _door(partial(_width, _F_terms(initial, params)), t)


def _width_falls(k: _Width, horizon):
    """The piece of [0, horizon] on which the width bound with coefficients
    k falls, or None.  Its F'' = 2a + b r^2 e^{rt} never falls, as b >= 0,
    so F' is convex: F' falls until F'' = 0 and rises after."""
    _, Y0, a, b, r = k

    def slope(t):  # F'(t) e^{-rt}: the sign of F', without overflow; Y0 + 2at at r = 0
        return (Y0 + 2 * a * t) * math.exp(-r * t) - b * r * math.expm1(-r * t)

    curve = b * r * r
    low = 0.0 if a >= 0 else math.inf if curve == 0 else math.log(-2 * a / curve) / r
    return _falling_piece(slope, low, horizon)


def _F_and_M(F, t, piece):
    """F and M = sup of F over [0, t], plus 1, at the array t, when F falls
    on piece (or None) and rises elsewhere: F peaks where piece starts."""
    Ft = F(t)
    sup = np.maximum(F(0.0), Ft)
    if piece is not None:
        sup = np.where(t >= piece[0], np.maximum(sup, F(piece[0])), sup)
    return Ft, sup + 1.0


def _M(k: _Width, t):
    """M = sup of the width bound with coefficients k over [0, t], plus 1,
    at the array t, exact from its values at 0, at t and at its peak."""
    return _F_and_M(partial(_width, k), t, _width_falls(k, float(np.max(t, initial=0.0))))[1]


def M_function(initial: InitialFunctionals, params: SystemParams, t):
    """M(t) = sup over [0,t] of F + 1, exact from F(0), F(t) and F's peak."""
    return _door(partial(_M, _F_terms(initial, params)), t)


def _G(m, c1, rate, t):
    """m (c1 t^2 / 2 + expm1(rate t)) at a float or array t.  For long
    horizons the product overflows to inf: G = inf is right there, as G < 1
    is false just as it is for any G >= 1."""
    return m * (c1 * t**2 / 2 + _expm1(rate * t))


def G_function(initial: InitialFunctionals, params: SystemParams, t):
    """G(t) = M(t) * (c1 t^2 / 2 + exp(c3 gamma t / c2) - 1)."""
    cc, k = _require_c2(params), _F_terms(initial, params)
    return _door(lambda t: _G(_M(k, t), cc.c1, cc.beta, t), t)


def _first(fn, lo, hi, strict):
    """The first t in (lo, hi] where fn(t) < 0 (strict) or fn(t) <= 0 holds,
    for an fn whose predicate stays true once it is: a bracket (a, b) with
    the predicate false at a (or a = lo) and true at b, at most tol =
    _TIME_TOL wide or with no float left between a and b; None if it is
    false at hi.

    Illinois steps: regula falsi that halves the value kept at one end each
    time a step moves the other end again (Dowell & Jarratt, BIT 11, 1971).
    A step that does not halve the bracket is followed by a bisection step,
    which leaves that halving in place, so the search never takes much more
    than twice bisection's evaluations.  Each Illinois step aims tol/4 past
    the secant root, to the side where the predicate holds, and keeps tol/2
    from both ends: b does not land within rounding of the root, and once
    the root is found the next step closes the bracket."""
    holds = (lambda v: v < 0) if strict else (lambda v: v <= 0)
    tol = _TIME_TOL
    a, b, fb = lo, hi, fn(hi)
    if not holds(fb):
        return None
    fa, last, k, bisect = fn(lo), None, 1.0, False  # last: the end moved last
    while b - a > tol and a < (mid := 0.5 * (a + b)) < b:
        width, x, secant = b - a, mid, False
        if not bisect:
            ga, gb = (fa * k, fb) if last == "b" else (fa, fb * k)
            if ga != gb and math.isfinite(ga) and math.isfinite(gb):
                # float(): fn may give numpy scalars, and the ends stay floats
                s = float(b - gb * width / (gb - ga)) + 0.25 * tol
                s = min(max(s, a + 0.5 * tol), b - 0.5 * tol)
                if a < s < b:
                    x, secant = s, True
        fx = fn(x)
        if holds(fx):
            b, fb, moved = x, fx, "b"
        else:
            a, fa, moved = x, fx, "a"
        if secant:
            k, last = (0.5 * k if moved == last else 1.0), moved
        bisect = not bisect and b - a > 0.5 * width
    return a, b


def _falling_piece(slope, low, horizon):
    """The piece [r1, r2] of [0, horizon] on which a function falls, or None:
    slope has the sign of the function's derivative, which falls up to low
    and rises after it, so slope is negative on one interval at most."""
    low = min(max(low, 0.0), horizon)
    if not slope(low) < 0:
        return None
    r1 = 0.0 if slope(0.0) <= 0 else _first(slope, 0.0, low, True)[1]
    r2 = _first(lambda t: -slope(t), low, horizon, False)
    return r1, horizon if r2 is None else r2[1]


def _conjunction(kind, initial, cc, horizon, t, k, rate):
    """The first time in (0, horizon] where F + 1 < 0 and G < 1 jointly hold,
    with F the width bound with coefficients k, M(t) = sup of F over [0, t],
    plus 1, and G(t) = M(t) (c1 t^2 / 2 + exp(rate t) - 1).

    As F(0) = X0 >= 0 and G never falls (M >= 1 + X0 > 0 never does), that
    is the first tF on F's falling piece [r1, r2] with F + 1 < 0, if G(tF)
    < 1; F rises up to r1, so M(tF) = F(r1) + 1.  From t_cut = 2 log1p(1 /
    (1 + X0)) / rate on, G >= (1 + X0) (exp(rate t) - 1) exceeds 2, so the
    search for tF ends at t_cut at the latest."""
    F = partial(_width, k)
    piece = _width_falls(k, horizon)
    with np.errstate(over="ignore"):  # as at the door: F, M and G may reach inf
        Ft, M = _F_and_M(F, t, piece)
        trace = {"t": t, "F": Ft, "M": M, "G": _G(M, cc.c1, rate, t)}
    found = None
    if piece:
        t_cut = 2 * math.log1p(1 / (1 + k.X0)) / rate
        found = _first(lambda tt: F(tt) + 1, piece[0], min(piece[1], t_cut), True)
    ok = found is not None and _G(max(F(0.0), F(piece[0])) + 1.0, cc.c1, rate,
                                  found[1]) < 1
    return CriterionReport(kind, ok, found[1] if ok else None, trace, initial, cc,
                           piece, found if ok else None)


def check_theorem1(
    initial: InitialFunctionals,
    params: SystemParams,
    horizon: Optional[float] = None,
    samples: int = _DEFAULT_SAMPLES,
) -> CriterionReport:
    """The first time in (0, horizon] where F + 1 < 0 and G < 1 jointly hold,
    with G's exponent c3 gamma / c2; samples sets only the trace resolution."""
    cc = _require_c2(params)
    horizon, t = _setup(params, horizon, samples)
    return _conjunction("Theorem1", initial, cc, horizon, t, _F_terms(initial, params),
                        cc.beta)


def _lemma(initial, params, C0, key, value, bound) -> dict:
    """A threshold lemma: T0's bracket [T0min, T0max], and whether value lies
    below bound(m_tilde, T0min), reported under key.  C0 is called once the
    regime is checked, as it divides by gamma; OverflowError unless the
    bracket and the bound are finite."""
    cc = _require_c2(params)
    beta, c1, X0 = cc.beta, cc.c1, initial.msw
    t0_max = (1 / beta) * math.log(1 + beta**2 / ((1 + X0) * (beta**2 + c1)))
    m_tilde = 1 + X0 + C0() * (math.exp(2 * params.gamma * t0_max) - 1)
    t0_min = (1 / beta) * math.log(1 + beta**2 / (m_tilde * (beta**2 + c1)))
    b = bound(m_tilde, t0_min)
    _finite("lemma (T0max, T0min, bound)", (t0_max, t0_min, b))
    return {"T0max": t0_max, "T0min": t0_min, key: b, "satisfied": value < b,
            "constants": cc}


def lemma1_threshold(initial: InitialFunctionals, params: SystemParams) -> dict:
    """Negative-energy threshold: blowup certified when E(0) is below the bound."""
    N, gamma, kappa = params.dim, params.gamma, params.kappa
    return _lemma(
        initial, params,
        lambda: abs(initial.mswRate) / (2 * gamma) + (4 * kappa / gamma**2) * initial.s0,
        "E0bound", initial.energy,
        lambda m_tilde, t0_min: -(N + 2) * m_tilde / (8 * N * t0_min**2))


def lemma2_threshold(initial: InitialFunctionals, params: SystemParams) -> dict:
    """Negative-Y(0) threshold with the redefined constant C0."""
    N, gamma, kappa = params.dim, params.gamma, params.kappa
    return _lemma(
        initial, params,
        lambda: (4 * N * abs(initial.energy) / ((N + 2) * gamma**2)
                 + (4 * kappa / gamma**2) * initial.s0),
        "Y0bound", initial.mswRate,
        lambda m_tilde, t0_min: 8 * kappa * initial.s0 / gamma - m_tilde / t0_min)


def _growth(v0, slope, gamma, t):
    """(v0 + slope t) exp(2 gamma t) at an array t, unchecked: the gain
    envelope of S0 and of E.  0 where v0 + slope t = 0, not 0 * inf once exp
    overflows."""
    val = np.array(v0 + slope * t)
    return np.multiply(val, np.exp(2 * gamma * t), out=val, where=val != 0)


def s0_upper_bound(initial: InitialFunctionals, params: SystemParams, t):
    """S0(0) exp(2 gamma t), from the balance law dS0/dt = 2 gamma S3."""
    return _door(partial(_growth, initial.s0, 0.0, params.gamma), t)


def energy_growth_bound(initial: InitialFunctionals, params: SystemParams, t):
    """E_max(t) = (E(0) + 2 kappa gamma S0(0) t) exp(2 gamma t)."""
    return _door(partial(_growth, initial.energy,
                         2 * params.kappa * params.gamma * initial.s0, params.gamma), t)


class _ZTerms(NamedTuple):
    """The coefficients of the early-collapse bound, where h0 = Y0 - c4 X0
    and inner(s) = 4N int_0^s e^{c4 sig} (E_max(sig) + kappa S0 e^{2 gamma sig}) dsig
                 = 4N int_0^s e^{lam sig} (alpha + beta sig) dsig
                 = 4N [A1 (e^{lam s} - 1) + A2 s e^{lam s}]."""

    X0: float
    h0: float
    N: int
    c4: float
    lam: float
    alpha: float
    beta: float
    A1: float
    A2: float


def _z_terms(initial: InitialFunctionals, params: SystemParams):
    """The constants and the early-collapse bound's coefficients."""
    cc = constants(params)
    if not in_early_collapse_regime(params):
        raise RegimeViolation(
            "early collapse needs g1 > 0, g2 <= 0, g <= 0; got "
            f"g1={params.g1}, g2={params.g2}, g={params.g}"
        )
    c4 = cc.c4
    lam = c4 + 2 * params.gamma
    alpha = initial.energy + params.kappa * initial.s0
    beta = 2 * params.kappa * params.gamma * initial.s0
    k = _ZTerms(initial.msw, initial.mswRate - c4 * initial.msw, params.dim, c4, lam,
                alpha, beta, alpha / lam - beta / lam**2, beta / lam)
    return cc, _finite("Z coefficients", k)


def _Z(k: _ZTerms, t):
    """Z with coefficients k at a float or array t, unchecked."""
    X0, h0, N, c4, lam, _, _, A1, A2 = k
    exp, expm1 = (math.exp, math.expm1) if type(t) is float else (np.exp, np.expm1)
    # e^{-2 c4 s} * inner(s) = 4N [ A1 (e^{mu s} - e^{-2 c4 s}) + A2 s e^{mu s} ],
    # mu = 2 gamma - c4 < 0, so no exponent here is positive
    mu = lam - 2 * c4
    emu = expm1(mu * t)
    int_emu = emu / mu
    int_edecay = -expm1(-2 * c4 * t) / (2 * c4)
    int_semu = t * exp(mu * t) / mu - emu / mu**2
    return X0 + h0 * int_edecay + 4 * N * (A1 * (int_emu - int_edecay) + A2 * int_semu)


def early_collapse_Z(initial: InitialFunctionals, params: SystemParams, t):
    """Upper width bound Z(t) for the early-collapse regime, in closed form.

    The nested integral has exponential-polynomial integrands; both layers
    are integrated exactly (the tests compare against nested adaptive
    quadrature).
    """
    return _door(partial(_Z, _z_terms(initial, params)[1]), t)


def check_theorem2(
    initial: InitialFunctionals,
    params: SystemParams,
    horizon: Optional[float] = None,
    samples: int = _DEFAULT_SAMPLES,
) -> CriterionReport:
    """The smallest positive zero of Z within the horizon, if any.

    Z' = e^{-2 c4 t} h(t) with h = Y0 - c4 X0 + inner, whose derivative
    4N e^{lam t} (alpha + beta t) has beta >= 0: h falls until -alpha/beta
    and rises after.  Z(0) = X0 >= 0, so Z's first zero lies on its falling
    piece.  samples sets only the trace resolution."""
    horizon, t = _setup(params, horizon, samples)
    cc, k = _z_terms(initial, params)
    _, h0, N, _, lam, alpha, beta, A1, A2 = k

    def slope(tt):  # h(t) e^{-lam t}: the sign of Z', without overflow
        return h0 * math.exp(-lam * tt) - 4 * N * (A1 * math.expm1(-lam * tt) - A2 * tt)

    low = -alpha / beta if beta > 0 else math.inf if alpha < 0 else 0.0
    piece = _falling_piece(slope, low, horizon)
    found = _first(partial(_Z, k), *piece, False) if piece else None
    return CriterionReport("Theorem2", found is not None, found[1] if found else None,
                           {"t": t, "Z": _Z(k, t)}, initial, cc, piece, found)


def _require_manakov(params: SystemParams):
    if not (params.g1 == params.g2 == params.g):
        raise NotManakov(
            f"need g1 = g2 = g, got g1={params.g1}, g2={params.g2}, g={params.g}"
        )


def manakov_invariants(initial: InitialFunctionals, params: SystemParams) -> dict:
    """The two conserved quantities and, in the unbroken phase, the
    oscillation of the total power.

    The printed closed-form coefficient of cos(2 omega t) disagrees with
    the ODE solution it is supposed to solve; the ODE-derived value (which
    reproduces S0(0) at t=0 exactly) is used, and the printed variant is
    reported alongside.
    """
    _require_manakov(params)
    gamma, kappa = params.gamma, params.kappa
    s1_const = initial.s1
    s_const = kappa * initial.s0 - gamma * initial.s2
    out = {"S1const": s1_const, "Sconst": s_const, "oscillation": None}
    if kappa > gamma:
        omega = math.sqrt(kappa**2 - gamma**2)
        mean = kappa * s_const / omega**2
        s01 = initial.s0 - mean
        s01_printed = (
            initial.s0 * (1 - kappa / omega**2)
            + initial.s2 * gamma * kappa / omega**2
        )
        s02 = gamma * initial.s3 / omega
        out["oscillation"] = {
            "mean": mean,
            "S01": s01,
            "S01printed": s01_printed,
            "S02": s02,
            "omega": omega,
            "S0max": mean + math.hypot(s01, s02),
        }
    return out


def _manakov_terms(initial: InitialFunctionals, params: SystemParams) -> _Width:
    """F-hat's coefficients."""
    N = params.dim
    a = (8 * N / (N + 2)) * (initial.energy - params.kappa * initial.s1)
    return _finite("F-hat coefficients", _Width(initial.msw, initial.mswRate, a, 0.0, 0.0))


def manakov_F(initial: InitialFunctionals, params: SystemParams, t):
    """Quadratic width bound of the Manakov reformulation; NotManakov unless
    g1 = g2 = g."""
    _require_manakov(params)
    return _door(partial(_width, _manakov_terms(initial, params)), t)


def check_manakov_theorem(
    initial: InitialFunctionals,
    params: SystemParams,
    horizon: Optional[float] = None,
    samples: int = _DEFAULT_SAMPLES,
) -> CriterionReport:
    """Manakov-case conjunction check with the simplified F-hat and G-hat.

    G-hat(t) = M-hat(t) (c1 t^2/2 + exp(48 N gamma t / (N+2)) - 1).  Its
    exponent 48 N gamma/(N+2) does not depend on g, whereas
    constants(params).beta = c3 gamma/c2 = 40 N gamma/(N+2) * max(1, g)/min(1, g)
    here; so the exponent is (6/5) beta at g = 1.  It would equal beta only
    with c2 = 2/3 in place of 0.8, which the abstract cannot settle (README).
    """
    cc, N = constants(params), params.dim
    _require_manakov(params)
    if not params.g > 0:
        raise RegimeViolation(f"Manakov check needs g > 0, got g={params.g}")
    horizon, t = _setup(params, horizon, samples)
    return _conjunction("Manakov", initial, cc, horizon, t, _manakov_terms(initial, params),
                        48 * N * params.gamma / (N + 2))
