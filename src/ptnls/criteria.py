"""Sufficient blowup conditions.

Covers the main finite-horizon check (the F/M/G conjunction), the two
threshold lemmas, the early-collapse bound Z(t) with its constant c4, and
the Manakov-case variants with the extra integrals of motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .errors import NotManakov, RegimeViolation
from .functionals import InitialFunctionals
from .model import SystemParams

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


def _require_supercritical(params: SystemParams):
    if params.dim < 3:
        raise RegimeViolation(f"criteria need dim >= 3, got {params.dim}")
    if not params.gamma > 0:
        raise RegimeViolation("criteria need gamma > 0 (they divide by gamma)")


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


def constants(params: SystemParams) -> CriterionConstants:
    """The constants c1..c4 entering the blowup conditions.

    c2 (and hence beta) is defined only in the focusing regime; it is left
    as None otherwise so that c1, c3, c4 remain available.  OverflowError
    if finite inputs give a constant that is not finite.
    """
    _require_supercritical(params)
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
    if not all(math.isfinite(c) for c in (c1, c2, c3, c4, beta) if c is not None):
        raise OverflowError(f"constants are not finite: c1={c1}, c2={c2}, "
                            f"c3={c3}, c4={c4}, beta={beta}")
    return CriterionConstants(c1=c1, c2=c2, c3=c3, c4=c4, beta=beta)


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


def _horizon(params: SystemParams, horizon: Optional[float]) -> float:
    """horizon, or the default one if it is None; ValueError unless > 0."""
    if horizon is None:
        return default_horizon(params)
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    return horizon


def F_function(initial: InitialFunctionals, params: SystemParams, t):
    """Width bound F(t) built from the t=0 functionals."""
    if not params.gamma > 0:
        raise RegimeViolation("F is defined for gamma > 0 (it divides by gamma)")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    N = params.dim
    gamma, kappa = params.gamma, params.kappa
    val = (
        initial.msw
        + initial.mswRate * t
        + (8 * N / (N + 2)) * initial.energy * t**2
        + (4 * kappa / gamma**2)
        * initial.s0
        * (np.exp(2 * gamma * t) - 2 * gamma * t - 1)
    )
    return val if val.ndim else float(val)


def _vertex(Y0, a):
    """Maximum point of X0 + Y0 t + a t^2 on t > 0, or None."""
    return -Y0 / (2 * a) if Y0 > 0 and a < 0 else None


def _F_peak(initial: InitialFunctionals, params: SystemParams, t_end):
    """First root r1 of F' in (0, t_end], F's only interior maximum, or None.

    F'' = (16N/(N+2)) E0 + 16 kappa S0 e^{2 gamma t} is non-decreasing for
    S0 >= 0, so F' is convex and least at t_low, where F'' = 0.
    """
    N, gamma, kappa, S0 = params.dim, params.gamma, params.kappa, initial.s0
    Y0, a = initial.mswRate, (8 * N / (N + 2)) * initial.energy
    if S0 < 0:
        raise ValueError("the running supremum of F needs S0 >= 0")
    # F is quadratic when S0 = 0.  Otherwise F' > Y0 + 2at, so r1 lies past
    # that vertex and exists only if it does.  F_function rejects gamma = 0.
    vertex = _vertex(Y0, a)
    if S0 == 0 or vertex is None or not gamma > 0:
        return vertex

    def dF(t):
        return Y0 + 2 * a * t + (8 * kappa * S0 / gamma) * math.expm1(2 * gamma * t)

    hi = min(t_end, math.log(-a / (8 * kappa * S0)) / (2 * gamma))  # t_low
    if not (hi > vertex and dF(hi) <= 0):
        return None
    return _bisect(lambda t: dF(t) <= 0, vertex, hi)


def _running_sup(F, t, peak):
    """sup of F over [0, t] when peak is F's only interior local maximum."""
    sup = np.maximum(F(0.0), F(t))
    if peak is not None:
        sup = np.where(np.asarray(t) >= peak, np.maximum(sup, F(peak)), sup)
    return sup


def M_function(initial: InitialFunctionals, params: SystemParams, t):
    """M(t) = sup over [0,t] of F + 1, exact from F(0), F(t) and F's peak."""
    peak = _F_peak(initial, params, np.max(t))
    out = _running_sup(partial(F_function, initial, params), t, peak) + 1.0
    return out if np.ndim(out) else float(out)


def G_function(initial: InitialFunctionals, params: SystemParams, t):
    """G(t) = M(t) * (c1 t^2 / 2 + exp(c3 gamma t / c2) - 1)."""
    cc = _require_c2(params)
    t_arr = np.asarray(t, dtype=float)
    bracket = cc.c1 * t_arr**2 / 2 + np.exp(cc.beta * t_arr) - 1.0
    out = np.asarray(M_function(initial, params, t_arr)) * bracket
    return out if out.ndim else float(out)


def _bisect(pred, lo, hi, tol=_TIME_TOL):
    """Smallest t in (lo, hi] with pred(t) true, assuming pred(hi) is true.

    Stops early where the float spacing at hi exceeds tol: no midpoint is left.
    """
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _first_hit(kind, trace, ok, pred, initial, cc) -> CriterionReport:
    """The first t > 0 where pred holds, bisected between the scan samples
    trace["t"] around the first one that ok marks."""
    ok[0] = False
    if not ok.any():
        return CriterionReport(kind, False, None, trace, initial, cc)
    i = int(np.argmax(ok))
    t0 = _bisect(pred, float(trace["t"][i - 1]), float(trace["t"][i]))
    return CriterionReport(kind, True, t0, trace, initial, cc)


def check_theorem1(
    initial: InitialFunctionals,
    params: SystemParams,
    horizon: Optional[float] = None,
    samples: int = _DEFAULT_SAMPLES,
) -> CriterionReport:
    """Scan (0, horizon] for a time where F + 1 < 0 and G < 1 jointly hold."""
    _require_supercritical(params)
    cc = _require_c2(params)
    horizon = _horizon(params, horizon)
    t = np.linspace(0.0, horizon, samples + 1)
    # The conjunction window can be much narrower than the scan spacing when
    # the energy is deeply negative; the threshold-lemma bracket endpoint
    # T0max (which depends only on X(0) and the constants) localizes it, so
    # scan that early region densely as well.
    t0_max = _t0_bracket(initial.msw, 0.0, params, cc)[0]
    early = np.linspace(0.0, min(horizon, 1.5 * t0_max), samples + 1)
    t = np.unique(np.concatenate([t, early]))
    F, G = partial(F_function, initial, params), partial(G_function, initial, params)
    trace = {"t": t, "F": F(t), "M": M_function(initial, params, t), "G": G(t)}
    return _first_hit(
        "Theorem1", trace, (trace["F"] + 1 < 0) & (trace["G"] < 1),
        lambda tt: F(tt) + 1 < 0 and G(tt) < 1, initial, cc,
    )


def _t0_bracket(X0: float, C0: float, params: SystemParams, cc: CriterionConstants):
    beta, c1 = cc.beta, cc.c1
    t0_max = (1 / beta) * math.log(1 + beta**2 / ((1 + X0) * (beta**2 + c1)))
    m_tilde = 1 + X0 + C0 * (math.exp(2 * params.gamma * t0_max) - 1)
    t0_min = (1 / beta) * math.log(1 + beta**2 / (m_tilde * (beta**2 + c1)))
    return t0_max, t0_min, m_tilde


def lemma1_threshold(initial: InitialFunctionals, params: SystemParams) -> dict:
    """Negative-energy threshold: blowup certified when E(0) is below the bound."""
    _require_supercritical(params)
    cc = _require_c2(params)
    gamma, kappa = params.gamma, params.kappa
    N = params.dim
    C0 = abs(initial.mswRate) / (2 * gamma) + (4 * kappa / gamma**2) * initial.s0
    t0_max, t0_min, m_tilde = _t0_bracket(initial.msw, C0, params, cc)
    bound = -(N + 2) * m_tilde / (8 * N * t0_min**2)
    return {
        "T0max": t0_max,
        "T0min": t0_min,
        "E0bound": bound,
        "satisfied": initial.energy < bound,
        "constants": cc,
    }


def lemma2_threshold(initial: InitialFunctionals, params: SystemParams) -> dict:
    """Negative-Y(0) threshold with the redefined constant C0."""
    _require_supercritical(params)
    cc = _require_c2(params)
    gamma, kappa = params.gamma, params.kappa
    N = params.dim
    C0 = (
        4 * N * abs(initial.energy) / ((N + 2) * gamma**2)
        + (4 * kappa / gamma**2) * initial.s0
    )
    t0_max, t0_min, m_tilde = _t0_bracket(initial.msw, C0, params, cc)
    bound = 8 * kappa * initial.s0 / gamma - m_tilde / t0_min
    return {
        "T0max": t0_max,
        "T0min": t0_min,
        "Y0bound": bound,
        "satisfied": initial.mswRate < bound,
        "constants": cc,
    }


def energy_growth_bound(initial: InitialFunctionals, params: SystemParams, t):
    """E_max(t) = (E(0) + 2 kappa gamma S0(0) t) exp(2 gamma t)."""
    t = np.asarray(t, dtype=float)
    out = (
        initial.energy + 2 * params.kappa * params.gamma * initial.s0 * t
    ) * np.exp(2 * params.gamma * t)
    return out if out.ndim else float(out)


def early_collapse_Z(initial: InitialFunctionals, params: SystemParams, t):
    """Upper width bound Z(t) for the early-collapse regime, in closed form.

    The nested integral has exponential-polynomial integrands; both layers
    are integrated exactly (the tests compare against nested adaptive
    quadrature).
    """
    _require_supercritical(params)
    if not in_early_collapse_regime(params):
        raise RegimeViolation(
            "early collapse needs g1 > 0, g2 <= 0, g <= 0; got "
            f"g1={params.g1}, g2={params.g2}, g={params.g}"
        )
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    N = params.dim
    gamma, kappa = params.gamma, params.kappa
    cc = constants(params)
    c4 = cc.c4
    X0, Y0, E0, S0 = initial.msw, initial.mswRate, initial.energy, initial.s0

    # inner(s) = 4N int_0^s e^{c4 sig} (E_max(sig) + kappa S0 e^{2 gamma sig}) dsig
    #          = 4N int_0^s e^{lam sig} (alpha + beta sig) dsig
    lam = c4 + 2 * gamma
    alpha = E0 + kappa * S0
    beta = 2 * kappa * gamma * S0
    # e^{-2 c4 s} * inner(s) = 4N [ (alpha/lam - beta/lam^2)(e^{mu s} - e^{-2 c4 s})
    #                               + (beta/lam) s e^{mu s} ],  mu = 2 gamma - c4 < 0
    mu = lam - 2 * c4
    A1 = alpha / lam - beta / lam**2
    A2 = beta / lam
    int_emu = (np.exp(mu * t) - 1) / mu
    int_edecay = (1 - np.exp(-2 * c4 * t)) / (2 * c4)
    int_semu = t * np.exp(mu * t) / mu - (np.exp(mu * t) - 1) / mu**2
    out = (
        X0
        + (Y0 - c4 * X0) * int_edecay
        + 4 * N * (A1 * (int_emu - int_edecay) + A2 * int_semu)
    )
    return out if out.ndim else float(out)


def check_theorem2(
    initial: InitialFunctionals,
    params: SystemParams,
    horizon: Optional[float] = None,
    samples: int = _DEFAULT_SAMPLES,
) -> CriterionReport:
    """Find the smallest positive zero of Z within the horizon, if any."""
    horizon = _horizon(params, horizon)
    t = np.linspace(0.0, horizon, samples + 1)
    Z = early_collapse_Z(initial, params, t)
    return _first_hit(
        "Theorem2", {"t": t, "Z": Z}, Z <= 0,
        lambda tt: early_collapse_Z(initial, params, tt) <= 0,
        initial, constants(params),
    )


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


def manakov_F(initial: InitialFunctionals, params: SystemParams, t):
    """Quadratic width bound of the Manakov reformulation."""
    t = np.asarray(t, dtype=float)
    N = params.dim
    out = (
        initial.msw
        + initial.mswRate * t
        + (8 * N / (N + 2)) * (initial.energy - params.kappa * initial.s1) * t**2
    )
    return out if out.ndim else float(out)


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
    _require_supercritical(params)
    _require_manakov(params)
    if not params.g > 0:
        raise RegimeViolation(f"Manakov check needs g > 0, got g={params.g}")
    horizon = _horizon(params, horizon)
    cc, N = constants(params), params.dim
    a = (8 * N / (N + 2)) * (initial.energy - params.kappa * initial.s1)
    F, peak = partial(manakov_F, initial, params), _vertex(initial.mswRate, a)

    def M(tt):
        return _running_sup(F, tt, peak) + 1.0

    def G(tt):
        exponent = 48 * N * params.gamma * tt / (N + 2)
        return M(tt) * (cc.c1 * tt**2 / 2 + np.exp(exponent) - 1.0)

    t = np.linspace(0.0, horizon, samples + 1)
    trace = {"t": t, "F": F(t), "M": M(t), "G": G(t)}
    return _first_hit(
        "Manakov", trace, (trace["F"] + 1 < 0) & (trace["G"] < 1),
        lambda tt: F(tt) + 1 < 0 and G(tt) < 1, initial, cc,
    )
