"""Acceptance suite: one test (or a small cluster) per acceptance criterion.

Each test states its criterion number and tolerance inline.  Where a
reference value contradicted the defining formulas (criteria 3-5), the test
asserts what the formulas give and proves it inside the test without the
function under test; the short analysis sits beside each test.  The
criterion-2 exponent identity is asserted as given and fails: which side of
it is wrong depends on the paper's definition of c2 (see the test).
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from test_criteria import z_quadrature
from test_functionals import quadrature_moments

from ptnls import (
    GaussianIC,
    RadialGrid,
    RunConfig,
    SystemParams,
    check_theorem1,
    check_theorem2,
    constants,
    convergence_check,
    gaussian_moments,
    grid_functionals,
    lemma1_threshold,
    lemma2_threshold,
    load_initial,
    manakov_invariants,
    run,
)

DESK_GRID = RadialGrid(16.0, 7999)  # dr = 2e-3
DESK_CFG = RunConfig(dt0=1e-4, dtMin=1e-8, tMax=2.0, sampleEvery=200)

FIG3A_IC = GaussianIC(4.5, 4.0, 1.0, 0.5)
FIG3C_IC = GaussianIC(0.5, 2.7, 0.3, 0.3)


def params(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=1.0):
    return SystemParams(gamma=gamma, kappa=kappa, g1=g1, g2=g2, g=g)


# --------------------------------------------------------------------------
# Criterion 1: closed-form Gaussian moments vs high-resolution quadrature,
# 20 random tuples, 1e-8 relative, < 10 s.
def test_criterion1_gaussian_moment_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    for _ in range(20):
        A, B = rng.uniform(0.3, 6.0, size=2)
        a, b = rng.uniform(0.15, 2.5, size=2)
        N = int(rng.choice([3, 4, 5]))
        p = SystemParams(
            gamma=rng.uniform(0.1, 1.0),
            kappa=rng.uniform(0.2, 2.0),
            g1=rng.uniform(-2, 4),
            g2=rng.uniform(-2, 4),
            g=rng.uniform(-2, 2),
            dim=N,
        )
        ic = GaussianIC(A, B, a, b)
        m = gaussian_moments(ic, p)
        o = quadrature_moments(ic, p)
        for key, want in o.items():
            got = getattr(m, key)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10), key
    assert time.monotonic() - start < 10.0


# --------------------------------------------------------------------------
# Criterion 2: exact constant values, and the exponent identity.
def test_criterion2_constants_exact():
    cc = constants(params(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=1.0))
    assert cc.c1 == 23.0
    assert cc.c2 == 0.8
    assert cc.c3 == 19.2
    cc4 = constants(params(gamma=0.5, kappa=1.0))
    assert cc4.c4 == math.sqrt(7.0)


def test_criterion2_exponent_identity():
    # claimed: c3*gamma/c2 equals 48*N*gamma/(N+2) at g1 = g2 = g = 1, N = 3.
    # The constants pinned above (c2 = 0.8, c3 = 32N/(N+2) = 19.2) give
    # 19.2 * 0.5 / 0.8 = 12 against 48 * 3 * 0.5 / 5 = 14.4, a ratio of 5/6;
    # c2 = 2/3 would make the two equal (exactly, in floating point too).
    # PAPER.md holds only the abstract, which does not define c2, so whether
    # the claim or c2 = 0.8 is wrong cannot be settled from the repository.
    # The claim is asserted as given and fails until it can.
    N = 3
    gamma = 0.5
    cc = constants(params(gamma=gamma, g1=1.0, g2=1.0, g=1.0))
    assert cc.c3 * gamma / cc.c2 == 48 * N * gamma / (N + 2)


# --------------------------------------------------------------------------
# Criterion 3: conjunction check on the three reference input variants,
# < 5 s.  None of the three is satisfied.  The reference marked panels c
# (B = 3) and e (b = 0.16) as satisfied; each test below proves the opposite
# without check_theorem1, from the documented formulas
#   F(t) = X0 + Y0 t + 8N/(N+2) E0 t^2
#          + (4 kappa / gamma^2) S0 (exp(2 gamma t) - 2 gamma t - 1),
#   M(t) = sup of F over [0, t] + 1,
#   G(t) = M(t) (c1 t^2 / 2 + exp(beta t) - 1),   beta = 24 at g = -0.5.
def _fig2_params():
    return params(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=-0.5)


def test_criterion3_fig2_base_not_satisfied():
    ini = gaussian_moments(GaussianIC(4.0, 2.0, 0.3, 0.1), _fig2_params())
    rep = check_theorem1(ini, _fig2_params())
    assert not rep.satisfied


def test_criterion3_fig2_larger_amplitude_satisfied():
    # M(t) >= F(0) + 1 = 1 + X0 and the bracket of G is >= exp(beta t) - 1,
    # so G < 1 needs t < T = ln(1 + 1/(1 + X0)) / beta ~ 0.011.  On [0, T]
    # the S0 term of F is >= 0, hence
    #   F + 1 >= 1 + X0 + min(0, Y0) T + 8N/(N+2) min(0, E0) T^2 ~ 2.8 > 0:
    # F + 1 < 0 would need E0 below about -5600; the panel has E0 ~ -836.
    p = _fig2_params()
    N = p.dim
    ini = gaussian_moments(GaussianIC(4.0, 3.0, 0.3, 0.1), p)
    T = math.log(1 + 1 / (1 + ini.msw)) / constants(p).beta
    floor = (
        1 + ini.msw + min(0.0, ini.mswRate) * T
        + 8 * N / (N + 2) * min(0.0, ini.energy) * T**2
    )
    assert floor > 0
    rep = check_theorem1(ini, p)
    assert not rep.satisfied


def test_criterion3_fig2_wider_loss_width_satisfied():
    # E0 ~ +234 and Y0 ~ +2.0: with X0, S0 > 0 every term of F is >= 0 for
    # t >= 0, so F + 1 >= 1 and F + 1 < 0 never holds.
    ini = gaussian_moments(GaussianIC(4.0, 2.0, 0.3, 0.16), _fig2_params())
    assert min(ini.msw, ini.mswRate, ini.energy, ini.s0) > 0
    rep = check_theorem1(ini, _fig2_params())
    assert not rep.satisfied


# --------------------------------------------------------------------------
# Criterion 4: early-collapse root orderings, < 10 s.  A panel on which Z(t)
# stays positive over the horizon has no root, and "no root" counts as later
# than any root.  The reference expected a root on every panel, but Z stays
# positive on all of fig1a (min Z = 7.64, 41.1, 60.5 at B = 1.3, 2.6, 3.9)
# and on fig1c at kappa = 1.2 (min Z = 11.87).  Each "no root" is proved
# over the whole horizon by _min_Z, without the closed form.  The panel
# inputs (GaussianIC(5.8, B, 1, 1) with g1 = 4, g2 = -1, g = -0.5) are this
# suite's reading of the figures; the figure definitions are not in the
# repository, so that reading is unverified.
def _early(gamma, kappa, B):
    p = params(gamma=gamma, kappa=kappa, g1=4.0, g2=-1.0, g=-0.5)
    ini = gaussian_moments(GaussianIC(5.8, B, 1.0, 1.0), p)
    return ini, p, check_theorem2(ini, p)


def _tstar(gamma, kappa, B):
    rep = _early(gamma, kappa, B)[2]
    return rep.certifiedTime if rep.satisfied else None


def _min_Z(gamma, kappa, B):
    """Minimum of Z over the checked horizon, from quadrature alone.

    Z' = exp(-2 c4 t) h(t) with
      h(t) = Y0 - c4 X0 + 4N int_0^t exp(lam s) (a + b s) ds,
      lam = c4 + 2 gamma,  a = E0 + kappa S0,  b = 2 kappa gamma S0 > 0.
    The integrand changes sign once, from - to +, at s = -a/b, so h falls
    and then rises, and Z' turns from - to + at most once.  The minimum of Z
    on [0, T] therefore lies at 0, at T, or at that one zero of h.
    """
    ini, p, rep = _early(gamma, kappa, B)
    T = rep.functionTrace["t"][-1]
    N, c4 = p.dim, constants(p).c4
    lam = c4 + 2 * gamma
    a, b = ini.energy + kappa * ini.s0, 2 * kappa * gamma * ini.s0
    assert b > 0

    def h(t):
        inner, _ = quad(lambda s: math.exp(lam * s) * (a + b * s), 0, t, limit=200)
        return ini.mswRate - c4 * ini.msw + 4 * N * inner

    turn = min(max(-a / b, 0.0), T)
    candidates = [0.0, T]
    if h(turn) < 0 < h(T):
        candidates.append(brentq(h, turn, T, xtol=1e-12))
    return min(z_quadrature(ini, p, t) for t in candidates)


def _assert_ordered(roots):
    """Strictly increasing, with None (no root) later than every root."""
    later = [math.inf if r is None else r for r in roots]
    for a, b in zip(later, later[1:]):
        assert a < b or a == b == math.inf


def test_criterion4_fig1a_roots_increase_with_B():
    Bs = (1.3, 2.6, 3.9)
    roots = [_tstar(0.5, 1.0, B) for B in Bs]
    _assert_ordered(roots)
    # every panel lacks a root, so the ordering above holds vacuously; the
    # minimum of Z, the distance from a root, must still increase with B
    assert roots == [None, None, None]
    z_mins = [_min_Z(0.5, 1.0, B) for B in Bs]
    assert 0 < z_mins[0] < z_mins[1] < z_mins[2]


def test_criterion4_fig1b_roots_increase_with_gamma():
    roots = [_tstar(g, 1.0, 0.9) for g in (0.15, 0.3, 0.45)]
    assert all(r is not None for r in roots)
    assert roots[0] < roots[1] < roots[2]


def test_criterion4_fig1c_roots_increase_with_kappa():
    roots = [_tstar(0.5, k, 0.9) for k in (0.4, 0.8, 1.2)]
    _assert_ordered(roots)
    assert roots[0] is not None and roots[1] is not None
    assert roots[2] is None and _min_Z(0.5, 1.2, 0.9) > 0


# --------------------------------------------------------------------------
# Criterion 5: conservation at gamma = 0 over t in [0, 1] at desk scale,
# drift of S0 and E below 1e-6, < 2 min.  The reference scenario (fig3a at
# gamma = 0) collapses at t ~ 0.072, so conservation over [0, 1] is not
# defined on it; the criterion-6/7 input stays smooth over the whole window
# (measured drifts: S0 1.4e-10, E 6.2e-7).  The run must also stop on its
# horizon, not a step past it.
def test_criterion5_zero_gamma_conservation():
    p = SystemParams(gamma=0.0, kappa=1.0, g1=1.0, g2=1.0, g=1.0)
    out = run(
        GaussianIC(1.0, 0.5, 1.0, 1.0), p, DESK_GRID,
        RunConfig(dt0=1e-4, dtMin=1e-8, tMax=1.0, sampleEvery=100),
    )
    assert out.tStop == pytest.approx(1.0, abs=1e-6)
    s0, e = out.trace["S0"], out.trace["E"]
    s0_drift = max(abs(s - s0[0]) / s0[0] for s in s0)
    e_drift = max(abs(s - e[0]) / max(1.0, abs(e[0])) for s in e)
    assert s0_drift < 1e-6
    assert e_drift < 1e-6


# --------------------------------------------------------------------------
# Criterion 6: balance law d(S0)/2dt = gamma*S3 and the exponential power
# bound along a gamma > 0 trace.
def test_criterion6_balance_and_bound_laws():
    p = params(gamma=0.5)
    grid = RadialGrid(16.0, 999)
    cfg = RunConfig(dt0=1e-3, dtMin=1e-6, tMax=0.5, sampleEvery=5)
    out = run(GaussianIC(1.0, 0.5, 1.0, 1.0), p, grid, cfg)
    t, s0, s3 = out.trace["t"], out.trace["S0"], out.trace["S3"]
    lhs = np.gradient(s0, t) / 2
    rhs = p.gamma * s3
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs[2:-2] - rhs[2:-2])) / scale < 1e-3
    assert np.all(s0 <= s0[0] * np.exp(2 * p.gamma * t) * (1 + 1e-6))


def test_criterion6_bound_law_on_collapsing_trace():
    out = run(FIG3A_IC, params(g=1.0), DESK_GRID, DESK_CFG)
    assert out.verdict == "BlowupLike"
    s0 = out.trace["S0"]
    for t, s in zip(out.trace["t"], s0):
        assert s <= s0[0] * math.exp(2 * 0.5 * t) * (1 + 1e-6)


# --------------------------------------------------------------------------
# Criterion 7: Manakov integrals of motion constant within 1e-5 relative,
# and S0(t) matching the closed-form oscillation within 1e-3 relative.
def test_criterion7_manakov_suite():
    p = params(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=1.0)
    ic = GaussianIC(1.0, 0.5, 1.0, 1.0)
    grid = RadialGrid(16.0, 999)
    out = run(ic, p, grid, RunConfig(dt0=1e-3, dtMin=1e-8, tMax=3.0, sampleEvery=20))
    t, s0, s1, s2 = (out.trace[c] for c in ("t", "S0", "S1", "S2"))
    S = p.kappa * s0 - p.gamma * s2
    assert np.max(np.abs(s1 - s1[0])) / abs(s1[0]) < 1e-5
    assert np.max(np.abs(S - S[0])) / abs(S[0]) < 1e-5
    osc = manakov_invariants(gaussian_moments(ic, p), p)["oscillation"]
    w = osc["omega"]
    fit = osc["mean"] + osc["S01"] * np.cos(2 * w * t) + osc["S02"] * np.sin(2 * w * t)
    assert np.max(np.abs(s0 - fit)) / np.max(np.abs(s0)) < 1e-3


# --------------------------------------------------------------------------
# Criterion 8: qualitative scenario verdicts at desk scale, < 10 min total.
def test_criterion8_joint_growth_attractive_coupling():
    out = run(FIG3A_IC, params(g=1.0), DESK_GRID, DESK_CFG)
    assert out.verdict == "BlowupLike"
    assert out.component == "Both"


def test_criterion8_dissipative_component_and_ordering():
    out_m1 = run(FIG3A_IC, params(g=-1.0), DESK_GRID, DESK_CFG)
    out_m2 = run(FIG3A_IC, params(g=-2.0), DESK_GRID, DESK_CFG)
    assert out_m1.verdict == "BlowupLike" and out_m1.component == "V"
    assert out_m2.verdict == "BlowupLike" and out_m2.component == "V"
    assert out_m2.tStop < out_m1.tStop


def test_criterion8_phase_dependent_fate():
    out_unbroken = run(FIG3C_IC, params(gamma=0.5), DESK_GRID, DESK_CFG)
    assert out_unbroken.verdict == "BlowupLike"
    # broken phase: the pulses spread and peaks stay low.  Horizon 1.0 keeps
    # the run clear of the wall at r = L = 16: at t = 1 about 4% of the power
    # lies in r > 12, by t = 2 about 30%, and after t ~ 1.2 the peaks rise
    # again (0.15 to 2.5 by t = 2; measured on n = 1999).
    out_broken = run(
        FIG3C_IC, params(gamma=1.5), DESK_GRID,
        RunConfig(dt0=1e-4, dtMin=1e-8, tMax=1.0, sampleEvery=200),
    )
    assert out_broken.verdict == "Dispersed"
    assert out_broken.tStop <= 1.0


# --------------------------------------------------------------------------
# Criterion 9: threshold lemmas imply the conjunction check, 50 random
# inputs each.
def _random_base(rng):
    from ptnls import InitialFunctionals

    return InitialFunctionals(
        s0=rng.uniform(0.1, 5.0), s1=0.0, s2=0.0, s3=0.0, energy=0.0,
        msw=rng.uniform(0.01, 2.0), mswRate=rng.uniform(-1.0, 1.0),
        gradU2=0.0, gradV2=0.0, quarticU=0.0, quarticV=0.0, crossQuartic=0.0,
    )


def test_criterion9_lemma1_implies_theorem1():
    import dataclasses

    rng = np.random.default_rng(7)
    for _ in range(50):
        p = params(
            gamma=rng.uniform(0.2, 1.0),
            kappa=rng.uniform(0.3, 2.0),
            g1=rng.uniform(0.5, 3.0),
            g2=rng.uniform(0.5, 3.0),
            g=rng.uniform(0.0, 1.5),
        )
        base = _random_base(rng)
        bound = lemma1_threshold(base, p)["E0bound"]
        ini = dataclasses.replace(base, energy=bound * rng.uniform(1.01, 3.0))
        assert lemma1_threshold(ini, p)["satisfied"]
        assert check_theorem1(ini, p).satisfied


def test_criterion9_lemma2_implies_theorem1():
    import dataclasses

    rng = np.random.default_rng(13)
    for _ in range(50):
        p = params(
            gamma=rng.uniform(0.2, 1.0),
            kappa=rng.uniform(0.3, 2.0),
            g1=rng.uniform(0.5, 3.0),
            g2=rng.uniform(0.5, 3.0),
            g=rng.uniform(0.0, 1.5),
        )
        base = dataclasses.replace(_random_base(rng), energy=rng.uniform(-5, 5))
        bound = lemma2_threshold(base, p)["Y0bound"]
        ini = dataclasses.replace(
            base, mswRate=bound - abs(bound) * rng.uniform(0.01, 1.0) - 0.5
        )
        assert lemma2_threshold(ini, p)["satisfied"]
        assert check_theorem1(ini, p).satisfied


# --------------------------------------------------------------------------
# Criterion 10: one dr,dt refinement preserves the verdict and moves tStop
# by less than 5%.
def test_criterion10_refinement_stability():
    rep = convergence_check(
        FIG3A_IC, params(g=1.0), RadialGrid(16.0, 3999), DESK_CFG, refinements=1
    )
    assert rep.verdicts[0] == rep.verdicts[1] == "BlowupLike"
    assert rep.tStopDiffs[0] / rep.tStops[0] < 0.05
