import math
import os
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

import ptnls
from ptnls import (
    F_function,
    G_function,
    GaussianIC,
    M_function,
    InitialFunctionals,
    NotManakov,
    RegimeViolation,
    SystemParams,
    check_manakov_theorem,
    check_theorem1,
    check_theorem2,
    constants,
    early_collapse_Z,
    energy_growth_bound,
    gaussian_moments,
    lemma1_threshold,
    lemma2_threshold,
    manakov_F,
    manakov_invariants,
)


def params(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=1.0, dim=3):
    return SystemParams(gamma=gamma, kappa=kappa, g1=g1, g2=g2, g=g, dim=dim)


def make_initial(s0=1.0, s1=0.0, s2=0.0, s3=0.0, energy=0.0, msw=1.0, mswRate=0.0):
    """Directly assembled functional values; only the fields the criteria
    read are meaningful here."""
    return InitialFunctionals(
        s0=s0, s1=s1, s2=s2, s3=s3, energy=energy, msw=msw, mswRate=mswRate,
        gradU2=0.0, gradV2=0.0, quarticU=0.0, quarticV=0.0, crossQuartic=0.0,
    )


class TestConstants:
    def test_symmetric_unit_couplings(self):
        cc = constants(params(gamma=0.5, kappa=1.0))
        assert cc.c1 == pytest.approx(23.0)
        assert cc.c2 == pytest.approx(0.8)
        assert cc.c3 == pytest.approx(19.2)
        assert cc.c4 == pytest.approx(math.sqrt(7.0))
        assert cc.beta == pytest.approx(19.2 * 0.5 / 0.8)

    def test_negative_cross_coupling_branch(self):
        cc = constants(params(g1=4.0, g2=1.0, g=-0.5))
        # min(1, 4 - 0.5*2, 1 - 0.5*0.5) = 0.75
        assert cc.c2 == pytest.approx(0.6)
        assert cc.c3 == pytest.approx(19.2 * 4)

    def test_c2_none_outside_focusing(self):
        cc = constants(params(g1=4.0, g2=-1.0, g=-0.5))
        assert cc.c2 is None and cc.beta is None
        assert cc.c1 == pytest.approx(23.0)
        assert cc.c4 == pytest.approx(math.sqrt(7.0))

    def test_dim_restriction(self):
        with pytest.raises(RegimeViolation):
            constants(params(dim=2))

    def test_dimension_dependence(self):
        cc = constants(params(gamma=1.0, kappa=2.0, dim=5))
        assert cc.c1 == pytest.approx(4 * 2 + 4 * 31 / 3)
        assert cc.c3 == pytest.approx(32 * 5 / 7)
        assert cc.c4 == pytest.approx(2 * math.sqrt(2 + 7 / 3))


class TestFMG:
    def test_F_at_zero_is_msw(self):
        ini = make_initial(msw=2.5)
        assert F_function(ini, params(), 0.0) == 2.5

    def test_F_small_time_expansion(self):
        # F(t) = X0 + Y0 t + (8N/(N+2)) E0 t^2 + 8 kappa S0 t^2 + O(t^3)
        ini = make_initial(s0=2.0, energy=-3.0, msw=1.0, mswRate=0.5)
        p = params(gamma=0.5, kappa=1.0)
        t = 1e-5
        expected = 1.0 + 0.5 * t + (4.8 * (-3.0) + 8 * 1.0 * 2.0) * t**2
        assert F_function(ini, p, t) == pytest.approx(expected, abs=1e-13)

    def test_F_gain_term_accurate_at_small_time(self):
        # X0 = Y0 = a = 0 leaves b (e^x - x - 1) with b = 4 kappa S0 / gamma^2
        # = 400 and x = 2 gamma t; e^x - 1 - x would lose ~1e-9 relative here
        ini = make_initial(s0=100.0, energy=0.0, msw=0.0, mswRate=0.0)
        p = params(gamma=1.0, kappa=1.0)
        t = 1.35e-4
        x = 2 * t
        series = 400 * (x**2 / 2 + x**3 / 6 + x**4 / 24 + x**5 / 120)
        assert F_function(ini, p, t) == pytest.approx(series, rel=1e-11, abs=0)

    def test_F_rejects_negative_time(self):
        with pytest.raises(ValueError):
            F_function(make_initial(), params(), -0.1)

    def test_M_is_running_sup_plus_one(self):
        # brute-force running supremum on a dense grid as the oracle
        ini = make_initial(s0=1.0, energy=-40.0, msw=0.5, mswRate=3.0)
        p = params(gamma=0.5, kappa=1.0)
        t = np.linspace(0.0, 2.0, 17)
        dense = np.linspace(0.0, 2.0, 400001)
        f_dense = F_function(ini, p, dense)
        oracle = np.interp(t, dense, np.maximum.accumulate(f_dense)) + 1.0
        got = M_function(ini, p, t)
        assert np.allclose(got, oracle, rtol=1e-6, atol=1e-8)
        # one input per branch of the closed form; F' convex, so at most one
        # interior peak r1
        cases = {
            "Y0 <= 0": make_initial(s0=1.0, energy=-10.0, msw=0.5, mswRate=-1.0),
            "E0 > 0, F' > 0": make_initial(s0=1.0, energy=5.0, msw=0.5, mswRate=2.0),
            # F'' < 0 up to t_low = ln 1.2, yet F' stays positive
            "F' dips, stays > 0": make_initial(s0=1.0, energy=-2.0, mswRate=3.0),
            # r1 ~ 0.613 between the samples 0.5 and 1; F(4) > F(r1) again
            "peak between samples": make_initial(s0=0.05, energy=-0.625, mswRate=3.0),
            "S0 = 0": make_initial(s0=0.0, energy=-2.0, msw=0.5, mswRate=3.0),
        }
        t = np.linspace(0.0, 4.0, 9)
        dense = np.linspace(0.0, 4.0, 400001)
        for name, ini in cases.items():
            f_dense = F_function(ini, p, dense)
            oracle = np.interp(t, dense, np.maximum.accumulate(f_dense)) + 1.0
            got = M_function(ini, p, t)
            assert np.allclose(got, oracle, rtol=1e-6, atol=1e-8), name
            shuffled = np.array([5, 0, 8, 2, 7, 1, 4, 3, 6])
            assert np.array_equal(M_function(ini, p, t[shuffled]), got[shuffled]), name
            scalar = M_function(ini, p, 0.7)
            assert isinstance(scalar, float), name
            assert scalar == pytest.approx(
                np.interp(0.7, dense, np.maximum.accumulate(f_dense)) + 1.0,
                rel=1e-6, abs=1e-8,
            ), name

    def test_zero_power_stays_finite_at_long_times(self):
        # at S0 = 0 the gain term drops out; it is not 0 * inf once
        # exp(2 gamma t) overflows (2 gamma t > ~709)
        ini = make_initial(s0=0.0, energy=0.0, msw=1.0, mswRate=-1.0)
        p = params(gamma=0.5, kappa=1.0)
        assert F_function(ini, p, 1000.0) == -999.0
        assert np.array_equal(M_function(ini, p, [1.0, 1000.0]), [2.0, 2.0])

    def test_M_rejects_negative_s0(self):
        # F' is convex only for S0 >= 0
        with pytest.raises(ValueError):
            M_function(make_initial(s0=-1.0, energy=-5.0, mswRate=1.0), params(), 1.0)

    def test_M_monotone(self):
        ini = make_initial(s0=1.0, energy=-10.0, msw=0.5, mswRate=-1.0)
        t = np.linspace(0.0, 3.0, 50)
        M = M_function(ini, params(), t)
        assert np.all(np.diff(M) >= -1e-12)

    def test_G_formula(self):
        ini = make_initial(s0=1.0, energy=-10.0, msw=0.5)
        p = params(gamma=0.5, kappa=1.0)
        cc = constants(p)
        t = 0.3
        expected = M_function(ini, p, t) * (
            cc.c1 * t**2 / 2 + math.exp(cc.beta * t) - 1.0
        )
        assert G_function(ini, p, t) == pytest.approx(expected, rel=1e-12)

    def test_G_requires_focusing(self):
        with pytest.raises(RegimeViolation):
            G_function(make_initial(), params(g2=-1.0, g=-0.5), 0.1)


class TestTheorem1:
    def test_satisfied_for_deeply_negative_energy(self):
        ini = make_initial(s0=1.0, energy=-2000.0, msw=0.01)
        rep = check_theorem1(ini, params(gamma=0.5, kappa=1.0))
        assert rep.satisfied
        t0 = rep.certifiedTime
        assert type(t0) is float  # a numpy scalar prints as np.float64(...)
        p = params(gamma=0.5, kappa=1.0)
        assert F_function(ini, p, t0) + 1 < 0
        assert G_function(ini, p, t0) < 1

    def test_certified_time_is_earliest(self):
        ini = make_initial(s0=1.0, energy=-2000.0, msw=0.01)
        p = params(gamma=0.5, kappa=1.0)
        rep = check_theorem1(ini, p)
        t_before = 0.999 * rep.certifiedTime
        assert not (
            F_function(ini, p, t_before) + 1 < 0 and G_function(ini, p, t_before) < 1
        )

    def test_not_satisfied_for_positive_energy(self):
        ini = make_initial(s0=1.0, energy=5.0, msw=1.0)
        rep = check_theorem1(ini, params())
        assert not rep.satisfied and rep.certifiedTime is None

    def test_narrow_window_certified(self):
        # F + 1 < 0 from t = 0.0415692216 on and G < 1 up to 0.0415692305: the
        # window is 8.9e-9 wide, far narrower than the spacing of any scan
        ini = make_initial(s0=1.0, energy=0.0, msw=0.5, mswRate=-36.4216)
        p = params()
        for samples in (0, 1, 4096):
            rep = check_theorem1(ini, p, samples=samples)
            assert rep.satisfied, samples
            t0 = rep.certifiedTime
            assert F_function(ini, p, t0) + 1 < 0 and G_function(ini, p, t0) < 1

    def test_regime_violation(self):
        with pytest.raises(RegimeViolation):
            check_theorem1(make_initial(), params(g2=-1.0, g=-0.5))

    def test_long_horizon_overflows_without_a_warning_or_a_new_answer(self):
        # a certified input at gamma = 0.1: at horizon 2e4, F, M and G all
        # overflow to inf on the trace, silently, and the answer is the
        # default horizon's
        p = params(gamma=0.1)
        ini = gaussian_moments(GaussianIC(10.0, 10.0, 0.25, 0.25), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_theorem1(ini, p, horizon=20000.0)
        assert rep.certifiedTime == check_theorem1(ini, p).certifiedTime
        assert rep.certifiedTime == 0.007360924148260975
        for name in ("F", "M", "G"):
            assert rep.functionTrace[name][-1] == math.inf, name

    def test_long_horizon_G_overflows_without_a_warning(self):
        # exp(beta t) overflows long before t = 100: G = inf there, which
        # decides G < 1 the same way as any G >= 1 does
        p = params(g=-0.5)
        ini = gaussian_moments(GaussianIC(4.0, 2.0, 0.3, 0.1), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_theorem1(ini, p, horizon=100.0)
            G = G_function(ini, p, rep.functionTrace["t"])
        assert not rep.satisfied and rep.certifiedTime is None
        assert np.isinf(rep.functionTrace["G"]).any()
        assert np.array_equal(G, rep.functionTrace["G"])

    def test_trace_shapes(self):
        rep = check_theorem1(make_initial(energy=3.0), params(), samples=128)
        tr = rep.functionTrace
        assert set(tr) == {"t", "F", "M", "G"}
        assert tr["t"].shape == tr["F"].shape == tr["M"].shape == tr["G"].shape
        assert tr["t"][0] == 0.0 and tr["t"][-1] == pytest.approx(8.0)
        for name, public in (("F", F_function), ("M", M_function), ("G", G_function)):
            assert np.array_equal(tr[name], public(rep.inputs, params(), tr["t"])), name


class TestLemmas:
    def test_bracket_order(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ini = make_initial(
                s0=rng.uniform(0.1, 5),
                msw=rng.uniform(0.01, 2),
                mswRate=rng.uniform(-1, 1),
                energy=rng.uniform(-10, 10),
            )
            p = params(gamma=rng.uniform(0.2, 1.0), kappa=rng.uniform(0.3, 2.0))
            for lem in (lemma1_threshold, lemma2_threshold):
                res = lem(ini, p)
                assert 0 < res["T0min"] <= res["T0max"]

    def test_lemma1_implies_main_check(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            base = make_initial(
                s0=rng.uniform(0.1, 3),
                msw=rng.uniform(0.01, 1),
                mswRate=rng.uniform(-0.5, 0.5),
            )
            p = params(gamma=rng.uniform(0.2, 0.8), kappa=rng.uniform(0.5, 1.5))
            bound = lemma1_threshold(base, p)["E0bound"]
            assert bound < 0
            ini = make_initial(
                s0=base.s0, msw=base.msw, mswRate=base.mswRate, energy=1.5 * bound
            )
            res = lemma1_threshold(ini, p)
            assert res["satisfied"]
            rep = check_theorem1(ini, p)
            assert rep.satisfied
            assert rep.certifiedTime <= res["T0max"] + 1e-6

    def test_lemma2_implies_main_check(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            base = make_initial(
                s0=rng.uniform(0.1, 3),
                msw=rng.uniform(0.01, 1),
                energy=rng.uniform(-5, 5),
            )
            p = params(gamma=rng.uniform(0.2, 0.8), kappa=rng.uniform(0.5, 1.5))
            bound = lemma2_threshold(base, p)["Y0bound"]
            ini = make_initial(
                s0=base.s0, msw=base.msw, energy=base.energy,
                mswRate=bound - abs(bound) - 1.0,
            )
            res = lemma2_threshold(ini, p)
            assert res["satisfied"]
            assert check_theorem1(ini, p).satisfied

    def test_mild_data_fails_thresholds(self):
        ini = make_initial(s0=1.0, msw=1.0, mswRate=0.0, energy=1.0)
        assert not lemma1_threshold(ini, params())["satisfied"]
        assert not lemma2_threshold(ini, params())["satisfied"]


def z_quadrature(ini, p, t):
    """Nested adaptive quadrature oracle for the early-collapse bound."""
    N = p.dim
    gamma, kappa = p.gamma, p.kappa
    c4 = constants(p).c4
    X0, Y0, E0, S0 = ini.msw, ini.mswRate, ini.energy, ini.s0

    def emax(s):
        return (E0 + 2 * kappa * gamma * S0 * s) * math.exp(2 * gamma * s)

    def inner(s):
        val, _ = quad(
            lambda sig: math.exp(c4 * sig)
            * (emax(sig) + kappa * S0 * math.exp(2 * gamma * sig)),
            0, s, limit=200,
        )
        return 4 * N * val

    def outer(s):
        return math.exp(-2 * c4 * s) * (Y0 - c4 * X0 + inner(s))

    val, _ = quad(outer, 0, t, limit=200)
    return X0 + val


class TestEarlyCollapse:
    def test_energy_growth_bound(self):
        ini = make_initial(s0=2.0, energy=-3.0)
        p = params(gamma=0.5, kappa=1.0)
        assert energy_growth_bound(ini, p, 0.0) == -3.0
        t = 0.7
        expected = (-3.0 + 2 * 1.0 * 0.5 * 2.0 * t) * math.exp(t)
        assert energy_growth_bound(ini, p, t) == pytest.approx(expected, rel=1e-12)

    def test_Z_at_zero(self):
        p = params(g1=4.0, g2=-1.0, g=-0.5)
        assert early_collapse_Z(make_initial(msw=3.3), p, 0.0) == pytest.approx(3.3)

    def test_Z_against_nested_quadrature(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            ini = make_initial(
                s0=rng.uniform(0.5, 30),
                msw=rng.uniform(0.1, 10),
                mswRate=rng.uniform(-5, 5),
                energy=rng.uniform(-100, 20),
            )
            p = params(
                gamma=rng.uniform(0.2, 1.0),
                kappa=rng.uniform(0.3, 2.0),
                g1=rng.uniform(0.5, 4.0),
                g2=-rng.uniform(0.0, 2.0),
                g=-rng.uniform(0.0, 1.0),
            )
            for t in (0.1, 0.5, 1.5):
                want = z_quadrature(ini, p, t)
                got = early_collapse_Z(ini, p, t)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-10), (t,)

    def test_Z_regime_violation(self):
        with pytest.raises(RegimeViolation):
            early_collapse_Z(make_initial(), params(g2=1.0), 0.1)

    def test_Z_rejects_negative_time(self):
        with pytest.raises(ValueError):
            early_collapse_Z(make_initial(), params(g1=4.0, g2=-1.0, g=-0.5), -1.0)

    def test_theorem2_satisfied_gaussian(self):
        p = params(gamma=0.45, kappa=1.0, g1=4.0, g2=-1.0, g=-0.5)
        ini = gaussian_moments(GaussianIC(5.8, 0.9, 1.0, 1.0), p)
        rep = check_theorem2(ini, p)
        assert rep.satisfied
        t_star = rep.certifiedTime
        assert type(t_star) is float
        assert early_collapse_Z(ini, p, t_star) <= 0
        assert early_collapse_Z(ini, p, 0.9 * t_star) > 0

    def test_theorem2_terminates_where_float_spacing_exceeds_tolerance(self):
        # Z has its zero near t = 4e7, where doubles are ~7e-9 apart: more
        # than the 1e-9 bisection tolerance.  Run in a child process so that
        # a bisection that never ends fails the test instead of hanging it.
        code = (
            "from ptnls import InitialFunctionals, SystemParams, check_theorem2\n"
            "p = SystemParams(gamma=1e-12, kappa=1e-12, g1=1.0, g2=-1.0, g=-1.0)\n"
            "z = dict.fromkeys(InitialFunctionals.__dataclass_fields__, 0.0)\n"
            "ini = InitialFunctionals(**{**z, 's0': 1e-12, 'energy': -1e-16,"
            " 'msw': 1.0})\n"
            "print(check_theorem2(ini, p, horizon=1e9).certifiedTime)\n"
        )
        src = str(Path(ptnls.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        t_star = float(done.stdout)
        assert 3e7 < t_star < 5e7

    def test_theorem2_not_satisfied(self):
        p = params(gamma=0.5, kappa=1.0, g1=4.0, g2=-1.0, g=-0.5)
        ini = gaussian_moments(GaussianIC(5.8, 1.3, 1.0, 1.0), p)
        rep = check_theorem2(ini, p)
        assert not rep.satisfied and rep.certifiedTime is None


class TestManakov:
    def test_requires_equal_couplings(self):
        with pytest.raises(NotManakov):
            manakov_invariants(make_initial(), params(g1=2.0))
        with pytest.raises(NotManakov):
            manakov_F(make_initial(), params(g1=2.0), 0.5)

    def test_invariants_values(self):
        ini = make_initial(s0=3.0, s1=0.4, s2=-0.2, s3=1.0)
        p = params(gamma=0.5, kappa=1.0)
        out = manakov_invariants(ini, p)
        assert out["S1const"] == 0.4
        assert out["Sconst"] == pytest.approx(1.0 * 3.0 - 0.5 * (-0.2))

    def test_oscillation_solves_defining_ode(self):
        # the closed form must satisfy S0'' + 4 omega^2 S0 = 4 kappa S with
        # S0(0) = s0 and S0'(0) = 2 gamma s3
        ini = make_initial(s0=3.0, s1=0.4, s2=-0.2, s3=1.0)
        p = params(gamma=0.5, kappa=1.0)
        out = manakov_invariants(ini, p)
        osc = out["oscillation"]
        omega, mean = osc["omega"], osc["mean"]

        def s0_of(t):
            return (
                mean
                + osc["S01"] * math.cos(2 * omega * t)
                + osc["S02"] * math.sin(2 * omega * t)
            )

        assert s0_of(0.0) == pytest.approx(ini.s0, rel=1e-12)
        h = 1e-6
        d1 = (s0_of(h) - s0_of(-h)) / (2 * h)
        assert d1 == pytest.approx(2 * p.gamma * ini.s3, rel=1e-6)
        t = 0.37
        d2 = (s0_of(t + h) - 2 * s0_of(t) + s0_of(t - h)) / h**2
        assert d2 + 4 * omega**2 * s0_of(t) == pytest.approx(
            4 * p.kappa * out["Sconst"], rel=1e-4
        )

    def test_printed_coefficient_reported(self):
        # the two coefficients coincide when kappa = 1, so use kappa = 2
        ini = make_initial(s0=3.0, s2=-0.2, s3=1.0)
        out = manakov_invariants(ini, params(gamma=0.5, kappa=2.0))
        osc = out["oscillation"]
        assert "S01printed" in osc
        assert osc["S01"] != pytest.approx(osc["S01printed"])

    def test_no_oscillation_in_broken_phase(self):
        out = manakov_invariants(make_initial(), params(gamma=1.5, kappa=1.0))
        assert out["oscillation"] is None

    def test_manakov_F_coefficients(self):
        ini = make_initial(s1=0.5, energy=-4.0, msw=1.2, mswRate=0.3)
        p = params(gamma=0.5, kappa=1.0)
        t = 0.25
        expected = 1.2 + 0.3 * t + 4.8 * (-4.0 - 1.0 * 0.5) * t**2
        assert manakov_F(ini, p, t) == pytest.approx(expected, rel=1e-12)

    def test_manakov_check_satisfied(self):
        ini = make_initial(s0=1.0, energy=-2000.0, msw=0.01)
        p = params(gamma=0.5, kappa=1.0)
        rep = check_manakov_theorem(ini, p)
        assert rep.satisfied and type(rep.certifiedTime) is float
        assert type(rep.satisfied) is bool
        assert manakov_F(ini, p, rep.certifiedTime) + 1 < 0

    def test_manakov_check_trace_formula(self):
        ini = make_initial(s0=1.0, energy=-50.0, msw=0.5)
        p = params(gamma=0.5, kappa=1.0)
        rep = check_manakov_theorem(ini, p, horizon=1.0, samples=64)
        tr = rep.functionTrace
        cc = constants(p)
        N = p.dim
        expected_G = tr["M"] * (
            cc.c1 * tr["t"] ** 2 / 2
            + np.exp(48 * N * p.gamma * tr["t"] / (N + 2))
            - 1.0
        )
        assert np.allclose(tr["G"], expected_G, rtol=1e-12)

    def test_manakov_M_is_running_sup_plus_one(self):
        # brute-force running supremum of the quadratic F-hat as the oracle;
        # a = (8N/(N+2))(E0 - kappa S1) < 0 puts its vertex at t = 0.3125
        p = params(gamma=0.5, kappa=1.0)
        dense = np.linspace(0.0, 2.0, 400001)
        for energy in (-1.0, 3.0):  # a < 0 and a > 0
            ini = make_initial(s1=0.6, energy=energy, msw=0.5, mswRate=3.0)
            rep = check_manakov_theorem(ini, p, horizon=2.0, samples=16)
            tr = rep.functionTrace
            f_dense = manakov_F(ini, p, dense)
            oracle = np.interp(tr["t"], dense, np.maximum.accumulate(f_dense)) + 1.0
            assert np.allclose(tr["M"], oracle, rtol=1e-6, atol=1e-8), energy

    def test_manakov_piece_is_the_falling_half_of_the_parabola(self):
        # a = (8N/(N+2))(E0 - kappa S1) = -24 < 0: F-hat' = Y0 + 2at falls
        # for ever, so F-hat falls from its vertex -Y0/(2a), or from 0 if Y0 <= 0
        p = params(gamma=0.5, kappa=1.0)
        horizon = 2.0
        rep = check_manakov_theorem(make_initial(energy=-5.0, mswRate=12.0), p, horizon)
        start, end = rep.piece
        assert abs(start - 0.25) <= ptnls.criteria._TIME_TOL and end == horizon
        for y0 in (0.0, -3.0):
            rep = check_manakov_theorem(make_initial(energy=-5.0, mswRate=y0), p, horizon)
            assert rep.piece == (0.0, horizon), y0

    def test_manakov_check_regimes(self):
        with pytest.raises(NotManakov):
            check_manakov_theorem(make_initial(), params(g1=2.0))
        with pytest.raises(RegimeViolation):
            check_manakov_theorem(
                make_initial(), params(g1=-1.0, g2=-1.0, g=-1.0)
            )



@pytest.mark.parametrize("horizon", [0.0, -1.0])
@pytest.mark.parametrize("check, p", [
    (check_theorem1, params()),
    (check_theorem2, params(g1=4.0, g2=-1.0, g=-0.5)),
    (check_manakov_theorem, params()),
], ids=["theorem1", "theorem2", "manakov"])
def test_non_positive_horizon_rejected(check, p, horizon):
    with pytest.raises(ValueError, match="horizon must be > 0"):
        check(make_initial(), p, horizon)
    # and the other setup checks the three share
    with pytest.raises(ValueError, match="samples must be >= 0"):
        check(make_initial(), p, samples=-1)
    for bad in (True, 2.5, 3.0, None):
        with pytest.raises(ValueError, match="samples must be an integer"):
            check(make_initial(), p, samples=bad)
    with pytest.raises(ValueError, match="horizon must be a number, not a bool"):
        check(make_initial(), p, True)
    for bad in ({"msw": -0.5}, {"s0": -1.0}):
        with pytest.raises(ValueError, match="X0 and S0 must be >= 0"):
            check(make_initial(**bad), p)


@pytest.mark.parametrize("check, p", [
    (check_theorem1, params()),
    (check_theorem2, params(g1=4.0, g2=-1.0, g=-0.5)),
    (check_manakov_theorem, params()),
], ids=["theorem1", "theorem2", "manakov"])
def test_infinite_horizon_rejected(check, p):
    # the trace times of [0, inf] are nan, so no verdict could be read off them
    with pytest.raises(ValueError, match="horizon must be finite"):
        check(make_initial(), p, math.inf)


def _sup_oracle(f, s):
    """sup of f over [0, s]: the best of 2^14 + 1 grid points, refined by a
    bounded Brent search between its neighbours."""
    t = np.linspace(0.0, s, 2**14 + 1)
    i = int(np.argmax(f(t)))
    lo, hi = t[max(i - 1, 0)], t[min(i + 1, len(t) - 1)]
    found = minimize_scalar(lambda x: -f(x), bounds=(lo, hi), method="bounded",
                            options={"xatol": 1e-13})
    return max(f(t[i]), -found.fun)


def _first_hit_oracle(kind, ini, p, t):
    """The first point of the scan t where the check's predicate holds, or
    None.  G and G-hat never fall (M is a running supremum), so only the
    first point where the F part holds can be the first hit."""
    N = p.dim
    if kind == "theorem2":
        hits = np.flatnonzero(early_collapse_Z(ini, p, t) <= 0)
        return t[hits[0]] if hits.size else None
    F = partial(F_function if kind == "theorem1" else manakov_F, ini, p)
    cc = constants(p)
    rate = cc.beta if kind == "theorem1" else 48 * N * p.gamma / (N + 2)
    hits = np.flatnonzero(F(t) + 1 < 0)
    if not hits.size:
        return None
    s = t[hits[0]]
    G = (_sup_oracle(F, s) + 1) * (cc.c1 * s**2 / 2 + math.exp(rate * s) - 1)
    return s if G < 1 else None


_CHECKS = {
    "theorem1": (check_theorem1, st.builds(
        params, gamma=st.floats(0.1, 1.5), kappa=st.floats(0.2, 2.0),
        g1=st.floats(0.5, 3.0), g2=st.floats(0.5, 3.0), g=st.floats(-0.4, 2.0))),
    "theorem2": (check_theorem2, st.builds(
        params, gamma=st.floats(0.1, 1.5), kappa=st.floats(0.2, 2.0),
        g1=st.floats(0.5, 5.0), g2=st.floats(-2.0, 0.0), g=st.floats(-1.0, 0.0))),
    "manakov": (check_manakov_theorem, st.floats(0.3, 2.0).flatmap(
        lambda g: st.builds(params, gamma=st.floats(0.1, 1.5),
                            kappa=st.floats(0.2, 2.0), g1=st.just(g),
                            g2=st.just(g), g=st.just(g)))),
}


@pytest.mark.parametrize("kind", list(_CHECKS))
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_check_agrees_with_a_dense_scan(kind, data):
    """A certified time satisfies the check's predicate, a 2^14-point scan
    before it (less the bisection tolerance, twice) finds no point where the
    predicate holds, and without a certificate a scan of the whole horizon
    finds none either.  samples changes only the trace."""
    check, param_strategy = _CHECKS[kind]
    p = data.draw(param_strategy)
    ini = make_initial(
        s0=data.draw(st.floats(0.0, 5.0)), s1=data.draw(st.floats(-3.0, 3.0)),
        msw=data.draw(st.floats(0.0, 3.0)), mswRate=data.draw(st.floats(-60.0, 20.0)),
        energy=data.draw(st.one_of(st.floats(-1e4, -100.0), st.floats(-100.0, 50.0))),
    )
    horizon = data.draw(st.one_of(st.none(), st.floats(0.01, 20.0)))
    samples = data.draw(st.integers(0, 8))
    rep, full = check(ini, p, horizon, samples), check(ini, p, horizon, 4096)
    assert (rep.satisfied, rep.certifiedTime) == (full.satisfied, full.certifiedTime)
    assert len(rep.functionTrace["t"]) == samples + 1
    horizon = 4.0 / p.gamma if horizon is None else horizon
    tol = ptnls.criteria._TIME_TOL
    if rep.satisfied:
        T = rep.certifiedTime
        assert 0 < T <= horizon
        assert _first_hit_oracle(kind, ini, p, np.array([T])) == T
        if T > 2 * tol:
            scan = np.linspace(0.0, T - 2 * tol, 2**14 + 1)[1:]
            assert _first_hit_oracle(kind, ini, p, scan) is None
    else:
        scan = np.linspace(0.0, horizon, 2**14 + 1)[1:]
        assert _first_hit_oracle(kind, ini, p, scan) is None


# Each public bound, with parameters in its regime.
_BOUNDS = {
    "F_function": (F_function, params()),
    "M_function": (M_function, params()),
    "G_function": (G_function, params()),
    "early_collapse_Z": (early_collapse_Z, params(g1=4.0, g2=-1.0, g=-0.5)),
    "manakov_F": (manakov_F, params()),
    "energy_growth_bound": (energy_growth_bound, params()),
}


@pytest.mark.parametrize("name", list(_BOUNDS))
def test_bound_rejects_times_not_finite_and_non_negative(name):
    """The door of every bound: a float for a scalar t, an array (empty for
    []) otherwise, +inf or a finite value without a warning where exp
    overflows (gamma = 0.5, t = 1e4), and ValueError for a t that is not
    finite and >= 0."""
    bound, p = _BOUNDS[name]
    ini = make_initial(s0=1.0, energy=-3.0, mswRate=0.5)
    assert isinstance(bound(ini, p, 0.5), float)
    assert bound(ini, p, [0.0, -0.0, 0.5]).shape == (3,)
    empty = bound(ini, p, [])
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    zero = make_initial(s0=0.0, msw=0.0)  # E_max = 0, not 0 * inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for record in (ini, zero):
            for t in (1e4, [0.0, 1e4]):
                assert np.all(np.asarray(bound(record, p, t)) > -math.inf), (record, t)
    for bad in (-0.1, -math.inf, math.nan, math.inf, [0.5, math.nan], [[0.1], [math.inf]]):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            bound(ini, p, bad)


def test_constants_computed_once_per_check(monkeypatch):
    """Each check computes its constants once, not at every evaluation of
    a bound during its bisections."""
    p2 = params(gamma=0.45, g1=4.0, g2=-1.0, g=-0.5)
    cases = {
        "theorem1": (check_theorem1, make_initial(s0=1.0, energy=-2000.0, msw=0.01), params()),
        "theorem2": (check_theorem2, gaussian_moments(GaussianIC(5.8, 0.9, 1.0, 1.0), p2), p2),
        "manakov": (check_manakov_theorem, make_initial(s0=1.0, energy=-2000.0, msw=0.01),
                    params()),
    }
    calls = []
    real = ptnls.criteria.constants
    monkeypatch.setattr(ptnls.criteria, "constants", lambda p: calls.append(p) or real(p))
    for kind, (check, ini, p) in cases.items():
        calls.clear()
        assert check(ini, p).satisfied, kind  # so that every bisection ran
        assert len(calls) == 1, kind


# The public bounds behind each check's trace columns; the Manakov M-hat
# and G-hat have none.
_TRACE_BOUNDS = {
    "theorem1": (("F", F_function), ("M", M_function), ("G", G_function)),
    "theorem2": (("Z", early_collapse_Z),),
    "manakov": (("F", manakov_F),),
}


def _predicate(kind, ini, p, T):
    """The check's predicate at T, from the public bounds (F-hat + 1 < 0
    alone for Manakov)."""
    if kind == "theorem2":
        return early_collapse_Z(ini, p, T) <= 0
    if kind == "theorem1":
        return F_function(ini, p, T) + 1 < 0 and G_function(ini, p, T) < 1
    return manakov_F(ini, p, T) + 1 < 0


@pytest.mark.parametrize("kind", list(_CHECKS))
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_trace_is_the_public_bounds(kind, data):
    """A check evaluates the bare closed forms; its trace columns equal the
    public bounds at the trace times bit for bit, and a certified time
    satisfies the predicate that the public bounds state."""
    check, param_strategy = _CHECKS[kind]
    p = data.draw(param_strategy)
    ini = make_initial(
        s0=data.draw(st.floats(0.0, 5.0)), s1=data.draw(st.floats(-3.0, 3.0)),
        msw=data.draw(st.floats(0.0, 3.0)), mswRate=data.draw(st.floats(-60.0, 20.0)),
        energy=data.draw(st.one_of(st.floats(-1e4, -100.0), st.floats(-100.0, 50.0))),
    )
    horizon = data.draw(st.one_of(st.none(), st.floats(0.01, 20.0)))
    rep = check(ini, p, horizon, data.draw(st.integers(0, 64)))
    tr = rep.functionTrace
    for name, bound in _TRACE_BOUNDS[kind]:
        assert np.array_equal(tr[name], bound(ini, p, tr["t"])), name
    if rep.satisfied:
        assert _predicate(kind, ini, p, rep.certifiedTime)


def _bisect_reference(fn, lo, hi, strict, tol=ptnls.criteria._TIME_TOL):
    """Plain bisection for the first t in (lo, hi] where fn(t) < 0 (strict)
    or fn(t) <= 0 holds: the right end of a bracket at most tol wide, or
    with no float left inside it; None if the predicate is false at hi."""
    holds = (lambda v: v < 0) if strict else (lambda v: v <= 0)
    if not holds(fn(hi)):
        return None
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if holds(fn(mid)):
            hi = mid
        else:
            lo = mid
    return hi


@st.composite
def _crossings(draw):
    """(fn, lo, hi, strict): a function whose predicate switches once, at r,
    from false to true, with r mostly inside (lo, hi] and sometimes past hi."""
    family = draw(st.sampled_from(["linear", "convex", "concave", "tangential",
                                   "plateau", "tiny before", "tiny after",
                                   "float spacing"]))
    if family == "float spacing":
        # the scale of Theorem 2 at gamma = kappa = 1e-12 with horizon 1e9,
        # whose zero near 4.08e7 lies where doubles are ~7e-9 apart; that Z
        # is noisy over ~2e-5 around its zero, so a line stands in for it
        r, c = draw(st.floats(3e7, 6e7)), draw(st.floats(1e-9, 1.0))
        return (lambda t: c * (r - t)), draw(st.floats(0.0, 3e7)), \
            draw(st.floats(6e7, 1e9)), draw(st.booleans())
    lo = draw(st.floats(0.0, 10.0))
    width = draw(st.floats(1e-8, 100.0))
    r = lo + width * draw(st.floats(0.0, 1.2))
    c = draw(st.floats(1e-3, 1e3))
    k = draw(st.floats(0.1, 300.0)) / width  # exponents stay below 360
    strict = family != "plateau" and draw(st.booleans())
    fn = {
        "linear": lambda t: c * (r - t),
        "convex": lambda t: c * math.expm1(k * (r - t)),  # like F' falling
        "concave": lambda t: -c * math.expm1(k * (t - r)),  # like -F' rising
        "tangential": lambda t: c * (r - t) ** 3,  # slope 0 at the root
        "plateau": lambda t: c * max(r - t, 0.0),  # 0 from r on
        # a secant step from the tiny side barely moves
        "tiny before": lambda t: 1e-300 if t < r else -c,
        "tiny after": lambda t: c if t < r else -1e-300,
    }[family]
    return fn, lo, lo + width, strict


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(case=_crossings())
def test_first_agrees_with_bisection(case):
    """_first returns a bracket with the predicate false at its left end and
    true at its right end, at most _TIME_TOL wide or with no float inside;
    its right end is bisection's answer to within _TIME_TOL, and it takes at
    most 2 ceil(log2(width / _TIME_TOL)) + 4 evaluations."""
    fn, lo, hi, strict = case
    tol = ptnls.criteria._TIME_TOL
    holds = (lambda v: v < 0) if strict else (lambda v: v <= 0)
    assume(not holds(fn(lo)))
    calls = []
    got = ptnls.criteria._first(lambda t: calls.append(t) or fn(t), lo, hi, strict)
    ref = _bisect_reference(fn, lo, hi, strict)
    assert len(calls) <= 2 * max(math.ceil(math.log2((hi - lo) / tol)), 0) + 4
    if ref is None:
        assert got is None
        return
    a, b = got
    assert lo <= a < b <= hi
    assert holds(fn(b)) and not holds(fn(a))
    assert b - a <= tol or not a < 0.5 * (a + b) < b
    assert abs(b - ref) <= tol


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(horizon=st.floats(0.0, 1e308, exclude_min=True), samples=st.integers(0, 5000))
def test_trace_times_are_linspace(horizon, samples):
    """A check's trace times are np.linspace(0, horizon, samples + 1) bit for
    bit, tiny horizons whose step underflows to 0 included."""
    _, t = ptnls.criteria._setup(params(), horizon, samples)
    assert np.array_equal(t, np.linspace(0.0, horizon, samples + 1))
