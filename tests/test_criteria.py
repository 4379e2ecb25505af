import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

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

    def test_regime_violation(self):
        with pytest.raises(RegimeViolation):
            check_theorem1(make_initial(), params(g2=-1.0, g=-0.5))

    def test_trace_shapes(self):
        rep = check_theorem1(make_initial(energy=3.0), params(), samples=128)
        tr = rep.functionTrace
        assert set(tr) == {"t", "F", "M", "G"}
        assert tr["t"].shape == tr["F"].shape == tr["M"].shape == tr["G"].shape
        assert tr["t"][0] == 0.0 and tr["t"][-1] == pytest.approx(8.0)


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
