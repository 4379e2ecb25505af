import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from ptnls import (
    BrokenPhase,
    GaussianIC,
    PhaseLabel,
    SystemParams,
    classify_phase,
    evaluate_ic,
    rotation_coefficients,
)


def params(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=1.0, dim=3):
    return SystemParams(gamma=gamma, kappa=kappa, g1=g1, g2=g2, g=g, dim=dim)


class TestSystemParams:
    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            SystemParams(gamma=-1.0, kappa=1.0)

    def test_zero_gamma_is_conservative_limit(self):
        p = SystemParams(gamma=0.0, kappa=1.0)
        assert classify_phase(p) is PhaseLabel.UNBROKEN

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            SystemParams(gamma=0.5, kappa=0.0)

    def test_rejects_bad_dim(self):
        for dim in (0, -3, True, False, 3.0, 2.5, "3", None):
            with pytest.raises(ValueError, match="dim must be an integer >= 1"):
                SystemParams(gamma=0.5, kappa=1.0, dim=dim)
        for dim in (1, np.int64(3), 10**400):  # numpy and unbounded integers pass
            assert SystemParams(gamma=0.5, kappa=1.0, dim=dim).dim == dim

    def test_rejects_non_finite_coefficients(self):
        for name in ("gamma", "kappa", "g1", "g2", "g"):
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError):
                    params(**{name: bad})
            # finite extremes still pass
            assert getattr(params(**{name: 1e308}), name) == 1e308


class TestGaussianIC:
    def test_rejects_non_finite_fields(self):
        # an infinite width used to be sampled as a zero field
        for i in range(4):
            for bad in (math.inf, math.nan):
                fields = [1.0] * 4
                fields[i] = bad
                with pytest.raises(ValueError, match="must be finite and > 0"):
                    GaussianIC(*fields)
            fields = [1.0] * 4
            fields[i] = 1e308
            GaussianIC(*fields)  # finite extremes still pass


class TestClassifyPhase:
    def test_unbroken(self):
        assert classify_phase(params(gamma=0.5, kappa=1.0)) is PhaseLabel.UNBROKEN

    def test_broken(self):
        assert classify_phase(params(gamma=1.5, kappa=1.0)) is PhaseLabel.BROKEN

    def test_exceptional(self):
        assert classify_phase(params(gamma=1.0, kappa=1.0)) is PhaseLabel.EXCEPTIONAL

    def test_partition(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            gamma, kappa = rng.uniform(0.01, 3.0, size=2)
            label = classify_phase(params(gamma=gamma, kappa=kappa))
            expected = (
                PhaseLabel.UNBROKEN
                if kappa > gamma
                else PhaseLabel.BROKEN
                if gamma > kappa
                else PhaseLabel.EXCEPTIONAL
            )
            assert label is expected


class TestRotationCoefficients:
    def test_broken_phase_rejected(self):
        with pytest.raises(BrokenPhase):
            rotation_coefficients(params(gamma=1.5, kappa=1.0))
        with pytest.raises(BrokenPhase):
            rotation_coefficients(params(gamma=1.0, kappa=1.0))

    def test_omega(self):
        rc = rotation_coefficients(params(gamma=0.5, kappa=1.0))
        assert rc.omega == pytest.approx(math.sqrt(0.75), abs=1e-12)

    def test_equal_self_coefficients_kill_M(self):
        rc = rotation_coefficients(params(gamma=0.5, kappa=1.0, g1=2.0, g2=2.0, g=0.3))
        assert rc.Gminus == 0.0
        assert rc.Mcoef == 0
        # Q then collapses to i*g*sin(alpha)
        assert rc.Qcoef == pytest.approx(1j * 0.3 * math.sin(rc.alpha))

    def test_alpha_against_extended_precision(self):
        # exp(i*alpha) must reproduce -kappa/(omega - i*gamma); reference
        # computed with mpmath-free extended precision via complex128 on a
        # rationalized formula.
        p = params(gamma=0.5, kappa=1.0, g1=4.0, g2=-1.0, g=-0.5)
        rc = rotation_coefficients(p)
        target = -p.kappa / (rc.omega - 1j * p.gamma)
        assert abs(cmath.exp(1j * rc.alpha) - target) < 1e-14
        assert abs(abs(cmath.exp(1j * rc.alpha)) - 1.0) < 1e-14

    def test_full_coefficient_set(self):
        p = params(gamma=0.5, kappa=1.0, g1=4.0, g2=-1.0, g=-0.5)
        rc = rotation_coefficients(p)
        assert rc.Gplus == 1.5
        assert rc.Gminus == 2.5
        ta, ca, sa = math.tan(rc.alpha), math.cos(rc.alpha), math.sin(rc.alpha)
        assert rc.Gcoef == pytest.approx(-0.5 + 1.5 - 1j * 2.5 * ta)
        assert rc.Mcoef == pytest.approx(-2.5 / ca)
        assert rc.Qcoef == pytest.approx(-rc.Mcoef + 1j * (-0.5) * sa)
        assert rc.Pcoef == pytest.approx(
            rc.Mcoef * math.cos(2 * rc.alpha) - 2j * 1.5 * sa
        )

    def test_alternative_convention_recorded(self):
        rc = rotation_coefficients(params(gamma=0.5, kappa=1.0))
        assert rc.alphaArcsin == pytest.approx(math.asin(0.5))


class TestEvaluateIC:
    def test_origin_value(self):
        ic = GaussianIC(ampU=1.0, ampV=1.0, widthU=1.0, widthV=1.0)
        u0, v0 = evaluate_ic(ic, params(), 0.0)
        assert complex(u0) == pytest.approx(math.pi ** (-0.75))
        assert u0.imag == 0.0

    def test_fig1_amplitude(self):
        ic = GaussianIC(ampU=5.8, ampV=1.3, widthU=1.0, widthV=1.0)
        u0, _ = evaluate_ic(ic, params(), 0.0)
        assert complex(u0) == pytest.approx(5.8 * math.pi ** (-0.75))

    def test_off_origin(self):
        ic = GaussianIC(ampU=2.0, ampV=1.0, widthU=0.5, widthV=1.0)
        u0, _ = evaluate_ic(ic, params(), 1.0)
        expected = 2.0 * math.pi ** (-0.75) * 0.5 ** (-1.5) * math.exp(-2.0)
        assert complex(u0) == pytest.approx(expected, rel=1e-12)

    def test_norm_by_quadrature(self):
        # ||u0||_2^2 must equal A^2; radial quadrature oracle.
        ic = GaussianIC(ampU=2.0, ampV=1.0, widthU=0.5, widthV=1.0)
        p = params(dim=3)

        def integrand(r):
            u0, _ = evaluate_ic(ic, p, r)
            return 4 * math.pi * r**2 * abs(complex(u0)) ** 2

        norm2, _ = quad(integrand, 0, 20)
        assert norm2 == pytest.approx(ic.ampU**2, rel=1e-8)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            evaluate_ic(GaussianIC(1, 1, 1, 1), params(), -0.1)

    def test_rejects_nan_radius(self):
        for r in (math.nan, [0.0, math.nan, 1.0]):
            with pytest.raises(ValueError, match="radius must be >= 0"):
                evaluate_ic(GaussianIC(1, 1, 1, 1), params(), r)

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            GaussianIC(ampU=0.0, ampV=1.0)
        with pytest.raises(ValueError):
            GaussianIC(ampU=1.0, ampV=1.0, widthU=-1.0)
