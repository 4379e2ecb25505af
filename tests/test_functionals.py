import math

import numpy as np
import pytest
from scipy.integrate import quad

from ptnls import (
    GaussianIC,
    InitialFunctionals,
    RadialGrid,
    RadialState,
    SystemParams,
    evaluate_ic,
    gaussian_moments,
    grid_functionals,
    load_initial,
    s0_upper_bound,
)
from ptnls.functionals import TRACE_COLUMNS


def params(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=1.0, dim=3):
    return SystemParams(gamma=gamma, kappa=kappa, g1=g1, g2=g2, g=g, dim=dim)


def quadrature_moments(ic, p, upper=60.0):
    """Independent oracle: radial quadrature of the Gaussian profiles."""
    N = p.dim
    surface = 2 * math.pi ** (N / 2) / math.gamma(N / 2)

    def integral(f):
        val, _ = quad(lambda r: surface * r ** (N - 1) * f(r), 0, upper, limit=400)
        return val

    def u(r):
        return float(evaluate_ic(ic, p, r)[0].real)

    def v(r):
        return float(evaluate_ic(ic, p, r)[1].real)

    def du(r):
        h = 1e-6
        return (u(r + h) - u(max(r - h, 0.0))) / (h + min(r, h))

    s0 = integral(lambda r: u(r) ** 2 + v(r) ** 2)
    s1 = 2 * integral(lambda r: u(r) * v(r))
    s3 = integral(lambda r: u(r) ** 2 - v(r) ** 2)
    msw = integral(lambda r: r**2 * (u(r) ** 2 + v(r) ** 2))
    msw_rate = 2 * p.gamma * integral(lambda r: r**2 * (u(r) ** 2 - v(r) ** 2))
    quartic_u = integral(lambda r: u(r) ** 4)
    quartic_v = integral(lambda r: v(r) ** 4)
    cross = integral(lambda r: u(r) ** 2 * v(r) ** 2)
    # analytic derivative of the Gaussian avoids finite-difference noise
    grad_u = integral(lambda r: (r / ic.widthU**2 * u(r)) ** 2)
    grad_v = integral(lambda r: (r / ic.widthV**2 * v(r)) ** 2)
    energy = (
        grad_u + grad_v + p.kappa * s1
        - 0.5 * p.g1 * quartic_u - 0.5 * p.g2 * quartic_v - p.g * cross
    )
    return dict(
        s0=s0, s1=s1, s3=s3, msw=msw, mswRate=msw_rate, energy=energy,
        gradU2=grad_u, gradV2=grad_v, quarticU=quartic_u, quarticV=quartic_v,
        crossQuartic=cross,
    )


class TestGaussianMoments:
    def test_symmetric_inputs(self):
        m = gaussian_moments(GaussianIC(1, 1, 0.7, 0.7), params())
        assert m.mswRate == 0.0
        assert m.s3 == 0.0

    def test_s0_simple(self):
        m = gaussian_moments(GaussianIC(4, 2, 0.3, 0.1), params())
        assert m.s0 == 20.0

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            A, B = rng.uniform(0.5, 5, size=2)
            a, b = rng.uniform(0.2, 2, size=2)
            N = int(rng.choice([3, 4, 5]))
            p = params(g1=1.5, g2=0.7, g=-0.4, dim=N)
            ic = GaussianIC(A, B, a, b)
            m = gaussian_moments(ic, p)
            o = quadrature_moments(ic, p)
            for key, want in o.items():
                got = getattr(m, key)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-10), key

    def test_fig1_energy_regression(self):
        # frozen from the high-resolution quadrature oracle
        m = gaussian_moments(
            GaussianIC(5.8, 1.3, 1.0, 1.0),
            params(gamma=0.5, kappa=1.0, g1=4.0, g2=-1.0, g=-0.5),
        )
        assert m.energy == pytest.approx(-73.73456593192338, rel=1e-12)


def make_state(grid, pfun, qfun):
    r = grid.nodes
    return RadialState(grid=grid, f=np.array([pfun(r), qfun(r)], complex), t=0.0)


def reference_functionals(state, p):
    """grid_functionals as the trapezoid rule reads: the field padded with its
    zero end values, np.gradient and np.trapezoid over all n + 2 nodes."""
    grid = state.grid
    dr = grid.dr
    r = np.concatenate(([0.0], grid.nodes, [grid.L]))
    f = np.pad(state.f, ((0, 0), (1, 1)))
    f2 = np.abs(f) ** 2
    (u2, v2), pqbar = f2, f[0] * np.conj(f[1])
    inv_r2 = np.zeros_like(r)
    inv_r2[1:] = 1.0 / r[1:] ** 2
    df = np.gradient(f, dr, axis=1)
    # p/r tends to p_r at r = 0
    ratio = np.concatenate((df[:, :1], f[:, 1:] / r[1:]), axis=1)
    grad_u, grad_v = np.trapezoid(np.abs(df - ratio) ** 2, dx=dr, axis=1)
    quartic_u, quartic_v = np.trapezoid(f2**2 * inv_r2, dx=dr, axis=1)
    cross = np.trapezoid(u2 * v2 * inv_r2, dx=dr)
    s1 = 2 * np.trapezoid(pqbar.real, dx=dr)
    msw_u, msw_v = np.trapezoid(r**2 * f2, dx=dr, axis=1)
    rate = np.trapezoid((f * np.conj(df)).sum(axis=0).imag * r, dx=dr)
    energy = (grad_u + grad_v + p.kappa * s1 - 0.5 * p.g1 * quartic_u
              - 0.5 * p.g2 * quartic_v - p.g * cross)
    u_abs, v_abs = np.abs(f[:, 1:-1]) / grid.nodes
    fourpi = 4 * math.pi
    return {
        "t": state.t,
        "S0": fourpi * np.trapezoid(u2 + v2, dx=dr),
        "S1": fourpi * s1,
        "S2": fourpi * 2 * np.trapezoid(pqbar.imag, dx=dr),
        "S3": fourpi * np.trapezoid(u2 - v2, dx=dr),
        "E": fourpi * energy,
        "X": fourpi * (msw_u + msw_v),
        "Y": fourpi * (4 * rate + 2 * p.gamma * (msw_u - msw_v)),
        "peakU2": np.max(u_abs) ** 2,
        "peakV2": np.max(v_abs) ** 2,
        "originU": u_abs[0],
        "originV": v_abs[0],
    }


class TestGridFunctionals:
    def test_zero_fields(self):
        grid = RadialGrid(8.0, 255)
        st = make_state(grid, np.zeros_like, np.zeros_like)
        d = grid_functionals(st, params())
        assert d["S0"] == 0 and d["E"] == 0 and d["X"] == 0

    def test_keys_are_trace_columns(self):
        st = load_initial(GaussianIC(1.0, 0.5, 1.0, 1.0), RadialGrid(8.0, 255), params())
        d = grid_functionals(st, params())
        assert list(d) == TRACE_COLUMNS

    def test_matches_gaussian_moments(self):
        ic = GaussianIC(2.0, 1.5, 0.8, 0.6)
        p = params(g1=1.2, g2=0.9, g=-0.3)
        grid = RadialGrid(10.0, 9999)  # dr = 1e-3, L > 10*max(a,b)
        st = load_initial(ic, grid, p)
        d = grid_functionals(st, p)
        m = gaussian_moments(ic, p)
        assert d["S0"] == pytest.approx(m.s0, rel=1e-6)
        assert d["S1"] == pytest.approx(m.s1, rel=1e-6)
        assert d["S3"] == pytest.approx(m.s3, rel=1e-6)
        assert d["E"] == pytest.approx(m.energy, rel=1e-4)
        assert d["X"] == pytest.approx(m.msw, rel=1e-6)
        assert d["Y"] == pytest.approx(m.mswRate, rel=1e-6, abs=1e-8)

    def test_single_component(self):
        grid = RadialGrid(8.0, 511)
        st = make_state(grid, lambda r: r * np.exp(-(r**2)), np.zeros_like)
        d = grid_functionals(st, params())
        assert d["S1"] == 0 and d["S2"] == 0
        assert d["S3"] == pytest.approx(d["S0"], rel=1e-14)

    def test_cauchy_schwarz_bounds(self):
        rng = np.random.default_rng(3)
        grid = RadialGrid(4.0, 64)
        for _ in range(25):
            pf = rng.normal(size=64) + 1j * rng.normal(size=64)
            qf = rng.normal(size=64) + 1j * rng.normal(size=64)
            st = RadialState(grid=grid, f=np.array([pf, qf]), t=0.0)
            d = grid_functionals(st, params())
            assert d["S0"] >= 0
            assert abs(d["S1"]) <= d["S0"] * (1 + 1e-12)
            assert abs(d["S2"]) <= d["S0"] * (1 + 1e-12)
            assert abs(d["S3"]) <= d["S0"] * (1 + 1e-12)

    @pytest.mark.parametrize("n", [16, 64, 255])
    def test_matches_the_trapezoid_rule_written_out(self, n):
        # a rough field that is not zero next to r = L, where the gradient
        # term has its one end contribution
        rng = np.random.default_rng(n)
        p = params(gamma=0.3, kappa=0.8, g1=1.3, g2=0.7, g=-0.5)
        grid = RadialGrid(4.0, n)
        for _ in range(5):
            f = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
            st = RadialState(grid=grid, f=f, t=0.25)
            assert np.min(np.abs(f[:, -1])) > 0
            got, want = grid_functionals(st, p), reference_functionals(st, p)
            assert list(got) == list(want)
            for name in want:
                assert abs(got[name] - want[name]) <= 1e-13 * abs(want[name]), name

    def test_dim_restriction(self):
        grid = RadialGrid(8.0, 255)
        st = make_state(grid, np.zeros_like, np.zeros_like)
        with pytest.raises(ValueError):
            grid_functionals(st, params(dim=4))


class TestS0UpperBound:
    def test_at_zero(self):
        m = gaussian_moments(GaussianIC(4, 2, 0.3, 0.1), params())
        assert s0_upper_bound(m, params(), 0.0) == 20.0

    def test_growth(self):
        m = gaussian_moments(GaussianIC(4, 2, 0.3, 0.1), params(gamma=0.5))
        assert s0_upper_bound(m, params(gamma=0.5), 1.0) == pytest.approx(20 * math.e)

    def test_negative_time_rejected(self):
        m = gaussian_moments(GaussianIC(1, 1), params())
        with pytest.raises(ValueError):
            s0_upper_bound(m, params(), -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        m = gaussian_moments(GaussianIC(1, 1), params())
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            s0_upper_bound(m, params(), t)


_FIELDS = dict(s0=1.0, s1=0.5, s2=0.0, s3=0.2, energy=-3.0, msw=1.0, mswRate=-0.5,
               gradU2=1.0, gradV2=1.0, quarticU=0.1, quarticV=0.1, crossQuartic=0.1)


class TestInitialFunctionals:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", list(_FIELDS))
    def test_rejects_non_finite_field(self, name, value):
        InitialFunctionals(**_FIELDS)
        with pytest.raises(ValueError, match="functionals not finite: " + name):
            InitialFunctionals(**{**_FIELDS, name: value})

    @pytest.mark.parametrize("name", ["msw", "s0"])
    def test_rejects_negative_width_and_power(self, name):
        InitialFunctionals(**{**_FIELDS, name: 0.0})
        with pytest.raises(ValueError, match="X0 and S0 must be >= 0"):
            InitialFunctionals(**{**_FIELDS, name: -1e-300})
