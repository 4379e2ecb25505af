import importlib.machinery
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.linalg import expm, solve_banded

from ptnls import (
    ConfigInvalid,
    GaussianIC,
    RadialGrid,
    RadialState,
    RunConfig,
    RunOutcome,
    SolverDiverged,
    SystemParams,
    convergence_check,
    evaluate_ic,
    grid_functionals,
    load_initial,
    run,
    step,
)
from ptnls.simulator import _accepted, _operator, _tridiag_solve, _verdict, _workspace, _zgtsv


def params(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=1.0):
    return SystemParams(gamma=gamma, kappa=kappa, g1=g1, g2=g2, g=g)


class TestTypes:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(0.0, 100)
        with pytest.raises(ValueError):
            RadialGrid(8.0, 15)
        for L in (math.inf, math.nan):
            with pytest.raises(ValueError):
                RadialGrid(L, 100)
        for n in (100.0, 999.5, True, "999", None):
            with pytest.raises(ValueError, match="n must be an integer"):
                RadialGrid(16.0, n)
        assert RadialGrid(16.0, np.int64(63)).n == 63

    def test_grid_geometry(self):
        grid = RadialGrid(8.0, 63)
        assert grid.dr == pytest.approx(0.125)
        assert grid.nodes[0] == pytest.approx(grid.dr)
        assert grid.nodes[-1] == pytest.approx(8.0 - grid.dr)
        # the nodes and 1/r^2 are made once per grid, and no caller can change them
        for cached in (grid.nodes, grid.inv_r2):
            assert not cached.flags.writeable
        assert grid.nodes is grid.nodes and grid.inv_r2 is grid.inv_r2
        assert np.array_equal(grid.inv_r2, 1.0 / grid.nodes**2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inv_r2_out_of_range_without_a_warning(self):
        # r^2 underflows to 0 on a tiny grid and overflows on a huge one
        assert np.all(RadialGrid(1e-300, 31).inv_r2 == math.inf)
        assert np.all(RadialGrid(1e300, 31).inv_r2 == 0)

    def test_state_shape_validation(self):
        grid = RadialGrid(8.0, 63)
        for shape in ((63,), (2, 62), (2, 64), (3, 63)):
            with pytest.raises(ValueError, match="shape"):
                RadialState(grid=grid, f=np.zeros(shape, complex), t=0.0)
        assert RadialState(grid=grid, f=np.zeros((2, 63), complex), t=0.0).f.shape == (2, 63)

    def test_runconfig_validation(self):
        with pytest.raises(ConfigInvalid):
            RunConfig(dt0=1e-8, dtMin=1e-4)
        with pytest.raises(ConfigInvalid):
            RunConfig(blowupRatio=0.5)
        with pytest.raises(ConfigInvalid):
            RunConfig(tMax=-1.0)
        with pytest.raises(ConfigInvalid):
            RunConfig(cnIterations=0)
        for bad in (dict(cnIterations=1.5), dict(sampleEvery=2.5), dict(cnIterations=2.0),
                    dict(cnIterations=True), dict(cnIterations=False),
                    dict(sampleEvery=True), dict(sampleEvery=False)):
            with pytest.raises(ConfigInvalid, match="integers"):
                RunConfig(**bad)
        assert RunConfig(cnIterations=np.int64(3)).cnIterations == 3
        for bad in (
            dict(tMax=math.nan), dict(tMax=math.inf), dict(dt0=math.inf),
            dict(blowupRatio=math.inf), dict(dtMin=math.nan),
        ):
            with pytest.raises(ConfigInvalid):
                RunConfig(**bad)


class TestLoadInitial:
    def test_origin_limit(self):
        ic = GaussianIC(4.0, 2.0, 0.3, 0.1)
        grid = RadialGrid(8.0, 7999)
        st = load_initial(ic, grid, params())
        u0_origin, _ = evaluate_ic(ic, params(), 0.0)
        # p(r1)/r1 approaches u0(0) to O(r1^2)
        assert abs(st.f[0, 0]) / grid.dr == pytest.approx(
            abs(complex(u0_origin)), rel=1e-4
        )

    def test_matches_profile(self):
        ic = GaussianIC(1.5, 0.7, 1.0, 0.5)
        grid = RadialGrid(8.0, 255)
        p = params()
        st = load_initial(ic, grid, p)
        u0, v0 = evaluate_ic(ic, p, grid.nodes)
        assert np.allclose(st.f, grid.nodes * np.array([u0, v0]))
        assert st.t == 0.0


def linear_mode_state(grid, k, amp_u, amp_v):
    phi = np.sin(k * math.pi * np.arange(1, grid.n + 1) / (grid.n + 1))
    return RadialState(grid=grid, f=np.array([amp_u * phi, amp_v * phi], complex), t=0.0)


class TestStepLinearOracle:
    """With zero nonlinearity, a discrete Laplacian eigenmode reduces the
    scheme to a 2x2 linear ODE whose exact solution is a matrix exponential."""

    def exact(self, lam, gamma, kappa, t, a0, b0):
        M = np.array(
            [[-1j * lam + gamma, -1j * kappa], [-1j * kappa, -1j * lam - gamma]]
        )
        return expm(M * t) @ np.array([a0, b0])

    @pytest.mark.parametrize("gamma,kappa", [(0.2, 1.0), (0.5, 1.0), (1.5, 1.0)])
    def test_two_mode_dynamics(self, gamma, kappa):
        p = params(gamma=gamma, kappa=kappa, g1=0.0, g2=0.0, g=0.0)
        grid = RadialGrid(8.0, 127)
        k = 3
        lam = (2 - 2 * math.cos(k * math.pi / (grid.n + 1))) / grid.dr**2
        st = linear_mode_state(grid, k, 1.0, 0.3)
        dt, n_steps = 1e-3, 200
        for _ in range(n_steps):
            st = step(st, p, dt)
        a, b = self.exact(lam, gamma, kappa, dt * n_steps, 1.0, 0.3)
        phi = np.sin(k * math.pi * np.arange(1, grid.n + 1) / (grid.n + 1))
        assert np.max(np.abs(st.f[0] - a * phi)) < 1e-6
        assert np.max(np.abs(st.f[1] - b * phi)) < 1e-6

    def test_free_mode_amplitude_preserved(self):
        # gamma -> 0, kappa tiny: free evolution keeps the mode amplitude
        p = SystemParams(gamma=0.0, kappa=1e-12, g1=0.0, g2=0.0, g=0.0)
        grid = RadialGrid(8.0, 127)
        st = linear_mode_state(grid, 2, 1.0, 0.0)
        norm0 = np.linalg.norm(st.f[0])
        for _ in range(100):
            st = step(st, p, 1e-3)
        assert np.linalg.norm(st.f[0]) == pytest.approx(norm0, rel=1e-12)

    def test_rejects_nonpositive_dt(self):
        grid = RadialGrid(8.0, 63)
        st = linear_mode_state(grid, 1, 1.0, 0.0)
        for dt in (0.0, -1e-3, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="dt must be finite and > 0"):
                step(st, params(), dt)
        for cn in (0, -1):
            with pytest.raises(ValueError, match=">= 1"):
                step(st, params(), 1e-3, cn)
        # as RunConfig does: True ran one pass, 2.0 and nan escaped range()
        for cn in (True, False, 2.0, 1.5, math.nan, "2", None):
            with pytest.raises(ValueError, match="must be an integer"):
                step(st, params(), 1e-3, cn)
        assert step(st, params(), 1e-3, np.int64(2)).t == 1e-3

    def test_overflow_inside_step_is_divergence(self):
        # |p|^2 overflows, so the diagonal dc - i k w is not finite before any solve
        grid, prm = RadialGrid(8.0, 63), SystemParams(0.5, 1.0)
        st = linear_mode_state(grid, 1, 1e155, 1.0)
        with pytest.raises(SolverDiverged):
            step(st, prm, 1e-3)
        # a huge but finite w dominates the diagonal: the pass takes p to about
        # -p, a finite step with the input's peak
        st = linear_mode_state(grid, 1, 1e150, 1.0)
        new = step(st, prm, 1e-3)
        assert np.all(np.isfinite(new.f))
        assert np.max(np.abs(new.f)) == pytest.approx(np.max(np.abs(st.f)), rel=1e-12)


class TestStepFormula:
    """step against the Crank-Nicolson pass written out as its docstring
    states it, before any term is hoisted: each row solved on its own."""

    @staticmethod
    def reference_step(state, prm, dt, passes):
        grid = state.grid
        dr, r2, k = grid.dr, grid.nodes**2, dt / 2

        def lap(f):
            out = -2.0 * f
            out[:-1] += f[1:]
            out[1:] += f[:-1]
            return out / dr**2

        p0, q0 = state.f
        ps, qs = p0, q0
        for _ in range(passes):
            p2m = 0.5 * (np.abs(p0) ** 2 + np.abs(ps) ** 2)
            q2m = 0.5 * (np.abs(q0) ** 2 + np.abs(qs) ** 2)
            w = ((prm.g1 * p2m + prm.g * q2m) / r2, (prm.g * p2m + prm.g2 * q2m) / r2)
            rows = []
            for f0, wf, gain, swapped in (
                (p0, w[0], prm.gamma, q0 + qs),
                (q0, w[1], -prm.gamma, p0 + ps),
            ):
                rhs = (f0 + k * (1j * lap(f0) + gain * f0 + 1j * wf * f0)
                       - 1j * k * prm.kappa * swapped)
                diag = 1 - k * (-2j / dr**2 + gain + 1j * wf)
                off = np.full(grid.n - 1, -1j * k / dr**2)
                band = np.array([np.r_[0, off], diag, np.r_[off, 0]])
                rows.append(solve_banded((1, 1), band, rhs))
            ps, qs = rows
        return replace(state, f=np.array([ps, qs]), t=state.t + dt)

    @pytest.mark.parametrize("prm", [
        params(gamma=0.0),
        # SystemParams requires kappa > 0; step reads only these attributes
        SimpleNamespace(gamma=0.5, kappa=0.0, g1=1.0, g2=1.0, g=1.0),
        params(gamma=0.3, kappa=0.8, g1=1.3, g2=0.7, g=-0.5),
    ], ids=["gamma=0", "kappa=0", "g1!=g2!=g"])
    @pytest.mark.parametrize("passes", [1, 2, 3])
    def test_step_matches_the_formula(self, prm, passes):
        grid = RadialGrid(8.0, 127)
        st = load_initial(GaussianIC(1.5, 0.7, 0.6, 0.4), grid, params())
        # a phase that varies with r, so the real and imaginary parts mix
        st = replace(st, f=st.f * np.exp([[1j], [-0.5j]] * grid.nodes))
        got = want = st
        for dt in (2e-3, 5e-3, 1e-2, 1e-2, 2e-2):
            got = step(got, prm, dt, passes)
            want = self.reference_step(want, prm, dt, passes)
            assert got.t == want.t
            for a, b in zip(got.f, want.f):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        # the steps moved the field, and the pass count changes the answer
        assert np.max(np.abs(got.f - st.f)) > 1e-3 * np.max(np.abs(st.f))
        other = step(st, prm, 2e-2, passes + 1)
        assert not np.allclose(other.f, step(st, prm, 2e-2, passes).f, rtol=1e-12, atol=0)


class TestTridiagSolve:
    """The stacked solve against scipy's banded solver, one row at a time."""

    def test_rows_match_separate_banded_solves(self):
        rng = np.random.default_rng(11)
        n = 101  # odd

        def noise(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        off = 0.7 - 1.1j
        diag = 6.0 + 0.5 * noise(2, n)  # diagonally dominant: |diag| > 2|off|
        rhs = noise(2, n)
        band = np.full(n - 1, off)
        expected = [
            solve_banded((1, 1), np.array([np.r_[0, band], d, np.r_[band, 0]]), b)
            for d, b in zip(diag, rhs)
        ]
        # both rows stacked as one system, with no link where they meet;
        # one row serves as the sub- and the superdiagonal
        link = np.full(2 * n - 1, off)
        link[n - 1] = 0
        kept = link.copy()
        got = _tridiag_solve(diag.copy(), link, rhs.copy(), np.empty((2, 2 * n - 1), complex))
        assert got.shape == (2, n)
        # a link between the rows would couple them and change both
        for row, ref in zip(got, expected):
            assert np.array_equal(row, ref)
        # the off-diagonal is copied for zgtsv to overwrite, not overwritten
        assert np.array_equal(link, kept)

    def test_singular_matrix_is_divergence(self):
        with pytest.raises(SolverDiverged):
            _tridiag_solve(np.zeros((2, 17), complex), np.zeros(33, complex),
                           np.ones((2, 17), complex), np.empty((2, 33), complex))


class TestSolverLoad:
    """A missing LAPACK extension is named; TestScipyLoad in test_cli.py
    checks what the solver loads in a fresh interpreter."""

    def test_missing_extension_is_named(self, monkeypatch):
        _zgtsv.cache_clear()
        try:
            monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                                lambda *args, **kwargs: None)
            with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack") as err:
                _zgtsv()
            assert err.value.name == "scipy.linalg._flapack"
        finally:
            monkeypatch.undo()
            _zgtsv.cache_clear()
            _zgtsv()
        assert _zgtsv.cache_info().currsize == 1


class TestWorkspace:
    """_accepted hands every step one set of scratch arrays; what they hold from
    earlier steps must not reach the answer, and no answer may live in them."""

    GRID = RadialGrid(8.0, 63)

    def states(self):
        p = params(gamma=0.3, g=-0.5)
        ic = GaussianIC(1.5, 0.7, 0.6, 0.4)
        return p, load_initial(ic, self.GRID, p)

    def test_dirty_workspace_gives_the_same_bytes(self):
        p, st = self.states()
        work = _workspace(self.GRID.n)
        other = linear_mode_state(self.GRID, 2, 3.0, -1.0 + 2j)
        step(other, params(gamma=0.9, kappa=0.2, g=2.0), 7e-3, 3, work=work)
        for cn in (1, 2, 3):
            got = step(st, p, 1e-3, cn, work=work)
            want = step(st, p, 1e-3, cn, work=None)
            assert np.array_equal(got.f.view(float), want.f.view(float))

    def test_cached_operator_gives_the_same_bytes(self):
        # one workspace across steps that change dt, dr (two grids of equal n)
        # or one coefficient at a time: the operator it caches must follow
        # every one of them
        base = dict(gamma=0.3, kappa=1.0, g1=1.0, g2=0.7, g=-0.5)
        prms = [params(**base)]
        for name, value in (("gamma", 0.6), ("kappa", 0.4), ("g1", 1.5), ("g2", 0.2),
                            ("g", 0.9)):
            prms += [params(**{**base, name: value}), params(**base)]
        grids = (self.GRID, RadialGrid(9.0, self.GRID.n))
        ic = GaussianIC(1.5, 0.7, 0.6, 0.4)
        work = _workspace(self.GRID.n)
        for grid in grids * 2:
            st = load_initial(ic, grid, prms[0])
            for dt in (1e-3, 2e-3, 2e-3, 1e-3):
                for p in prms:
                    got = step(st, p, dt, 2, work=work)
                    want = step(st, p, dt, 2, work=None)
                    assert np.array_equal(got.f.view(float), want.f.view(float)), (
                        grid.L, dt, p)

    def test_step_leaves_its_input_as_it_was(self):
        # step reads state.f as the old time level and never writes into it
        p, st = self.states()
        dirty = _workspace(self.GRID.n)
        other = linear_mode_state(self.GRID, 2, 3.0, -1.0 + 2j)
        step(other, params(gamma=0.9, kappa=0.2, g=2.0), 7e-3, 3, work=dirty)
        before = st.f.tobytes()
        for cn in (1, 2, 3):
            for work in (dirty, None):
                step(st, p, 1e-3, cn, work=work)
                assert st.f.tobytes() == before, (cn, work is None)

    def test_result_shares_no_memory(self):
        p, st = self.states()
        work = _workspace(self.GRID.n)
        new = step(st, p, 1e-3, work=work)
        dc, _, first, later, link = _operator(
            self.GRID.n, self.GRID.dr, 1e-3, p.gamma, p.kappa, p.g1, p.g2, p.g)
        for arr in (*work, dc, first, later, link, st.f):
            assert not np.shares_memory(new.f, arr)
        # the next step overwrites the workspace and leaves new as it was
        kept = new.f.copy()
        step(new, p, 1e-3, work=work)
        assert np.array_equal(new.f, kept)

    def test_operator_arrays_are_read_only(self):
        # every step with the same dt, grid and coefficients shares them
        p, _ = self.states()
        n = self.GRID.n
        dc, _, first, later, link = _operator(
            n, self.GRID.dr, 1e-3, p.gamma, p.kappa, p.g1, p.g2, p.g)
        # one row is both off-diagonals, with no link where the rows meet
        assert link.shape == (2 * n - 1,) and link[n - 1] == 0
        assert np.all(link[np.arange(2 * n - 1) != n - 1] == link[0])
        for arr in (dc, first, later, link):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_two_runs_give_the_same_bytes(self):
        p, _ = self.states()
        cfg = RunConfig(dt0=2e-3, dtMin=1e-6, tMax=0.1, sampleEvery=5)
        a, b = (run(GaussianIC(1.5, 0.7, 0.6, 0.4), p, self.GRID, cfg) for _ in range(2))
        assert (a.verdict, a.component, a.tStop) == (b.verdict, b.component, b.tStop)
        assert np.array_equal(a.finalState.f.view(float), b.finalState.f.view(float))
        assert a.trace.keys() == b.trace.keys()
        for name in a.trace:
            assert np.array_equal(a.trace[name], b.trace[name]), name


def exact_modes(prm, amps, a, t):
    """c(t) = expm(-i H t) c0, H = (i gamma, kappa; kappa, -i gamma): the
    amplitudes of the linear system's exact solution below."""
    H = np.array([[1j * prm.gamma, prm.kappa], [prm.kappa, -1j * prm.gamma]])
    return expm(-1j * H * t) @ (np.array(amps) * math.pi**-0.75 * a**-1.5)


def exact_linear_field(grid, t, prm, amps, a):
    """(p, q) at time t on grid's nodes for the linear system (g1 = g2 = g = 0)
    from GaussianIC(*amps, a, a): r w(r, t) c(t), where w is the free 3D
    Gaussian, i w_t = -lap w.  Exact while the wave is clear of r = L: at
    L = 16 and a = 1, |w(L)| is 1e-28 at t = 0.5."""
    r = grid.nodes
    w = (1 + 2j * t / a**2) ** -1.5 * np.exp(-(r**2) / (2 * (a**2 + 2j * t)))
    return r * w * exact_modes(prm, amps, a, t)[:, None]


class TestExactLinearSolution:
    """run against the exact solution of the linear PDE, so the spatial and
    the time error are measured against the truth, not against a refinement."""

    PRM = params(gamma=0.5, kappa=1.0, g1=0.0, g2=0.0, g=0.0)
    AMPS, A, T = (1.0, 0.5), 1.0, 0.5

    def error(self, n, dt):
        """The relative max error of (p, q) at T; dtMin = dt0, so dt never halves."""
        grid = RadialGrid(16.0, n)
        cfg = RunConfig(dt0=dt, dtMin=dt, tMax=self.T, sampleEvery=10**6)
        out = run(GaussianIC(*self.AMPS, self.A, self.A), self.PRM, grid, cfg)
        assert out.tStop == self.T
        want = exact_linear_field(grid, self.T, self.PRM, self.AMPS, self.A)
        return np.max(np.abs(out.finalState.f - want)) / np.max(np.abs(want))

    def test_second_order_in_dr(self):
        # 1.046e-3, 2.628e-4, 6.698e-5: ratios 3.98 and 3.92
        errs = [self.error(n, 1e-3) for n in (249, 499, 999)]
        assert errs[0] < 2e-3
        assert errs[0] / errs[1] > 3 and errs[1] / errs[2] > 3

    def test_second_order_in_dt(self):
        # 1.746e-4, 4.662e-5, 1.467e-5: ratios 3.74 and 3.18, the last pulled
        # down by the spatial error of about 4e-6
        errs = [self.error(3999, dt) for dt in (1e-2, 5e-3, 2.5e-3)]
        assert errs[0] < 4e-4
        assert errs[0] / errs[1] > 3 and errs[1] / errs[2] > 3

    def test_grid_functionals_along_the_exact_trace(self):
        # S0 follows the two-mode amplitudes c(t), and X the free Gaussian's
        # width: X = S0 (3/2)(a^2 + 4 t^2/a^2)
        grid, a = RadialGrid(16.0, 255), self.A
        s0_0 = grid_functionals(load_initial(GaussianIC(*self.AMPS, a, a), grid, self.PRM),
                                self.PRM)["S0"]
        c0 = exact_modes(self.PRM, self.AMPS, a, 0.0)
        for t in np.linspace(0.0, self.T, 6):
            f = exact_linear_field(grid, t, self.PRM, self.AMPS, a)
            d = grid_functionals(RadialState(grid, f, t), self.PRM)
            c = exact_modes(self.PRM, self.AMPS, a, t)
            s0 = s0_0 * np.sum(np.abs(c) ** 2) / np.sum(np.abs(c0) ** 2)
            assert d["S0"] == pytest.approx(s0, rel=1e-12)
            assert d["X"] == pytest.approx(s0 * 1.5 * (a**2 + 4 * t**2 / a**2), rel=1e-12)


class TestConservation:
    def test_zero_gamma_nonlinear_drift(self):
        # moderate-amplitude field, full nonlinearity: per-step drift of the
        # conserved power and energy stays within the corrector truncation
        p = SystemParams(gamma=0.0, kappa=1.0, g1=1.0, g2=1.0, g=1.0)
        grid = RadialGrid(8.0, 511)
        st = load_initial(GaussianIC(1.0, 1.0, 1.0, 1.0), grid, p)
        d0 = grid_functionals(st, p)
        n_steps = 200
        for _ in range(n_steps):
            st = step(st, p, 1e-4)
        d = grid_functionals(st, p)
        assert abs(d["S0"] - d0["S0"]) / d0["S0"] < 1e-8 * n_steps
        assert abs(d["E"] - d0["E"]) / max(1, abs(d0["E"])) < 1e-8 * n_steps

    def test_balance_law_along_trace(self):
        # d(s0)/2dt = gamma*s3 along any trajectory
        p = params(gamma=0.5, kappa=1.0)
        grid = RadialGrid(8.0, 511)
        st = load_initial(GaussianIC(1.0, 0.5, 1.0, 1.0), grid, p)
        dt = 1e-3
        samples = [grid_functionals(st, p)]
        for _ in range(100):
            st = step(st, p, dt)
            samples.append(grid_functionals(st, p))
        s0 = np.array([s["S0"] for s in samples])
        s3 = np.array([s["S3"] for s in samples])
        lhs = np.gradient(s0, dt) / 2
        rhs = p.gamma * s3
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs[2:-2] - rhs[2:-2])) / scale < 1e-3

    def test_power_upper_bound(self):
        p = params(gamma=0.5, kappa=1.0)
        grid = RadialGrid(8.0, 511)
        st = load_initial(GaussianIC(1.0, 0.5, 1.0, 1.0), grid, p)
        d0 = grid_functionals(st, p)
        for i in range(100):
            st = step(st, p, 1e-3)
            d = grid_functionals(st, p)
            bound = d0["S0"] * math.exp(2 * p.gamma * st.t)
            assert d["S0"] <= bound * (1 + 1e-6)


class TestRun:
    def test_blowup_verdict_dissipative_component(self):
        # repulsive cross-coupling concentrates growth in the lossy field
        out = run(
            GaussianIC(4.5, 4.0, 1.0, 0.5),
            params(g=-1.0),
            RadialGrid(16.0, 3999),
            RunConfig(dt0=1e-4, dtMin=1e-8, tMax=2.0, sampleEvery=200),
        )
        assert out.verdict == "BlowupLike"
        assert out.component == "V"
        assert 0 < out.tStop < 0.5

    def test_blowup_ratio_invariant(self):
        cfg = RunConfig(dt0=1e-4, dtMin=1e-8, tMax=2.0, sampleEvery=200)
        grid = RadialGrid(16.0, 3999)
        ic = GaussianIC(4.5, 4.0, 1.0, 0.5)
        p = params(g=-1.0)
        out = run(ic, p, grid, cfg)
        st0 = load_initial(ic, grid, p)
        v_ratio = abs(out.finalState.f[1, 0]) / abs(st0.f[1, 0])
        assert v_ratio >= cfg.blowupRatio

    def test_quiet_field_reaches_horizon(self):
        out = run(
            GaussianIC(0.2, 0.2, 1.0, 1.0),
            params(gamma=0.1),
            RadialGrid(16.0, 255),
            RunConfig(dt0=1e-3, dtMin=1e-6, tMax=0.5, sampleEvery=50),
        )
        assert out.verdict in ("MaxTimeReached", "Dispersed")
        assert out.component == "None"
        assert out.tStop == pytest.approx(0.5, abs=1e-6)

    def test_run_ends_on_horizon_despite_rounding(self):
        # ten steps of 0.1 sum to 0.9999999999999999: the remainder is a
        # rounding residue, to be taken with the last step, not after it
        out = run(
            GaussianIC(0.2, 0.2, 1.0, 1.0),
            params(gamma=0.1),
            RadialGrid(16.0, 63),
            RunConfig(dt0=0.1, dtMin=1e-3, tMax=1.0, sampleEvery=1),
        )
        times = out.trace["t"]
        assert out.tStop == 1.0
        assert times[-1] == 1.0 and times[-1] - times[-2] > 0.01

    def test_accepted_clips_to_horizon(self):
        # every step that run takes comes from _accepted
        p = params(gamma=0.1)
        cfg = RunConfig(dt0=1e-3, dtMin=1e-6, tMax=0.5)
        st0 = load_initial(GaussianIC(0.2, 0.2, 1.0, 1.0), RadialGrid(16.0, 63), p)
        dt = cfg.dt0

        def stream(state):
            return list(_accepted(state, p, cfg))

        # clear of the horizon: one whole step of dt
        far = next(_accepted(st0, p, cfg))
        want = step(st0, p, dt, cfg.cnIterations)
        assert far.t == dt
        assert np.array_equal(far.f, want.f)
        # less than dt left: the step covers the remainder and ends on tMax
        st = replace(st0, t=cfg.tMax - 4e-4)
        [near] = stream(st)
        want = step(st, p, cfg.tMax - st.t, cfg.cnIterations)
        assert near.t == cfg.tMax
        assert np.array_equal(near.f, want.f)
        # a remainder a rounding residue above dt is taken whole, not left over
        st = replace(st0, t=cfg.tMax - dt * (1 + 1e-9))
        assert [s.t for s in stream(st)] == [cfg.tMax]

    def test_trace_is_time_ordered(self):
        out = run(
            GaussianIC(0.2, 0.2, 1.0, 1.0),
            params(gamma=0.1),
            RadialGrid(16.0, 255),
            RunConfig(dt0=1e-3, dtMin=1e-6, tMax=0.2, sampleEvery=20),
        )
        times = list(out.trace["t"])
        assert times == sorted(times)
        assert times[0] == 0.0


class TestRunExits:
    """Every way out of run and its accept/reject loop, on a scripted stepper.

    The k-th call of the replaced step multiplies (p, q) by the k-th pair of
    factors, or raises it if it is an exception, or returns a finite field
    whose modulus overflows if it is OVERFLOW.  CFG's dtMin == dt0 switches
    the growth rejection off, so every scripted step is accepted; the dt
    policy test lowers dtMin.  Factors of 2 scale the origin ratio exactly.
    """

    OVERFLOW = "overflow"
    CFG = RunConfig(dt0=0.01, dtMin=0.01, blowupRatio=4.0, tMax=1.0, sampleEvery=100)

    def run_script(self, monkeypatch, script, cfg=CFG, dts=None):
        """run on the script; calls is the t of each step call, and dts, if
        given, collects their dt."""
        calls = []

        def scripted(state, params, dt, cn_iterations=2, **_):
            entry = script[len(calls)]
            calls.append(state.t)
            if dts is not None:
                dts.append(dt)
            if isinstance(entry, Exception):
                raise entry
            if entry == self.OVERFLOW:
                big = np.full((2, state.grid.n), 1.5e308 * (1 + 1j))
                return replace(state, f=big, t=state.t + dt)
            fu, fv = entry
            return replace(state, f=state.f * [[fu], [fv]], t=state.t + dt)

        monkeypatch.setattr("ptnls.simulator.step", scripted)
        out = run(GaussianIC(0.2, 0.2, 1.0, 1.0), params(), RadialGrid(8.0, 63), cfg)
        return out, calls

    @pytest.mark.parametrize("failure", [SolverDiverged("scripted"), OVERFLOW])
    def test_divergence_before_crossing(self, monkeypatch, failure):
        out, calls = self.run_script(monkeypatch, [(1.0, 1.0)] * 3 + [failure])
        assert out.verdict == "SolverDiverged" and out.component == "None"
        assert out.tStop == calls[-1] == out.finalState.t > 0
        # the last good state is sampled although it was not a sampling step
        assert list(out.trace["t"]) == [0.0, out.tStop]

    def test_divergence_in_grace_phase(self, monkeypatch):
        script = [(2.0, 1.5), (2.0, 1.5), SolverDiverged("scripted")]
        out, calls = self.run_script(monkeypatch, script)
        assert out.verdict == "BlowupLike" and out.component == "U"
        assert len(calls) == 3 and out.tStop == calls[-1]
        assert out.trace["t"][-1] == out.tStop

    @pytest.mark.parametrize("script, component, n_calls", [
        # one ratio reaches 2 * blowupRatio while the other still grows
        ([(2.0, 1.5), (2.0, 1.5), (1.5, 1.2), (1.5, 1.2), (2.0, 1.5)], "U", 4),
        # the smaller ratio stops growing
        ([(2.0, 1.5), (2.0, 1.5), (1.0, 1.0), (2.0, 1.5)], "U", 3),
        # both ratios cross: no grace step at all
        ([(2.0, 2.0), (2.0, 2.0), (2.0, 2.0)], "Both", 2),
        # the second ratio crosses during the grace phase
        ([(1.5, 2.0), (1.5, 2.0), (2.0, 1.0), (2.0, 1.0)], "Both", 3),
    ], ids=["cap", "laggard-stalls", "both-at-once", "both-in-grace"])
    def test_grace_phase_exits(self, monkeypatch, script, component, n_calls):
        out, calls = self.run_script(
            monkeypatch, script, replace(self.CFG, sampleEvery=1)
        )
        assert out.verdict == "BlowupLike" and out.component == component
        assert len(calls) == n_calls
        assert out.tStop == out.finalState.t == out.trace["t"][-1]
        # every script crosses on its second step; the steps up to it are
        # sampled, the grace steps are not, and the final state closes the trace
        assert len(out.trace["t"]) == 3 + (n_calls > 2)


    def test_growth_halves_dt_down_to_the_floor(self, monkeypatch):
        # 0.01 halves twice to the floor 0.0025, where the growing step is
        # accepted; the run then goes on at the halved dt
        cfg = replace(self.CFG, dtMin=0.0025, tMax=0.03)
        grow = (1.1, 1.1)
        dts = []
        out, calls = self.run_script(
            monkeypatch, [(1.0, 1.0), grow, grow, grow] + [(1.0, 1.0)] * 20, cfg, dts
        )
        assert dts[:5] == [0.01, 0.01, 0.005, 0.0025, 0.0025]
        # the rejected attempts start from the same t as the accepted one
        assert calls[1] == calls[2] == calls[3] == 0.01
        assert calls[4] == calls[3] + 0.0025
        assert dts[4:-1] == [0.0025] * (len(dts) - 5)
        # the last step is what is left of [0, tMax]
        assert dts[-1] == cfg.tMax - calls[-1]
        assert out.tStop == cfg.tMax

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        t_max=strategies.floats(1e-6, 1e6),
        ratio=strategies.one_of(
            strategies.floats(0.5, 300), strategies.integers(1, 300).map(float)
        ),
    )
    def test_trace_times_stop_on_the_horizon(self, t_max, ratio):
        # a step that leaves the field as it is costs microseconds, so the
        # stop rule can be run over many tMax/dt0 ratios
        def identity(state, params, dt, cn_iterations=2, **_):
            return replace(state, t=state.t + dt)

        dt0 = t_max / ratio
        cfg = RunConfig(dt0=dt0, dtMin=dt0, tMax=t_max, sampleEvery=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("ptnls.simulator.step", identity)
            out = run(GaussianIC(0.2, 0.2, 1.0, 1.0), params(), RadialGrid(8.0, 16), cfg)
        times = out.trace["t"]
        assert np.all(np.diff(times) > 0)
        assert times.max() <= t_max
        assert times[-1] == out.tStop == t_max


class TestVerdict:
    """_verdict on hand-built traces."""

    CFG = RunConfig(blowupRatio=4.0, tMax=1.0)

    @staticmethod
    def trace(t, x, peak_u2=(1.0, 1.0), peak_v2=(1.0, 1.0)):
        """A trace whose peaks go from their first to their last value."""
        n = len(t)
        return {
            "t": np.array(t), "X": np.array(x),
            "peakU2": np.linspace(*peak_u2, n), "peakV2": np.linspace(*peak_v2, n),
        }

    @pytest.mark.parametrize("trace, verdict", [
        (trace(t=[0, 0.8, 0.9, 1.0], x=[1, 2, 2, 3]), "Dispersed"),
        # the tail starts at 0.75 tMax itself
        (trace(t=[0, 0.75, 1.0], x=[1, 2, 3]), "Dispersed"),
        # a final peak exactly twice the initial amplitude is not bounded
        (trace(t=[0, 0.8, 1.0], x=[1, 2, 3], peak_u2=(1.0, 4.0)), "MaxTimeReached"),
        (trace(t=[0, 0.8, 1.0], x=[1, 2, 3], peak_v2=(0.25, 1.0)), "MaxTimeReached"),
        # one tail sample shows no growth
        (trace(t=[0, 0.5, 1.0], x=[1, 2, 3]), "MaxTimeReached"),
        # the tail falls once
        (trace(t=[0, 0.8, 0.85, 0.9, 1.0], x=[1, 2, 3, 2.9, 4]), "MaxTimeReached"),
    ], ids=["dispersed", "tail-from-0.75", "peak-u-doubles", "peak-v-doubles",
            "one-tail-sample", "tail-falls-once"])
    def test_without_crossing(self, trace, verdict):
        assert _verdict(trace, (1.0, 1.0), None, self.CFG) == (verdict, "None")

    @pytest.mark.parametrize("ratios, lag, component", [
        ((5.0, 1.0), 1.0, "U"),
        ((1.0, 5.0), 1.0, "V"),
        # a ratio equal to blowupRatio has crossed
        ((5.0, 4.0), 4.0, "Both"),
    ])
    def test_after_crossing(self, ratios, lag, component):
        trace = self.trace(t=[0, 0.1], x=[1, 1], peak_u2=(1.0, 100.0))
        assert _verdict(trace, ratios, lag, self.CFG) == ("BlowupLike", component)


class TestConvergence:
    def test_linear_second_order(self):
        # smooth linear run: trace differences shrink under refinement
        rep = convergence_check(
            GaussianIC(0.5, 0.3, 1.0, 1.0),
            params(g1=0.0, g2=0.0, g=0.0),
            RadialGrid(16.0, 499),
            RunConfig(dt0=2e-3, dtMin=1e-7, tMax=0.5, sampleEvery=10),
            refinements=2,
        )
        assert len(set(rep.verdicts)) == 1
        assert rep.traceDiffs[1] < rep.traceDiffs[0]
        # second-order scheme: each refinement shrinks the error ~4x
        assert 2.5 < rep.traceDiffs[0] / rep.traceDiffs[1] < 6.0
        assert rep.converged

    @pytest.mark.parametrize("refinements", [1, 2])
    def test_disagreeing_verdicts_not_converged(self, monkeypatch, refinements):
        # keyed on the level's grid, so the answer does not depend on call
        # order or on the process that runs the level
        verdicts = {255: "BlowupLike", 511: "Dispersed", 1023: "MaxTimeReached"}

        def fake_run(ic, params, grid, cfg):
            trace = {"t": np.array([0.0, 1.0]), "S0": np.array([1.0, 1.0])}
            return RunOutcome(verdicts[grid.n], 1.0, "None", trace)

        monkeypatch.setattr("ptnls.simulator.run", fake_run)
        rep = convergence_check(GaussianIC(1, 1), params(), RadialGrid(16.0, 255),
                                RunConfig(), refinements)
        assert rep.verdicts == ["BlowupLike", "Dispersed", "MaxTimeReached"][:refinements + 1]
        assert not rep.converged

    def test_no_adaptivity_headroom_flagged(self):
        rep = convergence_check(
            GaussianIC(0.2, 0.2, 1.0, 1.0),
            params(gamma=0.1),
            RadialGrid(16.0, 255),
            RunConfig(dt0=1e-3, dtMin=1e-3, tMax=0.1, sampleEvery=50),
            refinements=1,
        )
        assert not rep.adaptivityHeadroom

    def test_rejects_zero_refinements(self):
        # and any count that is not an integer, as RadialGrid does for n
        for refinements in (0, -1, 1.5, 1.0, True, False, "1", None):
            with pytest.raises(ValueError):
                convergence_check(GaussianIC(1, 1), params(), RadialGrid(16.0, 255),
                                  RunConfig(), refinements)
