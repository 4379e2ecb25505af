import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
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
from ptnls.simulator import _advance, _tridiag_solve, _workspace


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
        # 1/r^2 is made once per grid, and no caller can change it
        assert grid.inv_r2 is grid.inv_r2 and not grid.inv_r2.flags.writeable
        assert np.array_equal(grid.inv_r2, 1.0 / grid.nodes**2)

    def test_state_shape_validation(self):
        grid = RadialGrid(8.0, 63)
        with pytest.raises(ValueError):
            RadialState(grid=grid, p=np.zeros(62, complex), q=np.zeros(63, complex), t=0.0)

    def test_runconfig_validation(self):
        with pytest.raises(ConfigInvalid):
            RunConfig(dt0=1e-8, dtMin=1e-4)
        with pytest.raises(ConfigInvalid):
            RunConfig(blowupRatio=0.5)
        with pytest.raises(ConfigInvalid):
            RunConfig(tMax=-1.0)
        with pytest.raises(ConfigInvalid):
            RunConfig(cnIterations=0)
        for bad in (dict(cnIterations=1.5), dict(sampleEvery=2.5), dict(cnIterations=2.0)):
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
        assert abs(st.p[0]) / grid.dr == pytest.approx(
            abs(complex(u0_origin)), rel=1e-4
        )

    def test_matches_profile(self):
        ic = GaussianIC(1.5, 0.7, 1.0, 0.5)
        grid = RadialGrid(8.0, 255)
        p = params()
        st = load_initial(ic, grid, p)
        u0, v0 = evaluate_ic(ic, p, grid.nodes)
        assert np.allclose(st.p, grid.nodes * u0)
        assert np.allclose(st.q, grid.nodes * v0)
        assert st.t == 0.0


def linear_mode_state(grid, k, amp_u, amp_v):
    phi = np.sin(k * math.pi * np.arange(1, grid.n + 1) / (grid.n + 1))
    return RadialState(
        grid=grid, p=(amp_u * phi).astype(complex), q=(amp_v * phi).astype(complex), t=0.0
    )


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
        assert np.max(np.abs(st.p - a * phi)) < 1e-6
        assert np.max(np.abs(st.q - b * phi)) < 1e-6

    def test_free_mode_amplitude_preserved(self):
        # gamma -> 0, kappa tiny: free evolution keeps the mode amplitude
        p = SystemParams(gamma=0.0, kappa=1e-12, g1=0.0, g2=0.0, g=0.0)
        grid = RadialGrid(8.0, 127)
        st = linear_mode_state(grid, 2, 1.0, 0.0)
        norm0 = np.linalg.norm(st.p)
        for _ in range(100):
            st = step(st, p, 1e-3)
        assert np.linalg.norm(st.p) == pytest.approx(norm0, rel=1e-12)

    def test_rejects_nonpositive_dt(self):
        grid = RadialGrid(8.0, 63)
        st = linear_mode_state(grid, 1, 1.0, 0.0)
        for dt in (0.0, -1e-3, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="dt must be finite and > 0"):
                step(st, params(), dt)
        with pytest.raises(ValueError):
            step(st, params(), 1e-3, 0)

    def test_overflow_inside_step_is_divergence(self):
        # w * p overflows in the right-hand side, before any solve
        st = linear_mode_state(RadialGrid(8.0, 63), 1, 1e150, 1.0)
        with pytest.raises(SolverDiverged):
            step(st, SystemParams(0.5, 1.0), 1e-3)


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

        p0, q0 = state.p, state.q
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
        return replace(state, p=ps, q=qs, t=state.t + dt)

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
        st = replace(st, p=st.p * np.exp(1j * grid.nodes), q=st.q * np.exp(-0.5j * grid.nodes))
        got = want = st
        for dt in (2e-3, 5e-3, 1e-2, 1e-2, 2e-2):
            got = step(got, prm, dt, passes)
            want = self.reference_step(want, prm, dt, passes)
            assert got.t == want.t
            for a, b in ((got.p, want.p), (got.q, want.q)):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        # the steps moved the field, and the pass count changes the answer
        assert np.max(np.abs(got.p - st.p)) > 1e-3 * np.max(np.abs(st.p))
        other = step(st, prm, 2e-2, passes + 1)
        assert not np.allclose(other.p, step(st, prm, 2e-2, passes).p, rtol=1e-12, atol=0)


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
        got = _tridiag_solve(diag.copy(), off, rhs.copy())
        assert got.shape == (2, n)
        # a link between the rows would couple them and change both
        for row, ref in zip(got, expected):
            assert np.array_equal(row, ref)

    def test_singular_matrix_is_divergence(self):
        with pytest.raises(SolverDiverged):
            _tridiag_solve(np.zeros((2, 17), complex), 0j, np.ones((2, 17), complex))


class TestWorkspace:
    """run hands every step one set of scratch arrays; what they hold from
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
            assert np.array_equal(got.p.view(float), want.p.view(float))
            assert np.array_equal(got.q.view(float), want.q.view(float))

    def test_result_shares_no_memory(self):
        p, st = self.states()
        work = _workspace(self.GRID.n)
        new = step(st, p, 1e-3, work=work)
        for field in (new.p, new.q):
            for arr in (*work, st.p, st.q):
                assert not np.shares_memory(field, arr)
        # the next step overwrites the workspace and leaves new as it was
        kept = new.p.copy(), new.q.copy()
        step(new, p, 1e-3, work=work)
        assert np.array_equal(new.p, kept[0]) and np.array_equal(new.q, kept[1])

    def test_two_runs_give_the_same_bytes(self):
        p, _ = self.states()
        cfg = RunConfig(dt0=2e-3, dtMin=1e-6, tMax=0.1, sampleEvery=5)
        a, b = (run(GaussianIC(1.5, 0.7, 0.6, 0.4), p, self.GRID, cfg) for _ in range(2))
        assert (a.verdict, a.component, a.tStop) == (b.verdict, b.component, b.tStop)
        assert np.array_equal(a.finalState.p.view(float), b.finalState.p.view(float))
        assert np.array_equal(a.finalState.q.view(float), b.finalState.q.view(float))
        assert a.trace.keys() == b.trace.keys()
        for name in a.trace:
            assert np.array_equal(a.trace[name], b.trace[name]), name


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
        v_ratio = abs(out.finalState.q[0]) / abs(st0.q[0])
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

    def test_advance_clips_to_horizon(self):
        # every step that run attempts goes through _advance
        p = params(gamma=0.1)
        cfg = RunConfig(dt0=1e-3, dtMin=1e-6, tMax=0.5)
        st0 = load_initial(GaussianIC(0.2, 0.2, 1.0, 1.0), RadialGrid(16.0, 63), p)
        dt = 1e-3
        # clear of the horizon: one whole step of the caller's dt
        far = _advance(st0, p, dt, cfg)
        want = step(st0, p, dt, cfg.cnIterations)
        assert far.t == dt
        assert np.array_equal(far.p, want.p) and np.array_equal(far.q, want.q)
        # less than dt left: the step covers the remainder and ends on tMax
        st = replace(st0, t=cfg.tMax - 4e-4)
        near = _advance(st, p, dt, cfg)
        want = step(st, p, cfg.tMax - st.t, cfg.cnIterations)
        assert near.t == cfg.tMax
        assert np.array_equal(near.p, want.p) and np.array_equal(near.q, want.q)
        # a remainder a rounding residue above dt is taken whole, not left over
        st = replace(st0, t=cfg.tMax - dt * (1 + 1e-9))
        assert _advance(st, p, dt, cfg).t == cfg.tMax

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
    """Every way out of run's accept/reject loop, on a scripted stepper.

    The k-th call of the replaced step multiplies (p, q) by the k-th pair of
    factors, or raises it if it is an exception, or returns a finite field
    whose modulus overflows if it is OVERFLOW.  dtMin == dt0 switches the
    growth rejection off, so every scripted step is accepted.  Factors of 2
    scale the origin ratio exactly.
    """

    OVERFLOW = "overflow"
    CFG = RunConfig(dt0=0.01, dtMin=0.01, blowupRatio=4.0, tMax=1.0, sampleEvery=100)

    def run_script(self, monkeypatch, script, cfg=CFG):
        calls = []

        def scripted(state, params, dt, cn_iterations=2, **_):
            entry = script[len(calls)]
            calls.append(state.t)
            if isinstance(entry, Exception):
                raise entry
            if entry == self.OVERFLOW:
                big = np.full(state.grid.n, 1.5e308 * (1 + 1j))
                return replace(state, p=big, q=big, t=state.t + dt)
            fu, fv = entry
            return replace(state, p=state.p * fu, q=state.q * fv, t=state.t + dt)

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
        verdicts = iter(["BlowupLike", "Dispersed", "MaxTimeReached"])

        def fake_run(ic, params, grid, cfg):
            trace = {"t": np.array([0.0, 1.0]), "S0": np.array([1.0, 1.0])}
            return RunOutcome(next(verdicts), 1.0, "None", trace)

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
        with pytest.raises(ValueError):
            convergence_check(
                GaussianIC(1, 1), params(), RadialGrid(16.0, 255), RunConfig(), 0
            )
