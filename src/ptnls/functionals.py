"""Integral diagnostics: Stokes components, energy, virial moments.

Two routes are provided: closed-form moments of the Gaussian inputs (used
for t=0 criterion evaluation) and trapezoid quadrature on a radial grid
(used to monitor running simulations, one TRACE_COLUMNS row per sample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GaussianIC, SystemParams


@dataclass(frozen=True)
class InitialFunctionals:
    """The t=0 values of the diagnostics that the criteria read: closed-form
    for Gaussian inputs, or assembled by hand.  ValueError unless every
    field is finite and X0 = msw and S0 = s0 are >= 0."""

    s0: float
    s1: float
    s2: float
    s3: float
    energy: float
    msw: float
    mswRate: float
    gradU2: float
    gradV2: float
    quarticU: float
    quarticV: float
    crossQuartic: float

    def __post_init__(self):
        if not all(map(math.isfinite, (
                self.s0, self.s1, self.s2, self.s3, self.energy, self.msw,
                self.mswRate, self.gradU2, self.gradV2, self.quarticU,
                self.quarticV, self.crossQuartic))):
            bad = [name for name, value in vars(self).items() if not math.isfinite(value)]
            raise ValueError(f"functionals not finite: {', '.join(bad)}")
        if not (self.msw >= 0 and self.s0 >= 0):
            raise ValueError(f"X0 and S0 must be >= 0, got {self.msw}, {self.s0}")


# The simulator trace, in trace.csv column order: Stokes components S0-S3,
# energy E, mean-square width X and its rate Y = dX/dt, the peaks of |u|^2
# and |v|^2, and |u|, |v| on the axis.
TRACE_COLUMNS = ["t", "S0", "S1", "S2", "S3", "E", "X", "Y",
                 "peakU2", "peakV2", "originU", "originV"]


def _abs2(f: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """|f|^2 as re^2 + im^2, in out if given (scratch holds im^2).  Squaring
    np.abs (hypot) rounds twice, and with numpy 2.4 is no faster: 5.2-5.8
    against 4.8 us at n = 999 on a 2-vCPU x86 VM, where np.multiply(x, x)
    takes 6.4 us for the same bits."""
    out = np.square(f.real, out=out)
    return np.add(out, np.square(f.imag, out=scratch), out=out)


def _energy(params: SystemParams, grad_u2, grad_v2, s1, quartic_u, quartic_v, cross):
    """E = int |grad u|^2 + |grad v|^2 + kappa S1 - g1/2 |u|^4 - g2/2 |v|^4
    - g |u|^2 |v|^2, from its integrals."""
    return (
        grad_u2
        + grad_v2
        + params.kappa * s1
        - 0.5 * params.g1 * quartic_u
        - 0.5 * params.g2 * quartic_v
        - params.g * cross
    )


def gaussian_moments(ic: GaussianIC, params: SystemParams) -> InitialFunctionals:
    """Closed-form t=0 functionals of the Gaussian input pair.

    ValueError if finite inputs give a functional that is not finite.
    """
    A, B = ic.ampU, ic.ampV
    a, b = ic.widthU, ic.widthV
    N = params.dim
    s0 = A**2 + B**2
    s1 = 2 * A * B * (2 * a * b / (a**2 + b**2)) ** (N / 2)
    s2 = 0.0
    s3 = A**2 - B**2
    msw = (N / 2) * (A**2 * a**2 + B**2 * b**2)
    msw_rate = params.gamma * N * (A**2 * a**2 - B**2 * b**2)
    grad_u2 = (N / 2) * A**2 / a**2
    grad_v2 = (N / 2) * B**2 / b**2
    quartic_u = A**4 * (2 * math.pi) ** (-N / 2) * a ** (-N)
    quartic_v = B**4 * (2 * math.pi) ** (-N / 2) * b ** (-N)
    cross = A**2 * B**2 * (math.pi * (a**2 + b**2)) ** (-N / 2)
    energy = _energy(params, grad_u2, grad_v2, s1, quartic_u, quartic_v, cross)
    return InitialFunctionals(
        s0=s0,
        s1=s1,
        s2=s2,
        s3=s3,
        energy=energy,
        msw=msw,
        mswRate=msw_rate,
        gradU2=grad_u2,
        gradV2=grad_v2,
        quarticU=quartic_u,
        quarticV=quartic_v,
        crossQuartic=cross,
    )


def grid_functionals(state, params: SystemParams) -> dict:
    """The TRACE_COLUMNS values of a radial state, by name (N=3 only).

    Integrals over R^3 reduce to 4*pi * int_0^L (...) dr in the p=r*u,
    q=r*v variables; composite trapezoid on the uniform grid.  The field is
    zero at r = 0 and r = L, so each rule is dr times a sum over the interior
    nodes: every integrand vanishes at both ends but |p_r - p/r|^2 at r = L.
    Overflow raises no warning; it shows as a value that is not finite.
    """
    if params.dim != 3:
        raise ValueError("grid_functionals is restricted to dim == 3")
    grid = state.grid
    dr, r, inv_r2, f = grid.dr, grid.nodes, grid.inv_r2, state.f
    with np.errstate(over="ignore", invalid="ignore"):
        f2 = _abs2(f)
        p2, q2 = f2
        u2 = f2 * inv_r2  # |u|^2 and |v|^2
        sum_p2, sum_q2 = np.sum(f2, axis=1)
        s0 = dr * (sum_p2 + sum_q2)
        s3 = dr * (sum_p2 - sum_q2)
        # sum of p conj(q)
        pqbar = np.vdot(f[1], f[0])
        s1 = 2 * dr * pqbar.real
        s2 = 2 * dr * pqbar.imag

        # Central differences, with the zero end values as neighbours.  Each
        # row of df, grad2 and quartic is one component.
        df = np.empty_like(f)
        np.subtract(f[:, 2:], f[:, :-2], out=df[:, 1:-1])
        df[:, 0] = f[:, 1]
        np.negative(f[:, -2], out=df[:, -1])
        df *= 0.5 / dr
        # |grad u|^2 integrand is |p_r - p/r|^2; at r=0 regularity (p(0)=0)
        # gives p/r -> p_r(0), so it vanishes there.  At r = L it is
        # |p_n/dr|^2 (one-sided p_r, p/r = 0), with trapezoid weight dr/2.
        # r / r^2 is 1/r, and a multiply by it is cheaper than dividing by r.
        g = (df - f * (r * inv_r2)).view(float)
        grad2 = dr * np.sum(g * g, axis=1) + 0.5 * f2[:, -1] / dr

        quartic = dr * np.sum(f2 * u2, axis=1)
        cross = dr * (p2 @ u2[1])

        msw_u, msw_v = dr * (f2 @ (r * r))
        # Y = 4 Im int (u x.grad(ubar) + v x.grad(vbar)) dx
        #     + 2 gamma int |x|^2 (|u|^2-|v|^2) dx, radially reduced:
        # u x.grad(ubar) r^2 = p (pbar_r r - pbar), and Im(-p pbar) = 0;
        # vdot conjugates its first argument.
        rate = 4 * dr * np.vdot(df, f * r).imag

        peak_u2, peak_v2 = np.max(u2, axis=1)
        origin_u, origin_v = np.sqrt(u2[:, 0])
        fourpi = 4 * math.pi
        return {
            "t": state.t,
            "S0": fourpi * s0,
            "S1": fourpi * s1,
            "S2": fourpi * s2,
            "S3": fourpi * s3,
            "E": fourpi * _energy(params, *grad2, s1, *quartic, cross),
            "X": fourpi * (msw_u + msw_v),
            "Y": fourpi * (rate + 2 * params.gamma * (msw_u - msw_v)),
            "peakU2": peak_u2,
            "peakV2": peak_v2,
            "originU": origin_u,
            "originV": origin_v,
        }


def s0_upper_bound(initial: InitialFunctionals, params: SystemParams, t: float) -> float:
    """Upper bound S0(0) * exp(2*gamma*t) for the total power at time t >= 0:
    inf where the exponential overflows, and 0 when S0(0) = 0."""
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and >= 0")
    if not initial.s0:
        return 0.0
    try:
        return initial.s0 * math.exp(2 * params.gamma * t)
    except OverflowError:
        return math.inf
