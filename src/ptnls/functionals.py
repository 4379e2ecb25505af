"""Integral diagnostics: Stokes components, energy, virial moments.

Two routes are provided: closed-form moments of the Gaussian inputs (used
for t=0 criterion evaluation) and trapezoid quadrature on a radial grid
(used to monitor running simulations, one TRACE_COLUMNS row per sample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse
from .model import GaussianIC, SystemParams


@dataclass(frozen=True)
class InitialFunctionals:
    """Closed-form t=0 values of the diagnostics for Gaussian inputs."""

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


# The simulator trace, in trace.csv column order: Stokes components S0-S3,
# energy E, mean-square width X and its rate Y = dX/dt, the peaks of |u|^2
# and |v|^2, and |u|, |v| on the axis.
TRACE_COLUMNS = ["t", "S0", "S1", "S2", "S3", "E", "X", "Y",
                 "peakU2", "peakV2", "originU", "originV"]


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

    OverflowError if finite inputs give a functional that is not finite.
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
    out = InitialFunctionals(
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
    bad = [name for name, value in vars(out).items() if not math.isfinite(value)]
    if bad:
        raise OverflowError(f"Gaussian moments not finite: {', '.join(bad)}")
    return out


def grid_functionals(state, params: SystemParams) -> dict:
    """The TRACE_COLUMNS values of a radial state, by name (N=3 only).

    Integrals over R^3 reduce to 4*pi * int_0^L (...) dr in the p=r*u,
    q=r*v variables; composite trapezoid on the uniform grid.
    """
    if params.dim != 3:
        raise ValueError("grid_functionals is restricted to dim == 3")
    grid = state.grid
    if grid.n < 16:
        raise GridTooCoarse(f"need at least 16 interior nodes, got {grid.n}")
    dr = grid.dr
    r = np.concatenate(([0.0], grid.nodes, [grid.L]))
    p = np.pad(state.p, 1)  # with the zero boundary values
    q = np.pad(state.q, 1)

    p2 = np.abs(p) ** 2
    q2 = np.abs(q) ** 2
    s0 = np.trapezoid(p2 + q2, dx=dr)
    pqbar = p * np.conj(q)
    s1 = 2 * np.trapezoid(pqbar.real, dx=dr)
    s2 = 2 * np.trapezoid(pqbar.imag, dx=dr)
    s3 = np.trapezoid(p2 - q2, dx=dr)

    # |grad u|^2 integrand is |p_r - p/r|^2; at r=0 regularity (p(0)=0)
    # gives p/r -> p_r(0).
    dp = np.gradient(p, dr)
    dq = np.gradient(q, dr)
    ratio_p = np.concatenate((dp[:1], p[1:] / r[1:]))
    ratio_q = np.concatenate((dq[:1], q[1:] / r[1:]))
    grad_u2 = np.trapezoid(np.abs(dp - ratio_p) ** 2, dx=dr)
    grad_v2 = np.trapezoid(np.abs(dq - ratio_q) ** 2, dx=dr)

    # |u|^4 integrand |p|^4/r^2 vanishes at r=0 for smooth fields.
    inv_r2 = np.zeros_like(r)
    inv_r2[1:] = 1.0 / r[1:] ** 2
    quartic_u = np.trapezoid(p2**2 * inv_r2, dx=dr)
    quartic_v = np.trapezoid(q2**2 * inv_r2, dx=dr)
    cross = np.trapezoid(p2 * q2 * inv_r2, dx=dr)

    msw = np.trapezoid(r**2 * (p2 + q2), dx=dr)
    msw_u = np.trapezoid(r**2 * p2, dx=dr)
    msw_v = np.trapezoid(r**2 * q2, dx=dr)
    # Y = 4 Im int (u x.grad(ubar) + v x.grad(vbar)) dx
    #     + 2 gamma int |x|^2 (|u|^2-|v|^2) dx, radially reduced:
    # u x.grad(ubar) r^2 = p (pbar_r r - pbar), and Im(-p pbar) = 0.
    msw_rate = 4 * math.pi * (
        4 * np.trapezoid((p * np.conj(dp) + q * np.conj(dq)).imag * r, dx=dr)
        + 2 * params.gamma * (msw_u - msw_v)
    )

    energy = 4 * math.pi * _energy(
        params, grad_u2, grad_v2, s1, quartic_u, quartic_v, cross
    )

    u_abs = np.abs(state.p) / grid.nodes
    v_abs = np.abs(state.q) / grid.nodes
    fourpi = 4 * math.pi
    return {
        "t": state.t,
        "S0": fourpi * s0,
        "S1": fourpi * s1,
        "S2": fourpi * s2,
        "S3": fourpi * s3,
        "E": energy,
        "X": fourpi * msw,
        "Y": msw_rate,
        "peakU2": np.max(u_abs) ** 2,
        "peakV2": np.max(v_abs) ** 2,
        "originU": u_abs[0],
        "originV": v_abs[0],
    }


def s0_upper_bound(initial: InitialFunctionals, params: SystemParams, t: float) -> float:
    """Upper bound S0(0) * exp(2*gamma*t) for the total power at time t >= 0."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return initial.s0 * math.exp(2 * params.gamma * t)
