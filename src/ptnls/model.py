"""System parameters, Gaussian inputs, phase classification and the
unbroken-phase rotation-transform coefficients.

All types here are frozen dataclasses.  A sweep with several workers
pickles them to each worker process; the workers get copies, nothing is
shared.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BrokenPhase


def _is_int(x) -> bool:
    """Whether x is an int or numpy integer, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


class PhaseLabel(enum.Enum):
    UNBROKEN = "Unbroken"
    BROKEN = "Broken"
    EXCEPTIONAL = "Exceptional"


@dataclass(frozen=True)
class SystemParams:
    """Gain/loss rate, linear coupling, nonlinear coefficients and dimension.

    Every coefficient must be finite; kappa must be positive and gamma
    nonnegative (negative signs can always be absorbed into a redefinition
    of the fields; gamma = 0 is admitted as the conservative limit, used by
    the conservation diagnostics).  dim is stored as given; criterion
    routines that need dim >= 3 check it themselves.
    """

    gamma: float
    kappa: float
    g1: float = 1.0
    g2: float = 1.0
    g: float = 1.0
    dim: int = 3

    def __post_init__(self):
        if not self.gamma >= 0:
            raise ValueError("gamma must be >= 0")
        if not self.kappa > 0:
            raise ValueError("kappa must be > 0")
        if not all(-math.inf < x < math.inf
                   for x in (self.gamma, self.kappa, self.g1, self.g2, self.g)):
            raise ValueError("gamma, kappa, g1, g2 and g must be finite")
        if not _is_int(self.dim) or self.dim < 1:
            raise ValueError("dim must be an integer >= 1")


@dataclass(frozen=True)
class GaussianIC:
    """Two-component Gaussian input: amplitudes A, B and widths a, b.

    The evaluated profiles are normalized so that the squared L2 norms are
    exactly A**2 and B**2.  Each field must be finite and > 0.
    """

    ampU: float
    ampV: float
    widthU: float = 1.0
    widthV: float = 1.0

    def __post_init__(self):
        for name in ("ampU", "ampV", "widthU", "widthV"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")


@dataclass(frozen=True)
class RotationCoefficients:
    """Coefficients of the transformed system in the unbroken phase.

    alpha is the principal argument (in (-pi, pi]) of -kappa/(omega - i*gamma);
    alphaArcsin = arcsin(gamma/kappa) is the alternative convention, recorded
    alongside because the two do not agree for small gamma.
    """

    alpha: float
    alphaArcsin: float
    omega: float
    Gplus: float
    Gminus: float
    Gcoef: complex
    Mcoef: complex
    Qcoef: complex
    Pcoef: complex


def classify_phase(params: SystemParams) -> PhaseLabel:
    """Unbroken iff kappa > gamma, Broken iff gamma > kappa, else Exceptional.

    Exact floating-point comparison; callers needing tolerance classify
    upstream.
    """
    if params.kappa > params.gamma:
        return PhaseLabel.UNBROKEN
    if params.gamma > params.kappa:
        return PhaseLabel.BROKEN
    return PhaseLabel.EXCEPTIONAL


def rotation_coefficients(params: SystemParams) -> RotationCoefficients:
    """Coefficient algebra of the rotation transform; requires kappa > gamma."""
    if classify_phase(params) is not PhaseLabel.UNBROKEN:
        raise BrokenPhase(
            f"rotation transform needs kappa > gamma, "
            f"got kappa={params.kappa}, gamma={params.gamma}"
        )
    gamma, kappa = params.gamma, params.kappa
    omega = math.sqrt(kappa**2 - gamma**2)
    alpha = cmath.phase(-kappa / (omega - 1j * gamma))
    gplus = 0.5 * (params.g1 + params.g2)
    gminus = 0.5 * (params.g1 - params.g2)
    G = params.g + gplus - 1j * gminus * math.tan(alpha)
    M = -gminus / math.cos(alpha)
    Q = -M + 1j * params.g * math.sin(alpha)
    P = M * math.cos(2 * alpha) - 2j * gplus * math.sin(alpha)
    return RotationCoefficients(
        alpha=alpha,
        alphaArcsin=math.asin(gamma / kappa),
        omega=omega,
        Gplus=gplus,
        Gminus=gminus,
        Gcoef=complex(G),
        Mcoef=complex(M),
        Qcoef=complex(Q),
        Pcoef=complex(P),
    )


def evaluate_ic(ic: GaussianIC, params: SystemParams, r) -> tuple:
    """Evaluate both Gaussian profiles at radius r (scalar or array).

    Returns complex values with exactly zero imaginary part.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0):  # NaN is not >= 0
        raise ValueError("radius must be >= 0")
    N = params.dim
    u0 = ic.ampU * np.pi ** (-N / 4) * ic.widthU ** (-N / 2) * np.exp(
        -(r**2) / (2 * ic.widthU**2)
    )
    v0 = ic.ampV * np.pi ** (-N / 4) * ic.widthV ** (-N / 2) * np.exp(
        -(r**2) / (2 * ic.widthV**2)
    )
    return u0.astype(complex), v0.astype(complex)
