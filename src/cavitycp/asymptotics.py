"""Closed forms and scaling laws for constant-reflectivity cavities.

These serve as independent oracles for the quadrature pipeline: the exact
series for the propagating integral I(phi), the nu = 1 closed form and its
high-reflectivity limits, and the depth-scaling law
Delta U_nu = coupling * (8 pi / (nu lambda^3)) * |ln(delta) + phi(nu)|.
Each takes plain numbers: r or delta, nu, and lambda or the width
a = nu lambda / 2 of the cavity tuned to the nu-th resonance.

Two variants of the intercept function phi(nu) are exposed: phi_nu returns
the published numeric-table value (the printed closed form plus
nu/(4(nu-1))), and phi_nu_printed evaluates the closed form exactly as
printed.  The two disagree: the exact series' depth intercept as delta -> 0
is phi_nu_printed, which is why acceptance criterion 1 fails on phi_nu.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import EULER_GAMMA, ZETA_3
from .specfun import digamma, hurwitz_zeta3, lerch_phi

__all__ = [
    "I_phi_series", "I_half_closed", "I_half_asym", "I_zero_asym",
    "depth_nu1_asym", "phi_nu", "phi_nu_printed", "phi_asymptote",
    "depth_scaling",
]


def I_phi_series(r: float, nu, lam: float, phi):
    """Exact series for the propagating integral I(phi), 1/m^3, of the
    cavity with r_p = -r_s = r tuned to the nu-th resonance of a transition
    of wavelength lam, for 0 < r < 1, integer nu >= 1, lam > 0 and
    |phi| < 1/2 (I_half_closed gives phi = 1/2):
    I(phi) = r/(2 pi nu^3 lam^3) * sum_j r^(2j) [y(j+1/2+phi) + y(j+1/2-phi)]
    with y(p) = -2/p^3 + (2/p^3 - 4 nu^2 pi^2/p) cos(2 pi nu p)
    + 4 nu pi/p^2 sin(2 pi nu p).  For integer nu, C = cos(2 pi nu (j + b))
    and S = sin(2 pi nu (j + b)) do not depend on j, so with lerch_phi
    sum_j r^(2j) y(j + b) = (2C - 2) Phi(r^2, 3, b)
    - 4 nu^2 pi^2 C Phi(r^2, 1, b) + 4 nu pi S Phi(r^2, 2, b).
    Phi takes delta = 1 - r, so a delta enters rounded as ConstantR(1 - delta)
    sees it.  An array phi gives an array of its shape from one lerch_phi
    call; nu may be an array of orders too, phi[i] for nu[i].
    """
    nu = np.asarray(nu)
    phi = np.abs(np.asarray(phi, dtype=float))  # I(-phi) == I(phi) exactly
    if not 0 < r < 1:
        raise ValueError(f"I_phi_series requires 0 < r < 1, got {r}")
    if not (np.all(nu >= 1) and np.all(nu % 1 == 0)):
        raise ValueError(f"I_phi_series requires integer nu >= 1, got {nu}")
    if not lam > 0:
        raise ValueError(f"I_phi_series requires lam > 0, got {lam}")
    if not np.all(phi < 0.5):
        raise ValueError(f"I_phi_series requires |phi| < 1/2, got {phi}")
    nu = np.reshape(nu, nu.shape + (1,) * (phi.ndim - nu.ndim))
    b = np.stack((0.5 + phi, 0.5 - phi))
    c, s = np.cos(2 * math.pi * nu * b), np.sin(2 * math.pi * nu * b)
    p = lerch_phi(1.0 - r, b)
    half = (2 * c - 2) * p[..., 2] - 4 * (nu * math.pi)**2 * c * p[..., 0] \
        + 4 * nu * math.pi * s * p[..., 1]
    return r / (2.0 * math.pi * nu**3 * lam**3) * (half[0] + half[1])


def I_half_closed(r: float, a: float) -> float:
    """Exact nu = 1 wall value: I(1/2) = pi (r + 1/r)/(4 a^3) * ln(1 - r^2)."""
    if not 0 < r < 1:
        raise ValueError("I_half_closed requires 0 < r < 1")
    return math.pi * (r + 1.0 / r) / (4.0 * a**3) * math.log(1.0 - r * r)


def I_half_asym(delta: float, a: float) -> float:
    """High-reflectivity limit of I(1/2): (pi/(2 a^3)) (ln delta + ln 2)."""
    return math.pi / (2.0 * a**3) * (math.log(delta) + math.log(2.0))


def I_zero_asym(delta: float, a: float) -> float:
    """High-reflectivity limit of the nu = 1 center value:
    -(pi/(2 a^3)) [ln delta - ln 2 + 7 zeta(3)/pi^2]."""
    return -math.pi / (2.0 * a**3) * (math.log(delta) - math.log(2.0)
                                      + 7.0 * ZETA_3 / math.pi**2)


def depth_nu1_asym(coupling: float, delta: float, a: float) -> float:
    """U_pr(0) - U_pr(a/2) for nu = 1 as delta -> 0, with coupling =
    n(omega) d^2 / (3 eps0):
    -(pi * coupling / a^3) [ln delta + 7 zeta(3)/(2 pi^2)]."""
    return -math.pi * coupling / a**3 * (math.log(delta)
                                         + 7.0 * ZETA_3 / (2.0 * math.pi**2))


def phi_nu_printed(nu: int) -> float:
    """The depth-intercept closed form exactly as published."""
    if nu < 2:
        raise ValueError("phi_nu requires nu >= 2")
    return (math.log(2.0) + EULER_GAMMA
            + 0.25 * (digamma(1.0 - 1.5 / nu) + digamma(1.5 / nu)
                      + digamma(1.0 - 1.0 / nu) + digamma(1.0 / nu))
            + (hurwitz_zeta3(1.0 - 1.5 / nu) + hurwitz_zeta3(1.5 / nu))
            / (4.0 * math.pi**2 * nu**2))


def phi_nu(nu: int) -> float:
    """The published numeric-table variant: printed closed form plus
    nu/(4 (nu - 1)) (equivalently, psi(2 - 1/nu) in place of psi(1 - 1/nu))."""
    return phi_nu_printed(nu) + nu / (4.0 * (nu - 1.0))


def phi_asymptote(nu: int) -> float:
    """Large-nu asymptote -(5/12 - 2/(27 pi^2)) nu + ln 2 + 1/4."""
    if nu < 2:
        raise ValueError("phi_asymptote requires nu >= 2")
    return -(5.0 / 12.0 - 2.0 / (27.0 * math.pi**2)) * nu \
        + math.log(2.0) + 0.25


def depth_scaling(nu: int, delta: float, lam: float, coupling: float) -> float:
    """Well-depth law Delta U_nu = coupling * (8 pi/(nu lam^3))
    * |ln delta + phi(nu)|, with coupling = n(omega) d^2 / (3 eps0);
    positive values are well depths."""
    if not 0 < delta < 1:
        raise ValueError("depth_scaling requires 0 < delta < 1")
    return coupling * 8.0 * math.pi / (nu * lam**3) \
        * abs(math.log(delta) + phi_nu(nu))
