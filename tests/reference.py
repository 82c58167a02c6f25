"""Test-only reference for a cavity's real-frequency trace Tr G(z).

The full trace, propagating and evanescent parts together, is one integral
over the parallel wavenumber k with beta = sqrt(k0^2 - k^2) (Im >= 0):

    Tr G = int dk (k/beta) K(beta) sum_p e^{i beta L_p},

K = B/(4 pi i omega^2) the bracket of greens' module docstring and L_p the
geometry's decay_lengths.  On the real k axis it has a 1/beta grazing
singularity at k = k0 and the cavity's modes as poles just above the axis.
Here it runs along k = t - i h k0 sin(pi t / 2 k0), t in [0, 2 k0], below
them all, and then along the real axis to the e^-40 cutoff of the shortest
path.  So it needs no grazing term S, no x_lo rectangle and no split into
propagating and evanescent parts, and it shares no code with greens' arch:
only the reflection coefficients, which have their own tests.  scipy's
quad_vec integrates it, loaded through pytest.importorskip.
"""

import numpy as np
import pytest

from cavitycp.constants import C
from cavitycp.materials import reflection_coefficients, sqrt_upper

_CUTOFF = 40.0


def contour_trace(zs, omega, cavity, rel_tol=1e-11, h=0.3):
    """Tr G at each position of zs in a CavityGeometry, at real omega."""
    quad_vec = pytest.importorskip("scipy.integrate").quad_vec
    k0 = omega / C
    lengths = cavity.decay_lengths(np.asarray(zs, dtype=float))

    def integrand(k):
        beta = sqrt_upper(k0**2 - k * k)
        rs, rp = reflection_coefficients(cavity.mirror, omega, beta=beta)
        trip = np.exp(2j * beta * cavity.width)
        rs, rp = rs / (1.0 - rs * rs * trip), rp / (1.0 - rp * rp * trip)
        bracket = 2.0 * C**2 * beta**2 * rp - omega**2 * (rs + rp)
        return k / beta * bracket / (4j * np.pi * omega**2) \
            * np.exp(1j * beta * lengths).sum(axis=0)

    def dip(t):
        angle = np.pi * t / (2.0 * k0)
        k = t - 1j * h * k0 * np.sin(angle)
        return integrand(k) * (1.0 - 0.5j * np.pi * h * np.cos(angle))

    total, _ = quad_vec(dip, 0.0, 2.0 * k0, epsrel=rel_tol, norm="max")
    k_max = np.sqrt(k0**2 + (_CUTOFF / lengths.min()) ** 2)
    if k_max > 2.0 * k0:
        tail, _ = quad_vec(lambda k: integrand(k + 0j), 2.0 * k0, k_max,
                           epsrel=rel_tol, norm="max")
        total = total + tail
    return total
