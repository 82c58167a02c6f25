"""Special functions needed by the constant-reflectivity asymptotics.

Digamma and zeta(3, b) come from series with recurrence lifting and
Euler-Maclaurin tails, the Lerch transcendent at all its shifts b from one
adaptive integral: no external special-function dependency.  Target accuracy
is 1e-12; physics-level comparisons elsewhere use far looser tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import QuadratureSpec, _ladder, adaptive_integrate

__all__ = ["digamma", "hurwitz_zeta3", "lerch_phi"]


# Bernoulli numbers B_2 ... B_14 for the digamma asymptotic series.
_BERNOULLI = (1/6, -1/30, 1/42, -1/30, 5/66, -691/2730, 7/6)


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function, for x > 0."""
    if not x > 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    # asymptotic series psi(x) ~ ln x - 1/(2x) - sum B_2n/(2n x^2n)
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = inv2
    for n, b2n in enumerate(_BERNOULLI, start=1):
        series += b2n / (2 * n) * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - series


def hurwitz_zeta3(b: float) -> float:
    """Hurwitz zeta function zeta(3, b) = sum_{j>=0} (j+b)^-3, for b > 0."""
    if not b > 0:
        raise ValueError(f"hurwitz_zeta3 requires b > 0, got {b}")
    n = max(0, int(math.ceil(25.0 - b)))
    js = np.arange(n) + b
    head = float(np.sum(1.0 / (js * js * js))) if n else 0.0
    # Euler-Maclaurin tail starting at j = n:
    #   sum_{j>=n} f(j) = int_n^inf f + f(n)/2 - f'(n)/12 + f'''(n)/720 - ...
    t = n + b
    tail = (0.5 / t**2            # integral
            + 0.5 / t**3          # f(n)/2
            + 0.25 / t**4         # -f'(n)/12 with f' = -3 t^-4
            - 1.0 / 12.0 / t**6   # f'''(n)/720 with f''' = -60 t^-6
            + 0.25 / t**8)        # -f^(5)(n)/30240 with f^(5) = -2520 t^-8
    return head + tail


_LERCH_SPEC = QuadratureSpec(rel_tol=1e-13)


def lerch_phi(delta: float, b) -> np.ndarray:
    """Phi(r^2, s, b) = sum_{j>=0} r^(2j) (j + b)^-s for s = 1, 2, 3, with
    r = 1 - delta, 0 < delta <= 1 and b > 0, from one vector quadrature of
    Phi(z, s, b) = Gamma(s)^-1 int_0^inf t^(s-1) e^(-bt) / (1 - z e^(-t)) dt
    (Erdelyi et al., Higher Transcendental Functions I, 1.11).  Its
    denominator, (1 - r^2) e^(-t) - expm1(-t) with 1 - r^2 = delta (2 - delta),
    is exact at its minimum t = 0; edges (1 - r^2) 2^(2k/3) resolve the peak
    there in one round, and past t = 50/b, e^(-bt) < e^-50.  An array b gives
    shape b.shape + (3,) from one integral to 50/min b, each (b, s) column at
    its own tolerance."""
    b = np.asarray(b, dtype=float)
    if not (np.all(b > 0) and 0 < delta <= 1):
        raise ValueError(
            f"lerch_phi requires b > 0 and 0 < delta <= 1, got {b}, {delta}")
    gap = delta * (2.0 - delta)
    hi = 50.0 / b.min()

    def integrand(t):
        w = np.exp(np.multiply.outer(-t, b.ravel()))[:, :, None] \
            / (gap * np.exp(-t) - np.expm1(-t))[:, None, None]
        return (w * t[:, None, None] ** np.arange(3)).reshape(len(t), -1)

    val, _ = adaptive_integrate(integrand, 0.0, hi, _LERCH_SPEC,
                                _ladder(0.0, gap, hi, 2.0 ** (2.0 / 3.0)))
    return val.reshape(b.shape + (3,)) * np.array([1.0, 1.0, 0.5])
