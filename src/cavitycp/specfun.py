"""Special functions needed by the constant-reflectivity asymptotics.

Everything here is implemented from series plus standard accelerations
(recurrence lifting, Euler-Maclaurin tails, integral representations) so the
library carries no external special-function dependency.  Target accuracy is
1e-12; physics-level comparisons elsewhere use far looser tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import QuadratureSpec, adaptive_integrate

__all__ = ["digamma", "hurwitz_zeta3", "shifted_geometric_sum"]


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


def shifted_geometric_sum(b: float, r: float) -> float:
    """sum_{j>=0} r^(2j) / (j + b) for b > 0 and 0 <= r < 1.

    Direct summation while the term count stays moderate; for r extremely
    close to 1 the sum is evaluated through its exact integral
    representation (1/b) * int_0^1 dw / (1 - r^2 w^(1/b)), whose integrand
    peak near w = 1 has width ~ b*(1-r^2) and is resolved with geometric
    breakpoints.
    """
    if not b > 0:
        raise ValueError(f"shifted_geometric_sum requires b > 0, got {b}")
    if not 0 <= r < 1:
        raise ValueError(f"shifted_geometric_sum requires 0 <= r < 1, got {r}")
    if r == 0:
        return 1.0 / b
    nterms = int(-37.0 / math.log(r)) + 1  # r^(2j) below ~1e-16*r^... at j*2
    if nterms <= 20_000_000:
        total = 0.0
        start = 0
        r2 = r * r
        while start < nterms:
            stop = min(start + 5_000_000, nterms)
            j = np.arange(start, stop, dtype=float)
            total += float(np.sum(np.power(r2, j) / (j + b)))
            start = stop
        return total
    r2 = r * r
    width = b * (1.0 - r2)
    bps = []
    u = width
    while u < 1.0:
        bps.append(u)
        u *= 4.0

    def integrand(u):
        # substituting u = 1 - w, the denominator
        # 1 - r^2 w^(1/b) = (1 - r^2) + r^2 (1 - e^{ln(1-u)/b})
        # is evaluated in log1p/expm1 form so the peak at u -> 0 carries no
        # catastrophic cancellation.
        return 1.0 / ((1.0 - r2) - r2 * np.expm1(np.log1p(-u) / b))

    val, _ = adaptive_integrate(
        integrand, 0.0, 1.0,
        QuadratureSpec(rel_tol=1e-12, max_subdivisions=6000),
        breakpoints=bps)
    return float(np.real(val)) / b
