"""Scattering Green-tensor trace for a planar cavity and a single plate.

Conventions: identical mirrors at z = +-a/2; the trace integrand is
(1/2 pi i) * (k_perp / beta) [2 c^2 beta^2/w^2 * r_p/D_p - sum_sigma r_sigma/D_sigma]
* e^{i beta a} cos(2 beta z), with D_sigma = 1 - r_sigma^2 e^{2 i beta a} and
beta on the Im >= 0 branch.  At real frequency the integral splits into a
propagating part (beta real, k_perp < w/c) and an evanescent part
(beta = i kappa, k_perp > w/c).

For frequency-dependent mirrors both parts are individually log-divergent at
grazing incidence (r_sigma -> -1, D_sigma -> 0 as beta -> 0); the divergent
piece is position-independent and cancels between the two parts.  Following
the convention of dropping position-independent terms, each part subtracts
the same singular term S e^{-x a}/x over a shared range, which leaves every
emitted quantity finite, keeps the two parts' sum exactly equal to the full
(finite) trace, and changes each part only by a constant in z.

At imaginary frequency omega = i xi the trace is real, and every Matsubara
term and position is integrated over k_perp at once (imagfreq_trace_sum).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from .constants import C
from .materials import ConstantR, MirrorSpec, reflection_coefficients, \
    static_limit_reflection
from .quadrature import QuadratureSpec, adaptive_integrate

__all__ = [
    "CavityGeometry", "GreenTraceParts", "transverse_beta",
    "cavity_trace_imagfreq", "cavity_trace_realfreq",
    "single_plate_trace", "single_plate_trace_parts",
    "single_plate_trace_imagfreq", "zero_frequency_trace_limit",
    "imagfreq_trace_sum",
]

# e^{-CUTOFF_DECADES} tail truncation for all evanescent-type integrals.
_CUTOFF = 40.0
# Positions per block of the (nodes x z) products of a batched trace.
_BLOCK = 25
# Bytes per block of the (nodes x terms [x z]) temporaries of a Matsubara sum.
_BLOCK_BYTES = 1 << 17


@dataclass(frozen=True)
class CavityGeometry:
    """Planar cavity of width a with one MirrorSpec used for both walls."""
    width: float
    mirror: MirrorSpec

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("cavity width must be positive")

    def check_position(self, z):
        """(scalar, zs): z, a position or a 1-D array of positions, as a 1-D
        array, and whether it was a scalar.  Raises ValueError unless every
        position lies inside."""
        zs = np.atleast_1d(np.asarray(z, dtype=float))
        if zs.ndim != 1:
            raise ValueError("z must be a position or a 1-D array of "
                             "positions")
        outside = ~(np.abs(zs) < 0.5 * self.width)
        if np.any(outside):
            raise ValueError(f"position z = {zs[outside][0]} outside "
                             f"cavity of width {self.width}")
        return np.ndim(z) == 0, zs

    def decay_lengths(self, zs):
        """(a - 2z, a + 2z) at positions zs: the paths of imagfreq_trace_sum."""
        return np.array([self.width - 2.0 * zs, self.width + 2.0 * zs])


@dataclass
class GreenTraceParts:
    """Propagating and evanescent contributions to Tr G (units 1/m); complex
    numbers, or complex arrays for an array of positions.  rule is set by
    cavity_trace_realfreq (see there)."""
    propagating: Any
    evanescent: Any
    rule: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def total(self) -> complex:
        return self.propagating + self.evanescent


def transverse_beta(omega: complex, k_perp):
    """beta = sqrt(w^2/c^2 - k_perp^2) on the Im beta >= 0 branch."""
    val = np.sqrt((omega / C) ** 2 - np.asarray(k_perp, dtype=complex) ** 2)
    return np.where(val.imag < 0, -val, val)


def _effective_delta(mirror: MirrorSpec, omega: float) -> float:
    """Resonance sharpness |1 - r_p^2|/2 at normal incidence."""
    _, rp0 = reflection_coefficients(mirror, omega, np.array([0.0]))
    return 0.5 * abs(1.0 - complex(rp0[0]) ** 2)


def _resonance_breakpoints(omega: float, a: float, delta_eff: float):
    """Panel edges for the propagating beta integral: one at each multiple
    of pi/a (where D_sigma is smallest) plus geometric refinement when the
    resonance is sharp."""
    wc = omega / C
    points = []
    for m in range(1, int(np.floor(wc * a / np.pi + 1e-9)) + 1):
        bm = min(np.pi * m / a, wc)
        points.append(bm)
        if delta_eff < 0.05:
            off = min(np.sqrt(delta_eff) * wc, 0.02 * wc)
            while off > max(delta_eff * wc / 20.0, 1e-13 * wc):
                points += [bm - off, bm + off]
                off *= 0.5
    return [p for p in points if 0 < p < wc]


def _grazing_coefficient(mirror: MirrorSpec, omega: float, a: float) -> complex:
    """S = lim_{beta->0} beta * F_pr(beta): the residue-like coefficient of
    the 1/beta grazing-incidence singularity of the propagating integrand."""
    if isinstance(mirror, ConstantR):
        return 0.0 + 0.0j
    wc = omega / C

    def s_at(beta0):
        k_perp = np.sqrt(wc**2 - beta0**2)
        rs, rp = reflection_coefficients(mirror, omega, np.array([k_perp]),
                                         beta=np.array([beta0 + 0j]))
        rs, rp = complex(rs[0]), complex(rp[0])
        phase = np.exp(2j * beta0 * a)
        dsum = rs / (1.0 - rs * rs * phase) + rp / (1.0 - rp * rp * phase)
        return beta0 * (-dsum) / (2j * np.pi)

    # S(beta) is analytic at beta = 0; a single Richardson step removes the
    # O(beta0) error, which would otherwise reappear as a weak 1/beta tail
    # in the regularized integrand.
    beta0 = 1e-6 * wc
    return 2.0 * s_at(0.5 * beta0) - s_at(beta0)


def _by_columns(rows, zs, block):
    """(rows, len(zs)) complex array filled block(z_cols, cols) at a time, so
    the (nodes x z) temporaries of one block stay near 1 MB."""
    out = np.empty((rows, len(zs)), dtype=complex)
    for start in range(0, len(zs), _BLOCK):
        cols = slice(start, start + _BLOCK)
        out[:, cols] = block(zs[cols], cols)
    return out


def cavity_trace_realfreq(z, omega: float, cavity: CavityGeometry,
                          spec: QuadratureSpec = QuadratureSpec(),
                          evanescent: bool = True):
    """Tr G at real frequency, split into propagating/evanescent parts.

    z is a position or a 1-D array of positions; for an array, every part
    is an array with one entry per position, each converged to its own
    tolerance.  The z-independent kernel F(beta) of the propagating integral
    int F(beta) cos(2 beta z) d beta (and its evanescent analogue with the
    cosh) is evaluated once per quadrature node for all positions.  With
    evanescent=False only the propagating part is integrated and the
    evanescent field is None.

    The result's rule holds (beta, w F): the nodes and Kronrod weights of
    the propagating integral's final panels times F.  Re sum(w F cos(2 beta
    z)) reproduces Re Tr G_pr(z) at any z up to the z-independent grazing
    subtraction, so derivatives in z need no new reflection evaluations.
    """
    if not omega > 0:
        raise ValueError("cavity_trace_realfreq requires omega > 0")
    scalar, zs = cavity.check_position(z)
    a, mirror = cavity.width, cavity.mirror
    wc = omega / C
    kappa_max = _CUTOFF / (a - 2.0 * np.abs(zs))
    # the grazing subtraction runs over [0, x_c(z)] for each position
    x_c = np.minimum(wc, kappa_max)
    s_coef = _grazing_coefficient(mirror, omega, a)
    kernel = {}

    def f_prop(beta):
        k_perp = np.sqrt(np.maximum(wc**2 - beta**2, 0.0))
        rs, rp = reflection_coefficients(mirror, omega, k_perp,
                                         beta=beta + 0j)
        phase = np.exp(2j * beta * a)
        bracket = (2.0 * (C * beta / omega) ** 2 * rp / (1.0 - rp * rp * phase)
                   - rs / (1.0 - rs * rs * phase)
                   - rp / (1.0 - rp * rp * phase))
        f = bracket * np.exp(1j * beta * a) / (2j * np.pi)
        kernel.update(zip(beta.tolist(), f.tolist()))
        grazing = s_coef * np.exp(-beta * a) / beta
        return _by_columns(len(beta), zs, lambda z_cols, cols: (
            f[:, None] * np.cos(2.0 * np.outer(beta, z_cols))
            - grazing[:, None] * (beta[:, None] <= x_c[cols])))

    # The regularized integrands are finite and slowly varying at grazing
    # incidence, but below ~1e-8 w/c the D_sigma denominators lose all
    # precision; start at a small floor and add the residual's (essentially
    # constant) rectangle contribution for [0, x_lo].
    x_lo = 1e-6 * wc if s_coef != 0 else 0.0

    delta_eff = _effective_delta(mirror, omega)
    bps = _resonance_breakpoints(omega, a, delta_eff)
    bps += [x for x in set(x_c.tolist()) if x < wc]
    bps = [p for p in bps if p > x_lo]
    result = adaptive_integrate(f_prop, x_lo, wc, spec, breakpoints=bps)
    prop = result[0]
    nodes, weights = result.rule()
    rule_f = weights * np.array([kernel[b] for b in nodes.tolist()])
    if x_lo > 0:
        mid = np.array([0.5 * x_lo])
        prop = prop + f_prop(mid)[0] * x_lo
        nodes = np.append(nodes, mid)
        rule_f = np.append(rule_f, kernel[mid[0]] * x_lo)

    evan = None
    if evanescent:
        def f_evan(kappa):
            k_perp = np.sqrt(wc**2 + kappa**2)
            rs, rp = reflection_coefficients(mirror, omega, k_perp,
                                             beta=1j * kappa)
            decay = np.exp(-2.0 * kappa * a)
            bracket = (-2.0 * (C * kappa / omega) ** 2 * rp
                       / (1.0 - rp * rp * decay)
                       - rs / (1.0 - rs * rs * decay)
                       - rp / (1.0 - rp * rp * decay))
            g = -bracket / (4.0 * np.pi)
            grazing = s_coef * np.exp(-kappa * a) / kappa
            return _by_columns(len(kappa), zs, lambda z_cols, cols: (
                g[:, None] * (np.exp(-np.outer(kappa, a - 2.0 * z_cols))
                              + np.exp(-np.outer(kappa, a + 2.0 * z_cols)))
                + grazing[:, None] * (kappa[:, None] <= x_c[cols])))

        # Every position shares the widest cutoff; beyond its own cutoff a
        # position's integrand is below e^-40 of its peak.
        k_hi = kappa_max.max()
        ev_bps = [x for x in set(x_c.tolist()) if x_lo < x < k_hi]
        evan, _ = adaptive_integrate(f_evan, x_lo, k_hi, spec,
                                     breakpoints=ev_bps)
        if x_lo > 0:
            evan = evan + f_evan(np.array([0.5 * x_lo]))[0] * x_lo
        if scalar:
            evan = complex(evan[0])
    if scalar:
        prop = complex(prop[0])
    return GreenTraceParts(propagating=prop, evanescent=evan,
                           rule=(nodes, rule_f))


def imagfreq_trace_sum(lengths, xi, weights, terms, mirror: MirrorSpec,
                       width: Optional[float] = None,
                       spec: QuadratureSpec = QuadratureSpec()):
    """sum_{j < terms[i]} weights[j] xi_j^2 Tr G(i xi_j) at each position i.

    Position i's trace carries sum_p e^{-kappa lengths[p, i]}: (a - 2z,
    a + 2z) in a cavity of width a, (2d,) at distance d from a single plate
    (width None).  xi ascends from xi[0] = 0, the static limit; xi and
    weights hold terms.max() entries.  One vector integral over k_par, with
    kappa_j = sqrt(k_par^2 + xi_j^2/c^2), covers all terms and positions:
    reflection coefficients and bracket are evaluated once per (node, xi_j),
    and the sum over j is done per node.  Position i's range ends where each
    of its terms has decayed by e^-CUTOFF from its value at k_par = 0.
    """
    lengths, xi, weights = (np.asarray(v, dtype=float)
                            for v in (lengths, xi, weights))
    terms = np.asarray(terms)
    q = _CUTOFF / lengths.min(axis=0)
    k_max = np.sqrt(q * (q + 2.0 * xi[terms - 1] / C))
    groups = [(j, np.flatnonzero(terms == j)) for j in np.unique(terms)]
    rows = max(1, _BLOCK_BYTES // (16 * len(xi)))

    def kernel(k):
        """kappa and weights_j (k/kappa_j) bracket_j, both (nodes, terms)."""
        kappa = np.sqrt(k[:, None] ** 2 + (xi / C) ** 2)
        rs, rp = reflection_coefficients(mirror, 1j * xi[1:], k[:, None],
                                         beta=1j * kappa[:, 1:])
        rs0, rp0 = static_limit_reflection(mirror, k)
        rs, rp = np.column_stack((rs0, rs)), np.column_stack((rp0, rp))
        if width is not None:
            decay = np.exp(-2.0 * kappa * width)
            rs = rs / (1.0 - rs * rs * decay)
            rp = rp / (1.0 - rp * rp * decay)
        bracket = xi**2 * (rs + rp) - 2.0 * (C * kappa) ** 2 * rp
        if np.any(np.abs(bracket.imag) > 1e-10 * np.abs(bracket.real)):
            raise ArithmeticError("imaginary-frequency trace acquired a "
                                  "spurious imaginary part")
        return kappa, weights * (k[:, None] / kappa) * bracket.real

    def f(k):
        vals = np.empty((len(k), len(q)))
        for start in range(0, len(k), rows):
            block = slice(start, start + rows)
            kappa, a_kj = kernel(k[block])
            for j, cols in groups:
                step = max(1, _BLOCK_BYTES // (8 * len(kappa) * j))
                for c in range(0, len(cols), step):
                    cc = cols[c:c + step]
                    decay = sum(np.exp(-kappa[:, :j, None] * lp[cc])
                                for lp in lengths)
                    vals[block, cc] = np.einsum("kj,kjc->kc", a_kj[:, :j],
                                                decay)
        return vals

    # Panel edges halve from the widest cutoff down to the narrowest, so
    # every position's decay scale is resolved by the first panels.
    edges = k_max.max() * 0.5 ** np.arange(
        1, 1 + int(np.log2(k_max.max() / k_max.min())))
    val, _ = adaptive_integrate(f, 0.0, k_max.max(), spec,
                                breakpoints=edges.tolist())
    return val / (4.0 * np.pi)


def cavity_trace_imagfreq(z: float, xi: float, cavity: CavityGeometry,
                          spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Tr G at omega = i xi (real-valued); xi > 0."""
    if not xi > 0:
        raise ValueError("cavity_trace_imagfreq requires xi > 0; "
                         "use zero_frequency_trace_limit for xi = 0")
    _, zs = cavity.check_position(z)
    return float(imagfreq_trace_sum(cavity.decay_lengths(zs), [0.0, xi],
                                    [0.0, xi**-2], [2], cavity.mirror,
                                    cavity.width, spec)[0])


def zero_frequency_trace_limit(z: float, cavity: CavityGeometry,
                               spec: QuadratureSpec = QuadratureSpec()) -> float:
    """lim_{xi -> 0} xi^2 * Tr G(i xi): the j = 0 Matsubara ingredient.

    Only the p channel survives, with its static reflection coefficient:
    -(c^2/pi) * int_0^inf dk k^2 r_p(0)/(1 - r_p(0)^2 e^{-2 k a})
    * e^{-k a} cosh(2 k z).  Negative for r_p(0) > 0 (attractive wall term).
    """
    _, zs = cavity.check_position(z)
    return float(imagfreq_trace_sum(cavity.decay_lengths(zs), [0.0], [1.0],
                                    [1], cavity.mirror, cavity.width, spec)[0])


def single_plate_trace_parts(distance: float, omega: float, mirror: MirrorSpec,
                             spec: QuadratureSpec = QuadratureSpec()):
    """Propagating/evanescent parts of the single-plate trace at real omega."""
    if not distance > 0:
        raise ValueError("distance must be positive")
    if not omega > 0:
        raise ValueError("single_plate_trace_parts requires omega > 0")
    wc = omega / C

    def f(beta):
        """Integrand over beta; the evanescent part runs along beta = i kappa."""
        k_perp = np.sqrt(np.maximum((wc**2 - beta**2).real, 0.0))
        rs, rp = reflection_coefficients(mirror, omega, k_perp,
                                         beta=beta + 0j)
        bracket = rs + rp - 2.0 * (C * beta / omega) ** 2 * rp
        return 1j / (4.0 * np.pi) * bracket * np.exp(2j * beta * distance)

    prop, _ = adaptive_integrate(f, 0.0, wc, spec)
    evan, _ = adaptive_integrate(lambda kappa: -1j * f(1j * kappa), 0.0,
                                 _CUTOFF / (2.0 * distance), spec)
    return GreenTraceParts(propagating=complex(prop), evanescent=complex(evan))


def single_plate_trace(distance: float, omega: complex, mirror: MirrorSpec,
                       spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """Single-plate trace; real omega or purely imaginary omega = i xi."""
    omega = complex(omega)
    if omega.real > 0 and omega.imag == 0:
        return single_plate_trace_parts(distance, omega.real, mirror,
                                        spec).total
    if omega.real == 0 and omega.imag > 0:
        return complex(single_plate_trace_imagfreq(distance, omega.imag,
                                                   mirror, spec))
    raise ValueError("omega must be real positive or positive imaginary")


def single_plate_trace_imagfreq(distance: float, xi: float, mirror: MirrorSpec,
                                spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Single-plate trace at omega = i xi (real-valued)."""
    if not (distance > 0 and xi > 0):
        raise ValueError("distance and xi must be positive")
    return float(imagfreq_trace_sum([[2.0 * distance]], [0.0, xi],
                                    [0.0, xi**-2], [2], mirror,
                                    spec=spec)[0])
