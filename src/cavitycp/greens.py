"""Scattering Green-tensor trace for a planar cavity and a single plate.

One bracket serves every trace.  Times omega^2 it reads
B = 2 c^2 beta^2 r_p/D_p - omega^2 sum_sigma r_sigma/D_sigma, with beta on the
Im >= 0 branch and D_sigma = 1 - r_sigma^2 e^{2 i beta a}.  The trace is
int dk_perp (k_perp/beta) B/(4 pi i omega^2) sum_p e^{i beta L_p} over the
paths L = (a - 2z, a + 2z) of a CavityGeometry and L = (2d,) at distance d
from a PlateGeometry.  Every function batches over either's positions and
runs one path for both: the geometry supplies D_sigma's round trip
(e^{2 i beta a} in a cavity, 0 at a plate, so that D_sigma = 1 exactly), the
paths, its fold of the positions (each distinct |z| once in a cavity, the
identity at a plate), their span and its resonance seed (the grazing
coefficient S and a 2^k ladder toward w/c for the tuned mode, from 1/8 of its
pole's depth, and the [0, x_lo] rectangles' kernels, all from one reflection
call, or the mirror's closed-form tuned pole, subtracted, from none; 0, none
and no call at a plate).  The propagating part runs on an arch above the real
beta axis, which passes every pole of 1/D_sigma, so no mode needs locating.
Every trace integral starts on panels that resolve its known scales: that
ladder, uniform edges along the arch, geometric lattices (quadrature._ladder)
at the grazing end, from the mirror's grazing scale, and over the decay of
e^{-kappa L} in the evanescent and Matsubara integrals, and in a gold cavity
edges about the grazing TM pole of 1/D_p(i kappa), at kappa_p = sqrt(2
|kappa_0|/a), kappa_0 = (w/c)/sqrt(-eps) (_grazing_pole).  A scan's
propagating part runs at Chebyshev nodes in z over the span when they are
fewer than its positions.  Its columns (positions or nodes) meet rel_tol of
the largest, an interpolated position Lambda_K <= 1 + (2/pi) ln K times it.
Path phases e^{i beta L} come from float64 exp and tan(Re beta L/2) to 8 eps
(_paths), as real sums that each panel meets with its rules times the kernel
(_factored: a real-frequency integrand returns a function of the rules).

At real frequency the integral splits into a propagating part (beta real,
k_perp < w/c) and an evanescent part (beta = i kappa, k_perp > w/c).  In a
cavity of frequency-dependent mirrors both parts are individually
log-divergent at grazing incidence (r_sigma -> -1, D_sigma -> 0 as beta -> 0);
the divergent piece is position-independent and cancels between the two
parts.  Following the convention of dropping position-independent terms, each
part subtracts the same singular term S e^{-x a}/x over x <= w/c, which
leaves every emitted quantity finite, keeps the two parts' sum equal to the
full (finite) trace up to the e^-CUTOFF truncation, and changes each part by
a constant in z exactly.

At imaginary frequency omega = i xi, beta = i kappa, the bracket is real and
evaluated in float64; the static term xi = 0 takes the static reflection
coefficients.  imagfreq_trace_sum integrates every Matsubara term, its
Euler-Maclaurin tail and every position at once.  Every trace integrates
once per fold rep, and maps values and errors back to positions (_unfolded).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any

import numpy as np

from .constants import C, Record
from .materials import MirrorSpec, reflection_coefficients, \
    static_limit_reflection
from .quadrature import _ROUNDING, QuadratureError, QuadratureSpec, \
    _ladder, adaptive_integrate

__all__ = [
    "CavityGeometry", "PlateGeometry", "GreenTraceParts",
    "cavity_trace_imagfreq", "cavity_trace_realfreq",
    "zero_frequency_trace_limit", "imagfreq_trace_sum",
]

# e^{-CUTOFF_DECADES} tail truncation for all evanescent-type integrals.
_CUTOFF = 40.0
# Height of the propagating integral's arch above the real beta axis, in
# units of w/c (see _realfreq_trace).
_ARCH = 0.3
# Largest phase x_lo L that the [0, x_lo] rectangle of the real-frequency
# trace may take as constant: at 1/4 rad (a 13.4 m cavity at LiH) its
# z-differences stay within 1e-11 of the contour reference's, at 1/2 within
# 1e-9 only.
_MAX_RECTANGLE_PHASE = 0.25
# Floor of the exponents -kappa L of evanescent paths and -xi L/c of Matsubara
# shifts.  e^-600 is far below every column's e^-CUTOFF tail, keeps kernel
# products normal (not subnormal), and spares np.exp its underflows: ~180 ns
# per argument in (-745, -708) and 6-20 ns below, against ~1 ns per normal one.
_EXP_FLOOR = -600.0
_GRAZING_STEP = 1e-6  # x_lo c/w, also resonance_seed's Richardson step
# Bytes per block of the temporaries of a batched trace or Matsubara sum.
_BLOCK_BYTES = 1 << 17


class CavityGeometry(Record):
    """Planar cavity of width a with one MirrorSpec used for both walls."""
    width: float
    mirror: MirrorSpec

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("cavity width must be positive")

    def check_position(self, z):
        """(scalar, zs): z, a position or a 1-D array of them, as a 1-D array
        and whether it was a scalar; ValueError unless all lie inside."""
        return _positions(z, self, f"outside cavity of width {self.width}")

    def decay_lengths(self, zs):
        """(a - 2z, a + 2z) at positions zs: the paths L_p."""
        return np.array([self.width - 2.0 * zs, self.width + 2.0 * zs])

    def round_trip(self, kappa):
        """e^{-2 kappa a}, i.e. D_sigma's e^{2 i beta a} at beta = i kappa."""
        return np.exp(-2.0 * kappa * self.width)

    def fold(self, zs):
        """(reps, index): each distinct |z| of zs once, at the sign of its
        first occurrence, and reps[index] = zs up to sign.  Exact for one
        mirror on both walls: the paths a -+ 2z swap under z -> -z, so +-z
        get equal entries bit for bit."""
        _, first, index = np.unique(np.abs(zs), return_index=True,
                                    return_inverse=True)
        return zs[first], index

    def span(self, zs):
        """(0, max|z|), centre and half-width: the fold halves its nodes."""
        return 0.0, np.abs(zs).max()

    def resonance_seed(self, omega, evanescent):
        """(S, edges, pole, K) of a real-frequency trace at omega: (0, [],
        the mirror's tuned_pole, None) if it answers one.  Else, from one
        reflection call, edges w/c - x_0 2^k up to w/c - w/2c toward the tuned
        pole d = -ln max_sigma |r_sigma(w/c)| / a below w/c, x_0 = max(1e-9
        w/c, d/8) (none if r = 0), and with a grazing scale S = lim_{beta->0}
        2 beta K, the integrand's 1/beta term, from 2 beta K at x_lo (1/4,
        1/2, 1), x_lo = _GRAZING_STEP w/c (two Richardson steps cancel its
        O(x_lo) and O(x_lo^2) errors, 1e-7 for gold at 1e-5 w/c), and K at
        the [0, x_lo] rectangles' nodes x_lo/2 and, for an evanescent part,
        i x_lo/2 (without a grazing scale, 0 and None)."""
        wc, a = omega / C, self.width
        pole = self.mirror.tuned_pole(omega, a)
        if pole is not None:
            return 0.0, [], pole, None
        steps = [] if self.mirror.grazing_scale(omega) is None \
            else [0.25, 0.5, 1.0, 0.5j][:3 + evanescent]
        beta = np.array([wc, *(_GRAZING_STEP * wc * np.array(steps))])
        rs, rp = reflection_coefficients(self.mirror, omega, beta=beta)
        r = max(abs(rs[0]), abs(rp[0]))
        x_0 = max(1e-9 * wc, -np.log(r) / (8.0 * a)) if r else wc
        k = _kernel(beta[1:], omega, self, (rs[1:], rp[1:]))
        s = 2.0 * beta[1:4] * k[:3] @ (8.0, -6.0, 1.0) / 3.0 if steps else 0.0
        return complex(s), _ladder(wc, -x_0, -0.5 * wc, 2.0).tolist(), None, \
            k[1::2] if steps else None

    def first_panel_end(self, lengths):
        """End of a Matsubara sum's halving edges: 2/l, l = 2a + 4 sum d the
        longest round trip, sum d the mirror's depth, or D_sigma ~ 1 - r0^2
        e^{-s l}'s real zero |ln r0^2|/l if nearer, 0 < r0 = max_sigma
        |r_sigma(0)| < 1 (a stack's r_sigma(s) grows for s < 0)."""
        r0 = np.abs(static_limit_reflection(self.mirror, 0.0)).max()
        return (min(2.0, -2.0 * np.log(r0)) if 0 < r0 < 1 else 2.0) \
            / (2.0 * self.width + 4.0 * self.mirror.depth)


class PlateGeometry(Record):
    """A single plate; its positions are distances d > 0 from it."""
    mirror: MirrorSpec

    def check_position(self, d):
        """As CavityGeometry.check_position, for distances d > 0."""
        return _positions(d, self, "is not a positive distance")

    def decay_lengths(self, ds):
        """(2d,) at distances ds: the one path L_p."""
        return np.array([2.0 * ds])

    def round_trip(self, kappa):
        """0: no second wall, so D_sigma = 1."""
        return 0.0

    def fold(self, ds):
        """(ds, all of them): a plate's distances are their own reps."""
        return ds, slice(None)

    def span(self, ds):
        """Centre and half-width of [min d, max d]."""
        return 0.5 * (ds.max() + ds.min()), 0.5 * (ds.max() - ds.min())

    def resonance_seed(self, omega, evanescent):
        """(0, [], None, None): D_sigma = 1 has no resonance and no 1/beta
        term, so the trace takes no [0, x_lo] rectangle."""
        return 0.0, [], None, None

    def first_panel_end(self, lengths):
        """2/l, l = max L_p + 2 sum d: r_sigma carries e^{-2 s sum d}."""
        return 2.0 / (lengths.max() + 2.0 * self.mirror.depth)


def _positions(z, geometry, what):
    """(scalar, zs) of z; ValueError unless z is 0-/1-D and each gap min_p L_p
    is positive and leaves (CUTOFF c/gap)^3, the Matsubara scale, finite."""
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    if zs.ndim != 1 or zs.size == 0:
        raise ValueError("z must be a position or a nonempty 1-D array of "
                         f"positions, got shape {zs.shape}")
    gap = geometry.decay_lengths(zs).min(axis=0)
    bad = ~(gap > 0)
    if np.any(bad):
        raise ValueError(f"position z = {zs[bad][0]} {what}")
    if not gap.min() * np.cbrt(np.finfo(float).max) > _CUTOFF * C:
        raise ValueError(f"the gap {gap.min():.3g} m (a - 2|z| or 2d) is too "
                         f"small: ({_CUTOFF:g} c/gap)^3 overflows")
    return np.ndim(z) == 0, zs


@contextmanager
def _unfolded(index, interp=None):
    """Re-raise a QuadratureError at the caller's rows, via interp if given,
    with the integral's own worst error/tolerance."""
    try:
        yield
    except QuadratureError as err:
        if np.ndim(err.estimate) == 0:
            raise  # a nested integral's, on its worst node already
        parts = err.estimate, err.error, err.tolerance
        if interp is not None:
            parts = interp @ parts[0], *(abs(interp) @ p for p in parts[1:])
        raise QuadratureError(*(p[index] for p in parts), err.splits,
                              err.error_ratio) from err


class GreenTraceParts(Record):
    """Propagating and evanescent contributions to Tr G (units 1/m); complex
    numbers, or complex arrays for an array of positions."""
    propagating: Any
    evanescent: Any

    @property
    def total(self) -> complex:
        return self.propagating + self.evanescent


def _bracket(rs, rp, omega2, beta2, phase):
    """B = 2 c^2 beta^2 r_p/D_p - omega^2 (r_s/D_s + r_p/D_p) from omega^2 and
    beta^2, with D_sigma = 1 - r_sigma^2 phase, phase a round_trip."""
    rs = rs / (1.0 - rs * rs * phase)
    rp = rp / (1.0 - rp * rp * phase)
    return 2.0 * C**2 * beta2 * rp - omega2 * (rs + rp)


def _kernel(beta, omega: float, geometry, r=None):
    """K = B / (4 pi i omega^2) at real omega along complex beta: beta real
    for propagating waves, beta = i kappa for evanescent ones; r: (r_s, r_p)
    at beta, if already evaluated."""
    rs, rp = reflection_coefficients(geometry.mirror, omega, beta=beta) \
        if r is None else r
    return _bracket(rs, rp, omega**2, beta * beta,
                    geometry.round_trip(-1j * beta)) / (4j * np.pi * omega**2)


def _grazing_pole(width, wc, lattice):
    """kappa_p = sqrt(8 x_0/a), x_0 = lattice[0], if 8 kappa_p < w/c, else
    None.  For |kappa_0| << kappa << 1/a, kappa_0 = (w/c)/sqrt(-eps) (so
    |kappa_0| = 4 x_0 above the lattice's floor), r_p(i kappa) ~
    1 - 2 kappa_0/kappa, and the grazing TM pole of 1/D_p(i kappa),
    D_p ~ 4 kappa_0/kappa + 2 kappa a, lies at |kappa| ~ kappa_p =
    sqrt(2 |kappa_0|/a).  A metal puts it well below the light line, on a
    scale that no other edge resolves; a dielectric stack's lies at
    ~0.3 w/c, where kappa_0 a >~ 1 and the lattices resolve it."""
    pole = np.sqrt(8.0 * lattice[0] / width)
    return pole if 8.0 * pole < wc else None


def _cos_sin(theta):
    """(cos, sin) theta = (1 - t^2, 2 t)/(1 + t^2), t = tan(theta/2), to
    4 eps absolute: numpy vectorises float64 tan, not cos, sin, complex exp."""
    t = np.tan(0.5 * theta)
    t2 = t * t
    r = 1.0 / (1.0 + t2)
    t *= 2.0 * r
    return (1.0 - t2) * r, t


def _chebyshev(k, centre, half):
    """(x, D): k first-kind Chebyshev points x = centre + half cos(theta_j),
    theta_j = (j + 1/2) pi/k, at exact negatives about the centre, and D
    with D @ p(x) = c, p = sum_n c_n T_n((z - centre)/half) of degree < k:
    c_n = (2/k) sum_j p(x_j) cos(n theta_j), c_0 halved."""
    theta = (np.arange(k) + 0.5) * np.pi / k
    x = np.cos(theta[:k // 2])
    x = centre + half * np.concatenate((x, [0.0] * (k % 2), -x[::-1]))
    d = 2.0 / k * _cos_sin(np.outer(np.arange(k), theta))[0]
    d[0] *= 0.5
    return x, d


def _chebyshev_count(m):
    """ceil(M + 12 M^(1/3)) + 2 points resolve bandwidth M to rounding."""
    return int(np.ceil(m + 12.0 * np.cbrt(m))) + 2


def _z_interpolation(zs, wc, geometry):
    """(cols, R): the propagating columns for the fold reps zs, and R with
    R @ value(cols) = value(zs); or (zs, None).  Band-limited as beta <= w/c,
    the integrand is interpolated to rounding on geometry.span(zs) by
    _chebyshev_count(M) points, M = w/c times the span.  They are the
    columns if the fold (at most halving) leaves fewer.  R evaluates their
    series sum_n c_n T_n at zs as cos(n theta), theta = arccos of zs mapped
    to [-1, 1], clipped there: a plate's d_min can map to -1 - 2^-52."""
    centre, half = geometry.span(zs)
    k = _chebyshev_count(2 * half * wc)
    if (k + 1) // 2 >= len(zs):
        return zs, None
    x, coefficients = _chebyshev(k, centre, half)
    cols, index = geometry.fold(x)
    if len(cols) >= len(zs):
        return zs, None
    theta = np.arccos(np.clip((zs - centre) / half, -1.0, 1.0))
    return cols, _cos_sin(np.outer(theta, np.arange(k)))[0] @ coefficients \
        @ np.eye(len(cols))[index]


def _propagating_series(cavity, omega, half, spec: QuadratureSpec):
    """c with Tr G_pr(z) = sum_n c_n T_n(z/half) on +-half, to rounding: one
    propagating trace at the _chebyshev_count points that a scan over
    +-half integrates (after the fold, its own columns), through
    _chebyshev's D.  half < a/2 and omega > 0 are the caller's to check."""
    points, coefficients = _chebyshev(
        _chebyshev_count(2.0 * half * omega / C), 0.0, half)
    return coefficients @ _realfreq_trace(points, omega, cavity, spec,
                                          False)[0]


def _check_paths(longest, wc, x_lo, spec: QuadratureSpec):
    """ValueError unless e^{i beta L} is resolved on the longest path L:
    its phase, rounded to eps (w/c) L, within rel_tol (or the integrator's
    rounding floor 50 eps), and its change x_lo L across the [0, x_lo]
    rectangle, which takes it as constant, at most _MAX_RECTANGLE_PHASE."""
    eps = np.finfo(float).eps
    limit = min(max(spec.rel_tol, _ROUNDING) / (eps * wc),
                _MAX_RECTANGLE_PHASE / x_lo if x_lo else np.inf)
    if not longest <= limit:
        raise ValueError(f"a path of {longest:.3g} m (a + 2|z| in a cavity, "
                         f"2d at a plate) exceeds the {limit:.3g} m the "
                         f"real-frequency trace resolves at w/c = "
                         f"{wc:.6g} 1/m")


def _arch(t, wc, x_lo):
    """(beta, dbeta/dt) at t: beta = t + i h wc sin(pi (t - x_lo)/(wc - x_lo))
    over [x_lo, wc], h = _ARCH."""
    rise = np.pi / (wc - x_lo)
    angle = rise * (t - x_lo)
    return t + 1j * _ARCH * wc * np.sin(angle), \
        1.0 + 1j * _ARCH * wc * rise * np.cos(angle)


def _paths(x, zs, geometry):
    """sum_p e^{x L_p} per (node, position) over the geometry's decay_lengths
    at zs, as real parts (parts, nodes, positions), filled by blocks of
    positions whose temporaries fit _BLOCK_BYTES: e^{x L} (x L floored at
    _EXP_FLOOR) for a real x = -kappa, or for x = i beta, its real and
    imaginary parts e^{Re x L} _cos_sin(Im x L), to 8 eps of |e^{x L}|."""
    lengths = geometry.decay_lengths(zs)
    b = np.zeros((1 + np.iscomplexobj(x), len(x), len(zs)))
    step = max(1, _BLOCK_BYTES // (16 * len(x)))
    for cols in (slice(k, k + step) for k in range(0, len(zs), step)):
        for lp in lengths[:, cols]:
            if len(b) == 1:
                b[0, :, cols] += np.exp(np.maximum(np.outer(x, lp),
                                                   _EXP_FLOOR))
            else:
                mag = np.exp(x.real[:, None] * lp)
                cos, sin = _cos_sin(x.imag[:, None] * lp)
                b[0, :, cols] += mag * cos
                b[1, :, cols] += mag * sin
    return b


def _factored(g, b, c, d):
    """The integrand value g b + c d per (node, column) as a function of
    rules (k, q), which returns their (panels, k, column) sums over q-node
    panels: (rules g) meets b, _paths' real sums, in real products, and
    (rules c) d is added (c None: no such term).  It runs once per value."""
    def sums(rules):
        nonlocal b
        k, q = rules.shape
        w = rules * g.reshape(-1, 1, q)
        p = np.concatenate((w.real, w.imag), axis=1) \
            @ b.reshape(len(b), len(w), q, -1)
        del b  # the path sums go before the rule sums are combined
        re, im = p[0, :, :k], p[0, :, k:]
        if len(p) == 2:
            re, im = re - p[1, :, k:], im + p[1, :, :k]
        out = np.empty(re.shape, complex)
        out.real, out.imag = re, im
        if c is not None:
            out += (c.reshape(-1, q) @ rules.T)[..., None] * d
        return out
    return sums


def _realfreq_trace(zs, omega: float, geometry, spec: QuadratureSpec,
                    evanescent):
    """(propagating, evanescent): cavity_trace_realfreq's parts at the array
    zs (evanescent None unless asked for), evaluated once per geometry.fold
    rep, the propagating one at _z_interpolation's columns, each within
    rel_tol of the largest.  Both subtract S e^{-x a}/x below w/c, which
    moves each by a constant in z exactly.  Each integrand returns
    _factored(K times its weight, _paths, that term), and the [0, x_lo]
    rectangle calls that function with a one-node rule, on the kernel that
    the resonance seed's one reflection call evaluated at its node.

    The propagating integral over real beta in [x_lo, w/c] runs on the arch
    beta(t) = t + i h (w/c) sin(pi (t - x_lo)/(w/c - x_lo)), h = _ARCH, which
    passes no pole of 1/D_sigma (they lie below the real axis, |r_sigma| < 1)
    and on which the paths decay as e^{-L Im beta}.  A tuned pole beta_p's
    term g_j/(beta - beta_p), g_j = k_p sum_p e^{i beta_p L_p(z_j)}, replaces
    S in column j and is integrated as a log.
    """
    zs, index = geometry.fold(zs)
    wc = omega / C
    cols, interp = _z_interpolation(zs, wc, geometry)
    s_coef, bps, tuned, rectangle = geometry.resonance_seed(omega, evanescent)
    residues = tuned[1] * np.dot((1.0, 1j), _paths(
        np.array([1j * tuned[0]]), cols, geometry)[:, 0]) if tuned else 1.0
    # The regularized integrands are finite and slowly varying at grazing
    # incidence, but below ~1e-8 w/c the D_sigma denominators lose all
    # precision; start at a small floor and add the residual's (essentially
    # constant) rectangle contribution for [0, x_lo].
    x_lo = _GRAZING_STEP * wc if s_coef != 0 else 0.0
    longest = geometry.decay_lengths(zs).max()
    _check_paths(longest, wc, x_lo, spec)
    # The arch's uniform panels: 8, or with a tuned pole subtracted, which
    # leaves no other edge on it, one per half turn of e^{i beta L} on the
    # longest path, up to 32: its damping e^{-h pi (t - x_lo) L} near the
    # arch's ends leaves ~2 CUTOFF/(h pi^2) = 27 half turns above e^-CUTOFF.
    uniform = min(max(8, np.ceil(wc * longest / np.pi)), 32) if tuned else 8
    x_0 = geometry.mirror.grazing_scale(omega)  # edges 4^k x_0 up to w/c
    lattice = [] if x_0 is None else _ladder(0.0, x_0, wc, 4.0).tolist()
    # A cavity's grazing TM pole, if well below w/c, and on the arch the
    # lattice's midpoints within 4x of it, if 4 kappa_p < w/8c.
    pole = _grazing_pole(geometry.width, wc, lattice) if s_coef else None
    mids = [2.0 * x for x in lattice
            if 0.25 * pole <= 2.0 * x <= 4.0 * pole < wc / 8.0] if pole else []

    def grazing(x):
        """S e^{-x a}/x, e^{-x a} = round_trip(x/2), for real or complex x."""
        return s_coef * geometry.round_trip(0.5 * x) / x

    def columns(beta, weight, k=None):
        """weight (K sum_p e^{i beta L_p} - S e^{-beta a}/beta - g/(beta -
        beta_p)) at beta, factored, K given as k if known; at most one of S,
        beta_p is set."""
        shift = -weight / (beta - tuned[0]) if tuned else \
            -grazing(beta) * weight if s_coef else None
        k = _kernel(beta, omega, geometry) if k is None else k
        return _factored(k * weight, _paths(1j * beta, cols, geometry), shift,
                         residues)

    with _unfolded(index, interp):
        prop, _ = adaptive_integrate(
            lambda t: columns(*_arch(t, wc, x_lo)), x_lo, wc, spec,
            breakpoints=bps + lattice + mids
            + (np.arange(1, uniform) * wc / uniform).tolist(),
            relative_to_max=True)
    if x_lo > 0:
        mid = np.array([0.5 * x_lo])  # the rectangle's node
        prop = prop + columns(mid, x_lo, rectangle[:1])(np.ones((1, 1)))[0, 0]
    if tuned:  # the arch and [x_lo, w/c] lie above beta_p: principal logs
        prop = prop + residues * np.log((wc - tuned[0]) / (x_lo - tuned[0]))

    evan = None
    if evanescent:
        def f_evan(kappa, k=None):
            shift = grazing(kappa) * (kappa <= wc) if s_coef else None
            k = _kernel(1j * kappa, omega, geometry) if k is None else k
            return _factored(-1j * k, _paths(-kappa, zs, geometry), shift, 1.0)

        # Every position shares the widest cutoff; beyond its own cutoff a
        # position's integrand is below e^-40 of its peak.  Edges (w/c) 2^k
        # from the light line resolve each decay; kappa_p 2^(k/2), k = -2..2,
        # and kappa_p 2^k below w/c resolve the grazing pole.
        kappa_max = _CUTOFF / geometry.decay_lengths(zs).min()
        edges = lattice + _ladder(0.0, wc, kappa_max, 2.0).tolist()
        if pole:
            edges += (pole * 2.0 ** np.arange(-1.0, 1.5, 0.5)).tolist() \
                + _ladder(0.0, 4.0 * pole, wc, 2.0).tolist()
        with _unfolded(index):
            evan, _ = adaptive_integrate(f_evan, x_lo, kappa_max, spec,
                                         breakpoints=edges)
        if x_lo > 0:
            evan = evan + x_lo * f_evan(mid, rectangle[1:])(
                np.ones((1, 1)))[0, 0]
        evan = evan[index]
    prop = prop if interp is None else interp @ prop
    return prop[index], evan


def cavity_trace_realfreq(z, omega: float, cavity,
                          spec: QuadratureSpec = QuadratureSpec()):
    """Tr G at real frequency, split into propagating/evanescent parts.

    cavity is a CavityGeometry or a PlateGeometry (z is then a distance).
    z is a position or a 1-D array of positions; for an array, every part
    is an array with one entry per position, the evanescent one converged
    to rel_tol of its value, the propagating one of the largest; in a cavity
    each distinct |z| is evaluated once, so +-z get equal entries.  The
    z-independent part of either integrand is evaluated once per node.
    """
    if not 0 < omega < np.inf:
        raise ValueError(f"omega must lie in (0, inf), got {omega}")
    scalar, zs = cavity.check_position(z)
    parts = _realfreq_trace(zs, omega, cavity, spec, True)
    return GreenTraceParts(*(complex(p[0]) if scalar else p for p in parts))


def imagfreq_trace_sum(geometry, zs, xi, weights,
                       spec: QuadratureSpec = QuadratureSpec(), tail=None):
    """sum_j weights[j] xi_j^2 Tr G(i xi_j) at each position of the array zs
    of a CavityGeometry or PlateGeometry, whose trace carries
    sum_p e^{-kappa L_p} over the geometry's decay_lengths, once per
    geometry.fold rep (+-z equal bit for bit).  zs must pass check_position,
    and each xi_j must be finite and >= 0, else ValueError.
    xi[0] = 0 is the static limit.  weights holds one weight per term, and
    one more for the tail term if tail is given.

    One vector integral over s = kappa_j - xi_j/c >= 0, the same variable for
    every term (k_par = sqrt(s (s + 2 xi_j/c)), and dk_par k_par/kappa_j =
    ds), covers all terms and reps: reflection coefficients and bracket
    are evaluated once per (node, xi_j).  e^{-kappa_j L} factors into
    e^{-s L} per (node, position) and e^{-xi_j L/c} per (term, position),
    each exponent floored at _EXP_FLOOR, so the sum over j is one matrix
    product per path.  A position's range ends at s = CUTOFF / min_p L_p,
    where each of its terms has decayed by e^-CUTOFF.  Panel edges halve
    from the widest cutoff down to geometry.first_panel_end(lengths).

    tail = alpha adds weights[-1] int_{xi_m}^inf alpha(i xi) xi^2 Tr G(i xi)
    dxi, xi_m = xi[-1] > 0: swapping the integrals makes it one more term
    at xi_m, whose bracket H(s) = int alpha B(s + xi_m/c, xi) dxi over
    [xi_m, xi_m + c s] is the same at every position.  Each integrand call
    integrates H at all its nodes over u in [0, 1], xi = xi_m (1 +
    c s/xi_m)^u, each to rel_tol of the largest, or fails on its worst one.
    """
    zs, index = geometry.fold(geometry.check_position(zs)[1])
    lengths = geometry.decay_lengths(zs)
    xi = np.asarray(xi, dtype=float)
    bad = ~((xi >= 0) & (xi < np.inf))
    if bad.any():
        raise ValueError(f"xi = {xi[bad][0]} must be finite and >= 0")
    static = int(xi[0] == 0.0)
    q = _CUTOFF / lengths.min(axis=0)
    terms = np.append(xi, xi[-1]) if tail else xi
    weights = np.asarray(weights, dtype=float)[:, None]
    shifts = [weights * np.exp(np.maximum(-np.outer(terms / C, lp),
                                          _EXP_FLOOR)) for lp in lengths]
    rows = max(1, _BLOCK_BYTES // (16 * len(xi)))
    trips = geometry.round_trip(xi / C)

    def kernel(s):
        """bracket_j at kappa_j = s + xi_j/c, (nodes, terms), in float64,
        with e^{-2 kappa_j a} = e^{-2 s a} e^{-2 xi_j a/c}."""
        kappa = s[:, None] + xi / C
        rs, rp = np.empty((2, *kappa.shape))
        if static:
            rs[:, 0], rp[:, 0] = static_limit_reflection(geometry.mirror, s)
        if len(xi) > static:
            rs[:, static:], rp[:, static:] = geometry.mirror.imaginary_axis(
                xi[static:], kappa[:, static:])
        return _bracket(rs, rp, -xi**2, -kappa**2,
                        geometry.round_trip(s[:, None]) * trips)

    def tail_bracket(s):
        """H at the nodes s; dxi = xi ln(1 + c s/xi_m) du."""
        kappa, log = s + xi[-1] / C, np.log1p(C * s / xi[-1])
        phase = geometry.round_trip(kappa)

        def g(u):
            x = xi[-1] * np.exp(np.outer(u, log))
            rs, rp = geometry.mirror.imaginary_axis(x, kappa)
            return tail(x) * x * log * _bracket(rs, rp, -x**2, -kappa**2,
                                                 phase)

        try:
            return adaptive_integrate(g, 0.0, 1.0, spec, breakpoints=[0.5],
                                      relative_to_max=True)[0]
        except QuadratureError as err:  # its components are nodes, not rows
            parts = np.array([err.estimate, err.error, err.tolerance])
            raise QuadratureError(*parts[:, np.argmax(parts[1] / parts[2])],
                                  err.splits) from err

    def f(s):
        h = tail_bracket(s) if tail else None
        vals = np.empty((len(s), len(q)))
        for start in range(0, len(s), rows):
            block = slice(start, start + rows)
            bracket = kernel(s[block]) if h is None else np.column_stack(
                (kernel(s[block]), h[block]))
            vals[block] = sum((bracket @ m) * np.exp(np.maximum(
                -np.outer(s[block], lp), _EXP_FLOOR))
                for m, lp in zip(shifts, lengths))
        return vals

    with _unfolded(index):
        val, _ = adaptive_integrate(f, 0.0, q.max(), spec, breakpoints=_ladder(
            0.0, 0.5 * q.max(), geometry.first_panel_end(lengths), 0.5))
    return val[index] / (4.0 * np.pi)


def cavity_trace_imagfreq(z, xi: float, cavity,
                          spec: QuadratureSpec = QuadratureSpec()):
    """Tr G at omega = i xi (real-valued), xi > 0; cavity or plate.  z is a
    position (float out) or a 1-D array of them (array out).  Where Tr G ~
    1/xi^2 overflows a float, ArithmeticError."""
    if not 0 < xi < np.inf:
        raise ValueError(f"cavity_trace_imagfreq requires 0 < xi < inf, got "
                         f"{xi}; use zero_frequency_trace_limit for xi = 0")
    tr = imagfreq_trace_sum(cavity, z, [xi], [1.0], spec)  # xi^2 Tr G
    with np.errstate(over="ignore"):
        tr = tr / xi / xi
    if not np.isfinite(tr).all():
        raise ArithmeticError(f"Tr G at xi = {xi} overflows a float; use "
                              "zero_frequency_trace_limit, xi^2 Tr G at 0")
    return float(tr[0]) if np.ndim(z) == 0 else tr


def zero_frequency_trace_limit(z, cavity,
                               spec: QuadratureSpec = QuadratureSpec()):
    """lim_{xi -> 0} xi^2 * Tr G(i xi) (cavity or plate): the j = 0 term.
    z is a position (float out) or a 1-D array of them (array out).

    Only the p channel survives, with its static reflection coefficient:
    -(c^2/pi) * int_0^inf dk k^2 r_p(0)/(1 - r_p(0)^2 e^{-2 k a})
    * e^{-k a} cosh(2 k z).  Negative for r_p(0) > 0 (attractive wall term).
    """
    tr = imagfreq_trace_sum(cavity, z, [0.0], [1.0], spec)
    return float(tr[0]) if np.ndim(z) == 0 else tr
