"""Permittivity models and wall reflection coefficients.

A permittivity model answers eps(omega) and holds eps_static = eps(0).  A
`Stack` (one layer: `HalfSpace(model)`) and the ideal `ConstantR` (r_p = -r_s
= r) each answer reflection at real omega, on the imaginary axis and at
omega -> 0 (the j = 0 Matsubara term), a grazing scale and a tuned pole;
`reflection_coefficients` and `static_limit_reflection` are the public
entries.  A Stack numbers its media once, when built, and runs the
back-to-front (Abeles) recursion over them.  Square roots (beta, beta_j,
sqrt(eps)) take Im >= 0, and the positive root of a positive real radicand.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .constants import C, Record

__all__ = [
    "Drude", "ConstantLossy", "Vacuum", "PermittivityModel",
    "Layer", "HalfSpace", "Stack", "ConstantR", "MirrorSpec",
    "quarter_wave_stack", "static_limit_reflection",
    "reflection_coefficients", "sqrt_upper", "transverse_wavenumber",
]


class Drude(Record):
    """Metal permittivity eps = 1 - wp^2 / (w (w + i gamma))."""
    plasma_frequency: float  # rad/s
    damping: float           # rad/s
    eps_static = np.inf  # eps(0): a perfect static reflector (not a field)

    def __post_init__(self):
        if not (0 < self.plasma_frequency < np.inf
                and 0 < self.damping < np.inf):
            raise ValueError("Drude requires finite positive plasma "
                             "frequency and damping")

    def eps(self, omega):
        """eps(omega) on the real or positive imaginary axis, or an array."""
        if np.count_nonzero(omega) < np.size(omega):
            raise ValueError("Drude permittivity diverges at omega = 0; "
                             "use static_limit_reflection")
        return 1.0 - self.plasma_frequency**2 / (
            omega * (omega + 1j * self.damping))


class ConstantLossy(Record):
    """Frequency-independent permittivity eps_real + i eps_imag.

    On the imaginary axis (omega = i xi) the model is continued as the real
    constant eps_real: a lossless, dispersion-free approximation, since a
    constant complex eps has no causal continuation.  It affects only the
    Matsubara (non-resonant) sums, and drops a relative eps_imag/eps_real.
    A passive medium has eps(i xi) >= 1, so eps_real must be.
    """
    eps_real: float
    eps_imag: float = 0.0

    def __post_init__(self):
        if not (1 <= self.eps_real < np.inf and 0 <= self.eps_imag < np.inf):
            raise ValueError("ConstantLossy requires finite eps_real >= 1 "
                             "and eps_imag >= 0 (passivity)")
        object.__setattr__(self, "eps_static", self.eps_real)  # eps(0)

    def eps(self, omega):
        lossy = (omega.real != 0) | (omega.imag <= 0)
        return self.eps_real + 1j * self.eps_imag * lossy


class Vacuum(Record):
    eps_static = 1.0  # eps(0) (not a field)

    def eps(self, omega):
        return 1.0 + 0.0j


PermittivityModel = Union[Drude, ConstantLossy, Vacuum]


class Layer(Record):
    """One slab of a stack; thickness None marks the semi-infinite terminator."""
    material: PermittivityModel
    thickness: Union[float, None]

    def __post_init__(self):
        if self.thickness is not None and not 0 < self.thickness < np.inf:
            raise ValueError("layer thickness must be positive and finite")


class Stack(Record):
    """Vacuum | layers[0] | ... | layers[-1], the last layer semi-infinite.

    Numbered once: materials holds the distinct materials in order of
    appearance, and media[i + 1] = j says layers[i] is of materials[j - 1];
    media[0] = 0 is the vacuum in front; depth sums the finite thicknesses.
    Equality, hash and repr use layers.
    """
    layers: Tuple[Layer, ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("Stack requires at least one layer")
        if self.layers[-1].thickness is not None:
            raise ValueError("final stack layer must be semi-infinite")
        if any(l.thickness is None for l in self.layers[:-1]):
            raise ValueError("only the final layer may be semi-infinite")
        number = {}  # material -> medium number
        media = [number.setdefault(l.material, len(number) + 1)
                 for l in self.layers]
        object.__setattr__(self, "materials", tuple(number))
        object.__setattr__(self, "media", (0, *media))
        object.__setattr__(self, "depth",
                           sum(l.thickness for l in self.layers[:-1]))

    def reflection(self, omega, beta):
        """reflection_coefficients(self, omega, beta=beta)."""
        beta = np.asarray(beta, dtype=complex)
        grazing = beta == 0
        if grazing.any():
            beta = np.where(grazing, 1.0, beta)
        eps = [1.0] + [m.eps(omega) for m in self.materials]
        betas = [beta] + [sqrt_upper(beta * beta + (e - 1.0) * (omega / C)**2)
                          for e in eps[1:]]
        rs, rp = _recursion(self, eps, betas,
                            [2j * l.thickness for l in self.layers[:-1]])
        if not grazing.any():
            return rs, rp
        limit = np.where(np.any([e != 1.0 for e in np.broadcast_arrays(
            *eps[1:])], axis=0), -1.0, 0.0)
        return np.where(grazing, limit, rs), np.where(grazing, limit, rp)

    def imaginary_axis(self, xi, kappa):
        """reflection(1j * xi, 1j * kappa) in float64, for xi > 0 and kappa > 0
        that broadcast: eps_j(i xi) >= 1 is real, and so is kappa_j =
        sqrt(kappa^2 + (eps_j - 1) xi^2/c^2) >= kappa."""
        eps = [1.0] + [m.eps(1j * xi).real for m in self.materials]
        kappas = [kappa] + [np.sqrt(kappa * kappa + (e - 1.0) * (xi / C)**2)
                            for e in eps[1:]]
        return _recursion(self, eps, kappas,
                          [-2.0 * l.thickness for l in self.layers[:-1]])

    def static(self, k_perp):
        """static_limit_reflection(self, k_perp) at a float array k_perp."""
        eps = [1.0] + [m.eps_static for m in self.materials]
        metal = [eps[j] == np.inf for j in self.media[1:]]
        end = metal.index(True) if any(metal) else -1
        return _recursion(self, eps, [1.0] * len(eps), [
            -2.0 * k_perp * l.thickness + 0j for l in self.layers[:end]])

    def grazing_scale(self, omega):
        """max(4e-6, 1/(4 sqrt max_j |eps_j|)) w/c: r_sigma leaves -1 there."""
        eps = max(abs(m.eps(omega)) for m in self.materials)
        return max(4e-6, 0.25 / np.sqrt(eps)) * (omega / C)

    def tuned_pole(self, omega, width):
        return None  # a stack's has no closed form


class HalfSpace(Stack):
    """Vacuum in front of one semi-infinite material: the one-layer Stack."""

    def __init__(self, material: PermittivityModel):
        super().__init__((Layer(material, None),))


class ConstantR(Record):
    """Ideal wall with r_p = -r_s = r at every frequency and angle."""
    r: float
    depth = 0.0  # no layers (not a field)

    def __post_init__(self):
        if not 0 <= self.r < 1:
            raise ValueError("ConstantR requires 0 <= r < 1")

    def reflection(self, omega, beta):
        r = np.full(np.broadcast(beta, omega).shape, self.r, dtype=complex)
        return -r, r

    def imaginary_axis(self, xi, kappa):
        return tuple(r.real for r in self.reflection(xi, kappa))

    def static(self, k_perp):
        return -self.r, self.r

    def grazing_scale(self, omega):
        return None

    def tuned_pole(self, omega, width):
        """(beta_p, k_p) in a cavity of this width for r >= 1/2: the nearest
        mode m = round(w a/pi c) >= 1 at beta_p = (m pi + i ln r)/a and K's
        residue k_p = (beta_p c/w)^2 r/(4 pi a); else None (a smaller r's
        residues, up to r^-2, would cancel digits)."""
        wc, a, r = omega / C, width, self.r
        if r < 0.5:
            return None
        beta = (max(1, round(wc * a / np.pi)) * np.pi + 1j * np.log(r)) / a
        return beta, (beta / wc)**2 * r / (4.0 * np.pi * a)


MirrorSpec = Union[Stack, ConstantR]


def sqrt_upper(w):
    """Complex square root with Im >= 0 (positive real root on ties)."""
    s = np.sqrt(np.asarray(w, dtype=complex))
    return np.where(s.imag < 0, -s, s)


def transverse_wavenumber(eps, omega, k_perp):
    """beta_j = sqrt(eps * omega^2/c^2 - k_perp^2) with Im >= 0: public API
    for callers that hold k_perp.  No cavitycp code path calls it, because
    it loses all precision near grazing incidence (beta -> 0); the traces
    pass beta itself to reflection_coefficients."""
    return sqrt_upper(eps * (omega / C)**2 - np.asarray(k_perp)**2)


def _recursion(mirror: Stack, eps, betas, exponents):
    """(r_s, r_p) of vacuum | mirror.layers[0] | ... | mirror.layers[n],
    n = len(exponents), in one pass.  eps[j], betas[j]: permittivity and
    beta_j of medium j (mirror.media); finite layer i has phase e_j =
    e^{betas[j] exponents[i]}, exponent 2i d_i with beta_j or -2 d_i with
    kappa_j = -i beta_j (the Fresnel ratios read the same).  Back to front,
    r_{ij..} = (r_ij + r_{jk..} e_j) / (1 + r_ij r_{jk..} e_j); r_p uses
    eps_i/eps_j (eps_j = inf gives 1).  Each distinct pair of media gets its
    Fresnel pair once, and each distinct (medium, thickness) its phase once:
    a Bragg stack of two materials costs three Fresnel pairs and two phases.
    """
    media, pairs, phases = mirror.media, {}, {}

    def fresnel(i):
        key = media[i], media[i + 1]
        if key not in pairs:
            b, b_t, n = betas[key[0]], betas[key[1]], eps[key[0]] / eps[key[1]]
            pairs[key] = (b - b_t) / (b + b_t), (b - n * b_t) / (b + n * b_t)
        return pairs[key]

    rs, rp = fresnel(len(exponents))
    for i in range(len(exponents) - 1, -1, -1):
        key = media[i + 1], mirror.layers[i].thickness
        if key not in phases:
            phases[key] = np.exp(betas[key[0]] * exponents[i])
        phase = phases[key]
        us, up = fresnel(i)
        rs = (us + rs * phase) / (1.0 + us * rs * phase)
        rp = (up + rp * phase) / (1.0 + up * rp * phase)
    return rs, rp


def quarter_wave_stack(mat_a: PermittivityModel, mat_b: PermittivityModel,
                       n_pairs: int, omega0: float):
    """N pairs (a then b) of in-medium quarter-wave layers, terminated by a
    semi-infinite slab of mat_a."""
    if not 0 < omega0 < np.inf:
        raise ValueError("quarter-wave stack needs a finite positive design "
                         f"frequency, got {omega0}")
    if n_pairs < 0:
        raise ValueError(f"quarter-wave stack needs pairs >= 0, got {n_pairs}")
    pair = []  # built once: every pair repeats the same two layers
    for mat in (mat_a, mat_b) if n_pairs else ():
        n_index = np.sqrt(mat.eps(omega0)).real
        if not n_index > 0:
            raise ValueError("quarter-wave stack needs Re sqrt(eps) > 0")
        if not n_index * omega0 > np.pi * C / np.finfo(float).max:
            raise ValueError(f"design frequency {omega0} overflows a layer")
        pair.append(Layer(mat, np.pi * C / (2.0 * n_index * omega0)))
    return (*pair * n_pairs, Layer(mat_a, None))


def static_limit_reflection(mirror: MirrorSpec, k_perp):
    """(r_s(0), r_p(0)): the omega -> 0 limits of the reflection coefficients,
    floats for a scalar k_perp and arrays of its shape for an array.

    The public entry, which each mirror answers (its static method).  A
    Stack runs _recursion with eps_j(0) and kappa_j = k_perp in every
    medium.  The Fresnel pairs depend on ratios of the kappa_j only, so it
    runs with kappa_j = 1 and exponents -2 k_perp d_j + 0i (complex, so r(0)
    keeps its rounding), which keeps k_perp = 0 finite.  r_s vanishes; a
    metal layer (eps(0) = inf) reflects perfectly, so the stack ends there.
    """
    k_perp = np.asarray(k_perp, dtype=float)
    rs, rp = (np.full(k_perp.shape, np.real(r)) for r in mirror.static(k_perp))
    if k_perp.ndim == 0:
        return float(rs), float(rp)
    return rs, rp


def reflection_coefficients(mirror: MirrorSpec, omega: complex, *, beta):
    """(r_s, r_p) for any mirror at the exact vacuum transverse wavenumber
    beta (Im >= 0); beta and omega broadcast against each other.

    The public entry, which each mirror answers (its reflection method).
    transverse_wavenumber(1.0, omega, k_perp) is beta at k_perp, but loses
    all precision near grazing incidence (beta -> 0).  eps and beta_j =
    sqrt(beta^2 + (eps_j - 1) omega^2/c^2) are taken once per distinct
    material.  At beta = 0, where vacuum-index layers give 0/0, the limit
    is r_s = r_p = -1 if any eps != 1, else 0.
    """
    return mirror.reflection(omega, beta)
