"""Permittivity models and wall reflection coefficients.

Covers half-space Fresnel reflection, recursive multilayer (Bragg) stacks,
the constant-reflectivity idealization r_p = -r_s = r, and the static
(zero-frequency) limits needed by the j = 0 Matsubara term.  All square
roots (beta, beta_j, sqrt(eps)) are taken with non-negative imaginary part;
purely real positive radicands take the positive real root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .constants import C

__all__ = [
    "Drude", "ConstantLossy", "Vacuum", "PermittivityModel",
    "Layer", "HalfSpace", "Stack", "ConstantR", "MirrorSpec",
    "permittivity_at", "fresnel_halfspace", "multilayer_reflection",
    "quarter_wave_stack", "static_limit_reflection",
    "reflection_coefficients", "sqrt_upper",
]


@dataclass(frozen=True)
class Drude:
    """Metal permittivity eps = 1 - wp^2 / (w (w + i gamma))."""
    plasma_frequency: float  # rad/s
    damping: float           # rad/s

    def __post_init__(self):
        if not (self.plasma_frequency > 0 and self.damping > 0):
            raise ValueError("Drude requires positive plasma frequency "
                             "and damping")


@dataclass(frozen=True)
class ConstantLossy:
    """Frequency-independent permittivity eps_real + i eps_imag.

    On the imaginary axis (omega = i xi) the model is continued as the real
    constant eps_real: a lossless, dispersion-free approximation, since a
    constant complex eps has no causal continuation.  It affects only the
    Matsubara (non-resonant) sums, and drops a relative eps_imag/eps_real.
    """
    eps_real: float
    eps_imag: float = 0.0

    def __post_init__(self):
        if self.eps_imag < 0:
            raise ValueError("eps_imag must be non-negative (passivity)")


@dataclass(frozen=True)
class Vacuum:
    pass


PermittivityModel = Union[Drude, ConstantLossy, Vacuum]


@dataclass(frozen=True)
class Layer:
    """One slab of a stack; thickness None marks the semi-infinite terminator."""
    material: PermittivityModel
    thickness: Union[float, None]

    def __post_init__(self):
        if self.thickness is not None and not self.thickness > 0:
            raise ValueError("layer thickness must be positive")


@dataclass(frozen=True)
class HalfSpace:
    material: PermittivityModel


@dataclass(frozen=True)
class Stack:
    layers: Tuple[Layer, ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("Stack requires at least one layer")
        if self.layers[-1].thickness is not None:
            raise ValueError("final stack layer must be semi-infinite")
        if any(l.thickness is None for l in self.layers[:-1]):
            raise ValueError("only the final layer may be semi-infinite")


@dataclass(frozen=True)
class ConstantR:
    """Ideal wall with r_p = -r_s = r at every frequency and angle."""
    r: float

    def __post_init__(self):
        if not 0 <= self.r < 1:
            raise ValueError("ConstantR requires 0 <= r < 1")


MirrorSpec = Union[HalfSpace, Stack, ConstantR]


def permittivity_at(model: PermittivityModel, omega):
    """eps(omega) on the real axis or the positive imaginary axis; omega may
    be an array of frequencies."""
    if isinstance(model, Vacuum):
        return 1.0 + 0.0j
    if isinstance(model, ConstantLossy):
        lossy = (omega.real != 0) | (omega.imag <= 0)
        return model.eps_real + 1j * model.eps_imag * lossy
    if np.count_nonzero(omega) < np.size(omega):
        raise ValueError("Drude permittivity diverges at omega = 0; "
                         "use static_limit_reflection")
    return 1.0 - model.plasma_frequency**2 / (omega * (omega + 1j * model.damping))


def sqrt_upper(w):
    """Complex square root with Im >= 0 (positive real root on ties)."""
    s = np.sqrt(np.asarray(w, dtype=complex))
    return np.where(s.imag < 0, -s, s)


def transverse_wavenumber(eps, omega, k_perp):
    """beta_j = sqrt(eps * omega^2/c^2 - k_perp^2) with Im >= 0."""
    return sqrt_upper(eps * (omega / C)**2 - np.asarray(k_perp)**2)


def fresnel_halfspace(eps: complex, omega: complex, k_perp, beta=None):
    """(r_s, r_p) for vacuum / half-space of permittivity eps.

    Vectorized over k_perp.  beta is the vacuum transverse wavenumber and
    beta_t the in-medium one, both on the Im >= 0 branch.  Callers that
    integrate over beta may pass it directly; recomputing it from k_perp
    loses all precision near grazing incidence (beta -> 0).
    """
    if beta is None:
        beta = transverse_wavenumber(1.0, omega, k_perp)
    else:
        beta = np.asarray(beta, dtype=complex)
    beta_t = sqrt_upper(beta * beta + (eps - 1.0) * (omega / C)**2)
    r_s = (beta - beta_t) / (beta + beta_t)
    r_p = (eps * beta - beta_t) / (eps * beta + beta_t)
    return r_s, r_p


def multilayer_reflection(layers, omega: complex, k_perp, polarization: str,
                          beta=None):
    """Reflection coefficient of a layered stack fronted by vacuum.

    Back-to-front recursion
    r_{ij...} = (r_ij + r_{jk...} e^{2i beta_j d_j})
              / (1 + r_ij r_{jk...} e^{2i beta_j d_j}),
    seeded with the two-media Fresnel coefficient at the deepest interface.
    beta, if given, is the exact vacuum transverse wavenumber (see
    fresnel_halfspace).
    """
    if not layers:
        raise ValueError("multilayer_reflection requires a nonempty stack")
    if polarization not in ("s", "p"):
        raise ValueError(f"polarization must be 's' or 'p', got {polarization!r}")
    eps = [1.0 + 0.0j] + [permittivity_at(l.material, omega) for l in layers]
    if beta is None:
        beta = transverse_wavenumber(1.0, omega, k_perp)
    else:
        beta = np.asarray(beta, dtype=complex)
    betas = [beta] + [sqrt_upper(beta * beta + (e - 1.0) * (omega / C)**2)
                      for e in eps[1:]]

    def r_interface(i, j):
        if polarization == "s":
            return (betas[i] - betas[j]) / (betas[i] + betas[j])
        return ((eps[j] * betas[i] - eps[i] * betas[j])
                / (eps[j] * betas[i] + eps[i] * betas[j]))

    r = r_interface(len(layers) - 1, len(layers))
    for i in range(len(layers) - 2, -1, -1):
        phase = np.exp(2j * betas[i + 1] * layers[i].thickness)
        r_up = r_interface(i, i + 1)
        r = (r_up + r * phase) / (1.0 + r_up * r * phase)
    return r


def quarter_wave_stack(mat_a: PermittivityModel, mat_b: PermittivityModel,
                       n_pairs: int, omega0: float):
    """N pairs (a then b) of in-medium quarter-wave layers, terminated by a
    semi-infinite slab of mat_a."""
    layers = []
    for _ in range(n_pairs):
        for mat in (mat_a, mat_b):
            n_index = np.sqrt(permittivity_at(mat, omega0)).real
            if not n_index > 0:
                raise ValueError("quarter-wave stack needs Re sqrt(eps) > 0")
            layers.append(Layer(mat, np.pi * C / (2.0 * n_index * omega0)))
    layers.append(Layer(mat_a, None))
    return tuple(layers)


def _static_eps(model: PermittivityModel) -> float:
    if isinstance(model, Drude):
        return np.inf
    if isinstance(model, Vacuum):
        return 1.0
    return model.eps_real


def static_limit_reflection(mirror: MirrorSpec, k_perp):
    """(r_s(0), r_p(0)): the omega -> 0 limits of the reflection coefficients,
    floats for a scalar k_perp and arrays of its shape for an array.

    r_s vanishes for any half-space or stack.  r_p of a half-space is 1 for a
    Drude metal and (eps(0)-1)/(eps(0)+1) for a dielectric; a stack runs the
    p recursion with beta_j -> i k_perp, i.e. phases e^{-2 k_perp d}.
    """
    k_perp = np.asarray(k_perp, dtype=float)
    if isinstance(mirror, ConstantR):
        rs, rp = -mirror.r, mirror.r
    else:
        layers = mirror.layers if isinstance(mirror, Stack) \
            else (Layer(mirror.material, None),)
        eps = [1.0] + [_static_eps(l.material) for l in layers]

        def r_iface(i, j):
            if np.isinf(eps[j]):
                return 1.0
            if np.isinf(eps[i]):
                return -1.0
            return (eps[j] - eps[i]) / (eps[j] + eps[i])

        rs = 0.0
        rp = r_iface(len(layers) - 1, len(layers))
        for i in range(len(layers) - 2, -1, -1):
            phase = np.exp(-2.0 * k_perp * layers[i].thickness)
            r_up = r_iface(i, i + 1)
            rp = (r_up + rp * phase) / (1.0 + r_up * rp * phase)
    if k_perp.ndim == 0:
        return float(rs), float(rp)
    return np.full(k_perp.shape, rs), np.full(k_perp.shape, rp)


def reflection_coefficients(mirror: MirrorSpec, omega: complex, k_perp,
                            beta=None):
    """(r_s, r_p) for any mirror variant; vectorized over k_perp and omega,
    which broadcast against each other.

    beta, if given, is the exact vacuum transverse wavenumber (see
    fresnel_halfspace).
    """
    k_perp = np.asarray(k_perp, dtype=float)
    if isinstance(mirror, ConstantR):
        r = np.full(np.broadcast_shapes(k_perp.shape, np.shape(omega)),
                    mirror.r, dtype=complex)
        return -r, r
    if isinstance(mirror, HalfSpace):
        return fresnel_halfspace(permittivity_at(mirror.material, omega),
                                 omega, k_perp, beta=beta)
    return (multilayer_reflection(mirror.layers, omega, k_perp, "s",
                                  beta=beta),
            multilayer_reflection(mirror.layers, omega, k_perp, "p",
                                  beta=beta))
