"""Thermal Casimir-Polder potentials, well depths, and heating rates.

Ground-state potential:
  U(z) = mu0 k_B T sum'_j xi_j^2 alpha(i xi_j) Tr G(i xi_j)        (U_nr)
       + (mu0/3) sum_k w_k^2 n(w_k) d_k^2 Re Tr G(w_k)            (U_pr + U_ev)
with the j = 0 Matsubara term at half weight.  The general-state version
weights absorption channels by n(w) and emission channels by -(n(w) + 1);
with all population in the ground state it reduces to the expression above.

The Matsubara sum for U_nr needs J(z) = 2 + ceil(40 c / (xi_1 gap)) terms at
position z, gap = a - 2|z| in a cavity and 2d near one plate, so that the
dropped terms carry e^{-xi_j gap / c} < e^-40.  J(z) grows as 1/T and as
1/gap, but the cost does not: a call takes J = max_z J(z), that of its
smallest gap, and every position sums the first min(J, J0 = 64) terms
exactly, j = 0 included, in one vector wavenumber integral
(greens.imagfreq_trace_sum).  If J > J0, the rest of the sum is replaced by
the Euler-Maclaurin form (1/xi_1) int F dxi plus end corrections, which are
Gregory weights on the last seven exact terms.  That xi integral is one more
term of the wavenumber integral.  It meets rel_tol (its inner xi integral of
its largest node), and the dropped Gregory orders are below 1e-12 of the
sum.  A position farther from the walls also takes the terms past its own
J(z) and a share of the tail; together they are below e^-40 of its sum.
As T -> 0 the sum tends to the T = 0 integral (hbar mu0 / 2 pi)
int_0^inf xi^2 alpha Tr G dxi.

Each cavity argument is a CavityGeometry or a PlateGeometry (z = distance).
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from .constants import C, EPSILON_0, HBAR, MU_0, Record
from .greens import _CUTOFF, CavityGeometry, _propagating_series, \
    cavity_trace_realfreq, imagfreq_trace_sum
from .materials import MirrorSpec
from .molecules import Molecule, ThermalEnvironment, Transition, \
    matsubara_frequency, photon_number, polarizability_imag
from .quadrature import QuadratureSpec

__all__ = [
    "PotentialComponents", "ExtremumReport", "LevelScheme",
    "nonresonant_potential", "resonant_potential", "potential_components",
    "general_state_potential", "resonance_width", "potential_depth",
    "heating_rate_free", "heating_rate_profile",
]

# Matsubara terms every position sums exactly; a position needing more adds
# the rest as an Euler-Maclaurin tail (see _nonresonant).  Above xi_J0 the
# summand varies on a scale of at least xi_J0 = J0 xi_1 (its singularities in
# complex xi lie at least that far away), and with J0 = 64 the first end
# correction, -(1/12) nabla F, is ~1e-7 of the sum at a gold wall.  Each
# further Gregory order gains ~1/J0; after the sixth the remainder measured
# <= 1e-12 of the sum for gold from 10 K down to 0.1 K.
_J0 = 64
# Gregory coefficients |G_2| ... |G_7| of the end correction, in powers of
# the backward difference nabla F_j = F_j - F_{j-1}.
_GREGORY = (1 / 12, 1 / 24, 19 / 720, 3 / 160, 863 / 60480, 275 / 24192)


def _end_weights():
    """c_j with sum_{j >= J0} F_j = (1/xi_1) int_{xi_m}^inf F dxi
    + sum_{j <= m} c_j F_j, m = J0 - 1: the lower-end Euler-Maclaurin
    correction 1/2 F_m - (xi_1/12) F'(xi_m) + ..., less F_m itself, in
    Gregory form."""
    c = np.zeros(_J0)
    c[-1] = -0.5
    for n, g in enumerate(_GREGORY, start=1):
        for k in range(n + 1):
            c[-1 - k] -= g * (-1) ** k * math.comb(n, k)
    return c


_END_WEIGHTS = _end_weights()
# Newton refinement of well-depth extrema: step budget, and the step size
# (relative to the cavity width) at which a position counts as converged.
_NEWTON_STEPS = 50
_NEWTON_XTOL = 1e-12


class PotentialComponents(Record):
    """The three-way split of the potential at one position (joules)."""
    z: float
    U_nr: float
    U_pr: float
    U_ev: float

    @property
    def U_total(self) -> float:
        return self.U_nr + self.U_pr + self.U_ev


class ExtremumReport(Record):
    """Extrema of the oscillating (propagating) potential at resonance."""
    nu: int
    width: float
    maxima_positions: Tuple[float, ...]
    maxima_values: Tuple[float, ...]
    minima_positions: Tuple[float, ...]
    minima_values: Tuple[float, ...]
    depth: float           # Delta U_nu (nu >= 2) or peak height (nu = 1)
    is_well_depth: bool    # False for nu = 1, where no minimum exists
    # (z_max, z_min) with depth = U(z_max) - U(z_min); z_min is the edge
    # for nu = 1
    depth_positions: Tuple[float, float]


def _nonresonant(geometry, zs, alpha, env: ThermalEnvironment,
                 spec: QuadratureSpec):
    """mu0 k_B T sum'_j alpha(i xi_j) xi_j^2 Tr G(i xi_j) at each position of
    the array zs, in one imagfreq_trace_sum (once per geometry.fold rep).
    One weight vector serves all, in units of mu0 k_B T/xi_1 =
    mu0 hbar/2 pi: xi_1 alpha(i xi_j) for J of the smallest gap (J > J0
    decided as 40 c/gap > (J0 - 2) xi_1, so no J overflows), and if J > J0,
    _END_WEIGHTS and the tail term from xi_m, m = J0 - 1, at weight 1."""
    xi1 = matsubara_frequency(1, env)
    rate = _CUTOFF * C / geometry.decay_lengths(zs).min()
    tail = rate > (_J0 - 2) * xi1
    xi = xi1 * np.arange(_J0 if tail else 2 + math.ceil(rate / xi1))
    w = xi1 * alpha(xi)
    w[0] *= 0.5
    if tail:
        w = np.append(w * (1.0 + _END_WEIGHTS), 1.0)
    return MU_0 * HBAR / (2.0 * np.pi) * imagfreq_trace_sum(
        geometry, zs, xi, w, spec, alpha if tail else None)


def nonresonant_potential(z, mol: Molecule, cavity, env: ThermalEnvironment,
                          spec: QuadratureSpec = QuadratureSpec()):
    """Matsubara-sum (non-resonant) potential in a cavity or at a plate.

    z is a position or a 1-D array of positions (array out).  All positions
    share one wavenumber integral over the first min(J, J0) terms, J that of
    the smallest gap, and the Euler-Maclaurin tail for the rest if J > J0
    (see the module docstring), which meets spec.rel_tol, so the cost is
    bounded as T -> 0.
    In a cavity each distinct |z| is summed once, so +-z get equal entries.
    """
    scalar, zs = cavity.check_position(z)
    u = _nonresonant(cavity, zs, lambda xi: polarizability_imag(mol, xi),
                     env, spec)
    return float(u[0]) if scalar else u


def _line_sum(z, lines, cavity, spec: QuadratureSpec):
    """(sum_k w_k Tr G_pr(omega_k), sum_k w_k Tr G_ev(omega_k)) at z over
    the (omega_k, w_k) pairs of lines, one trace per distinct omega_k."""
    parts = {omega: cavity_trace_realfreq(z, omega, cavity, spec)
             for omega in dict.fromkeys(omega for omega, _ in lines)}
    return (sum(w * parts[omega].propagating for omega, w in lines),
            sum(w * parts[omega].evanescent for omega, w in lines))


def _ground_lines(mol: Molecule, env: ThermalEnvironment):
    """(omega, (mu0/3) omega^2 n(omega) d^2) per ground-state transition."""
    return [(t.omega, MU_0 / 3.0 * t.omega**2 * photon_number(t.omega, env)
             * t.d_squared) for t in mol.transitions]


def resonant_potential(z, mol: Molecule, cavity, env: ThermalEnvironment,
                       spec: QuadratureSpec = QuadratureSpec()):
    """(U_pr, U_ev): the resonant potential in a cavity or at a plate.

    z may be a 1-D array of positions; each part is then an array, from one
    batched trace per transition frequency.
    """
    u_pr, u_ev = _line_sum(z, _ground_lines(mol, env), cavity, spec)
    return u_pr.real, u_ev.real


def potential_components(z: float, mol: Molecule, cavity,
                         env: ThermalEnvironment,
                         spec: QuadratureSpec = QuadratureSpec()):
    """The three-way split at z in a cavity, or at distance z from a plate."""
    u_nr = nonresonant_potential(z, mol, cavity, env, spec)
    u_pr, u_ev = resonant_potential(z, mol, cavity, env, spec)
    return PotentialComponents(z=z, U_nr=u_nr, U_pr=u_pr, U_ev=u_ev)


class LevelScheme(Record):
    """State-resolved level data for the general-state potential.

    energies: state energies in rad/s (energies[0] is the reference);
    d_squared: symmetric coupling map {(n, k): |d_nk|^2} with n < k.
    """
    energies: Tuple[float, ...]
    d_squared: Dict[Tuple[int, int], float]

    def coupling(self, n: int, k: int) -> float:
        key = (min(n, k), max(n, k))
        return self.d_squared.get(key, 0.0)


def general_state_potential(z, scheme: LevelScheme,
                            populations: Sequence[float], cavity,
                            env: ThermalEnvironment,
                            spec: QuadratureSpec = QuadratureSpec()):
    """Potential of an incoherent mixture of states, cavity or plate.  z is
    a position (float out) or a 1-D array of them (array out).  Absorption
    and emission lines at equal |w_kn| share one trace."""
    populations = list(populations)
    if len(populations) != len(scheme.energies):
        raise ValueError("one population per level required")
    if any(p < 0 for p in populations):
        raise ValueError("populations must be non-negative")
    if abs(sum(populations) - 1.0) > 1e-9:
        raise ValueError("populations must sum to 1")

    nstates = len(scheme.energies)
    levels = [(p_n, [(scheme.coupling(n, k),
                      scheme.energies[k] - scheme.energies[n])
                     for k in range(nstates)
                     if k != n and scheme.coupling(n, k) > 0.0])
              for n, p_n in enumerate(populations) if p_n > 0.0]

    def alpha(xi):
        """Population-weighted polarizability sum_n p_n alpha_n(i xi)."""
        return (2.0 / (3.0 * HBAR)) * sum(
            (p_n * d2 * w_kn / (w_kn**2 + xi**2)
             for p_n, pairs in levels for d2, w_kn in pairs),
            np.zeros_like(xi))

    # absorption of a thermal photon (w_kn > 0) weighs n(w), stimulated
    # + spontaneous emission -(n(w) + 1)
    lines = [(abs(w_kn), p_n * (MU_0 / 3.0 * w_kn**2 * d2 * math.copysign(
        photon_number(abs(w_kn), env) + (w_kn < 0), w_kn)))
        for p_n, pairs in levels for d2, w_kn in pairs]
    scalar, zs = cavity.check_position(z)
    u_pr, u_ev = _line_sum(zs, lines, cavity, spec)
    total = _nonresonant(cavity, zs, alpha, env, spec) + (u_pr + u_ev).real
    return float(total[0]) if scalar else total


def resonance_width(transition: Transition, nu: int) -> float:
    """Cavity width a = nu pi c / omega tuning the nu-th resonance."""
    if nu < 1:
        raise ValueError("resonance order nu must be >= 1")
    return nu * math.pi * C / transition.omega


def _newton_extrema(b, half, seeds, maximum, half_width, xtol):
    """Angles phi = arcsin(z/half) of the stationary points of u(z) =
    sum_m b_m cos(2 m phi) near the seeds z: an even Chebyshev series
    sum_m c_2m T_2m(z/half), with b_m = (-1)^m c_2m as T_2m(sin phi) =
    (-1)^m cos(2 m phi).

    Newton steps on u'(phi) = -sum 2m b_m sin(2 m phi) and u''(phi) =
    -sum (2m)^2 b_m cos(2 m phi) run for all seeds at once, as (seed x
    coefficient) products; a seed at z = 0 stays there exactly, where u' is
    0.  maximum[i] selects a maximum or a minimum for seed i; a point whose
    curvature has the wrong sign, that leaves seed +- half_width or reaches
    the edge +-half (phi = +-pi/2, stationary for every series), or that
    steps still above xtol in z after _NEWTON_STEPS, raises ArithmeticError.
    An all-zero series (a mirror with r = 0) is flat: every seed stays put.
    """
    m = 2.0 * np.arange(len(b))
    slope_b, curvature_b = -m * b, -m * m * b
    phi = np.arcsin(np.divide(seeds, half))
    if not b.any():
        return phi
    for _ in range(_NEWTON_STEPS):
        angle = np.outer(phi, m)
        curvature = np.cos(angle) @ curvature_b
        step = (np.sin(angle) @ slope_b) / curvature
        phi -= step
        if np.all(half * np.abs(step) <= xtol):
            break
    else:
        raise ArithmeticError("Newton refinement of the extrema did not "
                              "converge")
    for zi, seed, is_max, curv in zip(half * np.sin(phi), seeds, maximum,
                                      curvature):
        if not ((curv < 0) == is_max and abs(zi - seed) <= half_width
                and abs(zi) < half):
            kind = "maximum" if is_max else "minimum"
            raise ArithmeticError(f"no {kind} of the propagating potential "
                                  f"within lam/8 of the seed z = {seed}")
    return phi


def potential_depth(mol: Molecule, mirror: MirrorSpec, nu: int,
                    env: ThermalEnvironment,
                    spec: QuadratureSpec = QuadratureSpec()) -> ExtremumReport:
    """Extrema and well depth Delta U_nu of the propagating potential at the
    nu-th resonance of the molecule's first transition.

    The extrema are seeded on the grid z = -nu lam/4 + (mu - 1/2) lam/2
    (maxima) and z = -nu lam/4 + mu lam/2 (minima).  One propagating trace
    at the first-kind Chebyshev points of the +-(a/2 - a/1000) edge, the
    points a profile scan over it integrates, gives Re Tr G_pr's Chebyshev
    series (greens._propagating_series), exact to rounding as Tr G_pr is
    band-limited; Newton steps on it find the extrema (on the trace, not on
    the photon-weighted potential, so a vanishing photon number still
    locates them), and it gives their values, within Lambda_K rel_tol of
    the largest point's.  An extremum of the wrong kind, or outside seed
    +- lam/8 or the edge, raises ArithmeticError.

    Delta U_nu = U[(nu-3) lam/4] - U[(nu-2) lam/4] with refined positions.
    For nu = 1 the report carries the central peak height U(0) - U(edge)
    instead of a well depth.
    """
    t = mol.transitions[0]
    lam = 2.0 * math.pi * C / t.omega
    a = resonance_width(t, nu)
    cavity = CavityGeometry(width=a, mirror=mirror)
    edge = 0.5 * a - a / 1000.0

    _, weight = _ground_lines(mol, env)[0]
    seeds = [-nu * lam / 4.0 + (mu - 0.5) * lam / 2.0
             for mu in range(1, nu + 1)]
    seeds += [-nu * lam / 4.0 + mu * lam / 2.0 for mu in range(1, nu)]
    maximum = [True] * nu + [False] * (nu - 1)
    # the edge lies inside the cavity, and t.omega > 0
    c = _propagating_series(cavity, t.omega, edge, spec).real
    b = c[::2] * (-1.0) ** np.arange((len(c) + 1) // 2)
    phi = _newton_extrema(b, edge, seeds, maximum, lam / 8.0,
                          _NEWTON_XTOL * a)
    if nu == 1:
        phi = np.append(phi, 0.5 * np.pi)  # the edge
    values = (weight * np.cos(np.outer(phi, 2.0 * np.arange(len(b)))) @ b
              ).tolist()
    positions = (edge * np.sin(phi)).tolist()
    # each extremum stays within lam/8 of its seed (seeds lam/2 apart), so
    # the deepest minimum, at (nu-2) lam/4, is the last one, and its lower
    # adjacent maximum, at (nu-3) lam/4, the second-to-last maximum; for
    # nu = 1 the pair is the peak and the edge
    i = max(nu - 2, 0)
    return ExtremumReport(
        nu=nu, width=a, maxima_positions=tuple(positions[:nu]),
        maxima_values=tuple(values[:nu]),
        minima_positions=tuple(positions[nu:2 * nu - 1]),
        minima_values=tuple(values[nu:2 * nu - 1]),
        depth=values[i] - values[-1], is_well_depth=nu > 1,
        depth_positions=(positions[i], positions[-1]))


def heating_rate_free(mol: Molecule, env: ThermalEnvironment) -> float:
    """Free-space thermal excitation rate Gamma_0 out of the ground state."""
    return sum(t.d_squared * t.omega**3 * photon_number(t.omega, env)
               for t in mol.transitions) / (3.0 * math.pi * HBAR * C**3
                                            * EPSILON_0)


def heating_rate_profile(z, mol: Molecule, cavity, env: ThermalEnvironment,
                         spec: QuadratureSpec = QuadratureSpec()):
    """Gamma(z) = Gamma_0 + change from Im Tr G, in a cavity or at a plate.

    z may be a 1-D array of positions, giving an array of rates from one
    batched trace per transition frequency.
    """
    u_pr, u_ev = _line_sum(z, _ground_lines(mol, env), cavity, spec)
    return heating_rate_free(mol, env) + 2.0 / HBAR * (u_pr + u_ev).imag
