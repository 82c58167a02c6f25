"""Thermal Casimir-Polder potentials, well depths, and heating rates.

Ground-state potential:
  U(z) = mu0 k_B T sum'_j xi_j^2 alpha(i xi_j) Tr G(i xi_j)        (U_nr)
       + (mu0/3) sum_k w_k^2 n(w_k) d_k^2 Re Tr G(w_k)            (U_pr + U_ev)
with the j = 0 Matsubara term at half weight.  The general-state version
weights absorption channels by n(w) and emission channels by -(n(w) + 1);
with all population in the ground state it reduces to the expression above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .constants import C, EPSILON_0, HBAR, K_B, MU_0
from .greens import CavityGeometry, cavity_trace_imagfreq, \
    cavity_trace_realfreq, single_plate_trace_imagfreq, \
    single_plate_trace_parts, zero_frequency_trace_limit
from .materials import MirrorSpec
from .molecules import Molecule, ThermalEnvironment, Transition, \
    matsubara_frequency, photon_number, polarizability_imag
from .quadrature import QuadratureSpec

__all__ = [
    "PotentialComponents", "ExtremumReport", "LevelScheme",
    "nonresonant_potential", "resonant_potential", "potential_components",
    "single_plate_components", "general_state_potential", "resonance_width",
    "potential_depth", "heating_rate_free", "heating_rate_profile",
    "heating_rate_single_plate",
]

_TRUNC = 1e-12
_J_MAX = 100_000
# Newton refinement of well-depth extrema: step budget, and the step size
# (relative to the cavity width) at which a position counts as converged.
_NEWTON_STEPS = 50
_NEWTON_XTOL = 1e-12


@dataclass(frozen=True)
class PotentialComponents:
    """The three-way split of the potential at one position (joules)."""
    z: float
    U_nr: float
    U_pr: float
    U_ev: float

    @property
    def U_total(self) -> float:
        return self.U_nr + self.U_pr + self.U_ev


@dataclass(frozen=True)
class ExtremumReport:
    """Extrema of the oscillating (propagating) potential at resonance."""
    nu: int
    width: float
    maxima_positions: Tuple[float, ...]
    maxima_values: Tuple[float, ...]
    minima_positions: Tuple[float, ...]
    minima_values: Tuple[float, ...]
    depth: float           # Delta U_nu (nu >= 2) or peak height (nu = 1)
    is_well_depth: bool    # False for nu = 1, where no minimum exists


def _matsubara_sum(env: ThermalEnvironment, alpha, trace):
    """sum'_j xi_j^2 alpha(i xi_j) * trace(xi_j) with half-weight j = 0 term
    supplied by the caller via trace-limit; truncated when two consecutive
    terms drop below 1e-12 of the running total."""
    total = 0.0
    small = 0
    for j in range(1, _J_MAX):
        xi = matsubara_frequency(j, env)
        term = xi * xi * alpha(xi) * trace(xi)
        total += term
        if abs(term) <= _TRUNC * abs(total):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    return total


def nonresonant_potential(z: float, mol: Molecule, cavity: CavityGeometry,
                          env: ThermalEnvironment,
                          spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Matsubara-sum (non-resonant) part of the ground-state potential."""
    zero_term = 0.5 * polarizability_imag(mol, 0.0) \
        * zero_frequency_trace_limit(z, cavity, spec)
    rest = _matsubara_sum(
        env,
        lambda xi: polarizability_imag(mol, xi),
        lambda xi: cavity_trace_imagfreq(z, xi, cavity, spec))
    return MU_0 * K_B * env.temperature * (zero_term + rest)


def resonant_potential(z, mol: Molecule, cavity: CavityGeometry,
                       env: ThermalEnvironment,
                       spec: QuadratureSpec = QuadratureSpec()):
    """(U_pr, U_ev): the real-frequency (resonant) part of the potential.

    z may be a 1-D array of positions; each part is then an array, from one
    batched trace per transition.
    """
    u_pr = 0.0
    u_ev = 0.0
    for t in mol.transitions:
        weight = MU_0 / 3.0 * t.omega**2 * photon_number(t.omega, env) \
            * t.d_squared
        parts = cavity_trace_realfreq(z, t.omega, cavity, spec)
        u_pr += weight * parts.propagating.real
        u_ev += weight * parts.evanescent.real
    return u_pr, u_ev


def potential_components(z: float, mol: Molecule, cavity: CavityGeometry,
                         env: ThermalEnvironment,
                         spec: QuadratureSpec = QuadratureSpec()):
    u_nr = nonresonant_potential(z, mol, cavity, env, spec)
    u_pr, u_ev = resonant_potential(z, mol, cavity, env, spec)
    return PotentialComponents(z=z, U_nr=u_nr, U_pr=u_pr, U_ev=u_ev)


def single_plate_components(distance: float, mol: Molecule,
                            mirror: MirrorSpec, env: ThermalEnvironment,
                            spec: QuadratureSpec = QuadratureSpec()):
    """Potential components at a given distance from a single plate."""
    from .materials import static_limit_reflection
    from .quadrature import adaptive_integrate

    def f_zero(kappa):
        rp0 = np.array([static_limit_reflection(mirror, k)[1] for k in kappa])
        return -(C**2 / (2.0 * math.pi)) * kappa**2 * rp0 \
            * np.exp(-2.0 * kappa * distance)

    zero_limit, _ = adaptive_integrate(f_zero, 0.0, 20.0 / distance, spec)
    zero_term = 0.5 * polarizability_imag(mol, 0.0) * float(np.real(zero_limit))
    u_nr = MU_0 * K_B * env.temperature * zero_term \
        + MU_0 * K_B * env.temperature * _matsubara_sum(
        env,
        lambda xi: polarizability_imag(mol, xi),
        lambda xi: single_plate_trace_imagfreq(distance, xi, mirror, spec))
    u_pr = 0.0
    u_ev = 0.0
    for t in mol.transitions:
        weight = MU_0 / 3.0 * t.omega**2 * photon_number(t.omega, env) \
            * t.d_squared
        parts = single_plate_trace_parts(distance, t.omega, mirror, spec)
        u_pr += weight * parts.propagating.real
        u_ev += weight * parts.evanescent.real
    return PotentialComponents(z=distance, U_nr=u_nr, U_pr=u_pr, U_ev=u_ev)


@dataclass(frozen=True)
class LevelScheme:
    """State-resolved level data for the general-state potential.

    energies: state energies in rad/s (energies[0] is the reference);
    d_squared: symmetric coupling map {(n, k): |d_nk|^2} with n < k.
    """
    energies: Tuple[float, ...]
    d_squared: Dict[Tuple[int, int], float]

    def coupling(self, n: int, k: int) -> float:
        key = (min(n, k), max(n, k))
        return self.d_squared.get(key, 0.0)


def general_state_potential(z: float, scheme: LevelScheme,
                            populations: Sequence[float],
                            cavity: CavityGeometry, env: ThermalEnvironment,
                            spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Population-weighted potential for an incoherent mixture of states."""
    populations = list(populations)
    if len(populations) != len(scheme.energies):
        raise ValueError("one population per level required")
    if any(p < 0 for p in populations):
        raise ValueError("populations must be non-negative")
    if abs(sum(populations) - 1.0) > 1e-9:
        raise ValueError("populations must sum to 1")

    total = 0.0
    nstates = len(scheme.energies)
    for n, p_n in enumerate(populations):
        if p_n == 0.0:
            continue
        pairs = [(k, scheme.coupling(n, k),
                  scheme.energies[k] - scheme.energies[n])
                 for k in range(nstates) if k != n
                 and scheme.coupling(n, k) > 0.0]

        def alpha_n(xi):
            return (2.0 / (3.0 * HBAR)) * sum(
                d2 * w_kn / (w_kn**2 + xi**2) for _, d2, w_kn in pairs)

        zero_term = 0.5 * alpha_n(0.0) \
            * zero_frequency_trace_limit(z, cavity, spec)
        u_n = MU_0 * K_B * env.temperature * (
            zero_term + _matsubara_sum(
                env, alpha_n,
                lambda xi: cavity_trace_imagfreq(z, xi, cavity, spec)))

        for _, d2, w_kn in pairs:
            w_abs = abs(w_kn)
            if w_kn > 0:   # absorption from a thermal photon
                weight = photon_number(w_abs, env)
            else:          # stimulated + spontaneous emission
                weight = -(photon_number(w_abs, env) + 1.0)
            parts = cavity_trace_realfreq(z, w_abs, cavity, spec)
            u_n += MU_0 / 3.0 * w_abs**2 * weight * d2 * parts.total.real
        total += p_n * u_n
    return total


def resonance_width(transition: Transition, nu: int) -> float:
    """Cavity width a = nu pi c / omega tuning the nu-th resonance."""
    if nu < 1:
        raise ValueError("resonance order nu must be >= 1")
    return nu * math.pi * C / transition.omega


def _newton_extrema(rule, seeds, maximum, half_width, edge, xtol):
    """Stationary points of u(z) = Re sum(w F cos(2 beta z)) near the seeds.

    rule is (beta, w F) from cavity_trace_realfreq.  Newton steps on
    u'(z) = -Re sum(2 beta w F sin(2 beta z)) and u''(z) run for all seeds at
    once.  maximum[i] selects a maximum or a minimum for seed i; a point
    whose curvature has the wrong sign, or that leaves seed +- half_width or
    +-edge, raises ArithmeticError.
    """
    beta, wf = rule
    z = np.array(seeds, dtype=float)
    for _ in range(_NEWTON_STEPS):
        arg = 2.0 * np.outer(beta, z)
        slope = -((2.0 * beta * wf) @ np.sin(arg)).real
        curvature = -((4.0 * beta**2 * wf) @ np.cos(arg)).real
        step = slope / curvature
        z -= step
        if np.all(np.abs(step) <= xtol):
            break
    else:
        raise ArithmeticError("Newton refinement of the extrema did not "
                              "converge")
    for zi, seed, is_max, curv in zip(z, seeds, maximum, curvature):
        if not ((curv < 0) == is_max and abs(zi - seed) <= half_width
                and abs(zi) <= edge):
            kind = "maximum" if is_max else "minimum"
            raise ArithmeticError(f"no {kind} of the propagating potential "
                                  f"within lam/8 of the seed z = {seed}")
    return z


def potential_depth(mol: Molecule, mirror: MirrorSpec, nu: int,
                    env: ThermalEnvironment,
                    spec: QuadratureSpec = QuadratureSpec()) -> ExtremumReport:
    """Extrema and well depth Delta U_nu of the propagating potential at the
    nu-th resonance of the molecule's first transition.

    The extrema are seeded on the grid z = -nu lam/4 + (mu - 1/2) lam/2
    (maxima) and z = -nu lam/4 + mu lam/2 (minima), and found in three steps:
    one propagating-only trace at all seeds; Newton steps on the derivative
    of the trace over that pass's nodes and kernel values (no new reflection
    evaluations); one error-controlled propagating trace at the refined
    extrema, which gives the reported values.  Newton runs on the trace, not
    on the photon-weighted potential, so a vanishing photon number still
    locates the extrema.  An extremum of the wrong kind, or outside seed
    +- lam/8 or the +-(a/2 - a/1000) edge, raises ArithmeticError.

    Delta U_nu = U[(nu-3) lam/4] - U[(nu-2) lam/4] with refined positions.
    For nu = 1 the report carries the central peak height U(0) - U(edge)
    instead of a well depth.
    """
    t = mol.transitions[0]
    lam = 2.0 * math.pi * C / t.omega
    a = resonance_width(t, nu)
    cavity = CavityGeometry(width=a, mirror=mirror)
    edge = 0.5 * a - a / 1000.0

    weight = MU_0 / 3.0 * t.omega**2 * photon_number(t.omega, env) \
        * t.d_squared

    seeds = [-nu * lam / 4.0 + (mu - 0.5) * lam / 2.0
             for mu in range(1, nu + 1)]
    seeds += [-nu * lam / 4.0 + mu * lam / 2.0 for mu in range(1, nu)]
    maximum = [True] * nu + [False] * (nu - 1)
    first = cavity_trace_realfreq(np.array(seeds), t.omega, cavity, spec,
                                  evanescent=False)
    z = _newton_extrema(first.rule, seeds, maximum, lam / 8.0, edge,
                        _NEWTON_XTOL * a)
    if nu == 1:
        z = np.append(z, edge)
    final = cavity_trace_realfreq(z, t.omega, cavity, spec, evanescent=False)
    values = [weight * float(u) for u in final.propagating.real]
    positions = [float(x) for x in z]
    max_pos, max_val = positions[:nu], values[:nu]
    min_pos, min_val = positions[nu:2 * nu - 1], values[nu:2 * nu - 1]

    if nu == 1:
        depth = max_val[0] - values[-1]
        return ExtremumReport(nu=nu, width=a,
                              maxima_positions=tuple(max_pos),
                              maxima_values=tuple(max_val),
                              minima_positions=(), minima_values=(),
                              depth=depth, is_well_depth=False)

    # deepest minimum sits at (nu-2) lam/4, its lower adjacent maximum at
    # (nu-3) lam/4; pick the refined extrema closest to those grid points
    target_min = (nu - 2) * lam / 4.0
    target_max = (nu - 3) * lam / 4.0
    i_min = min(range(len(min_pos)), key=lambda i: abs(min_pos[i] - target_min))
    i_max = min(range(len(max_pos)), key=lambda i: abs(max_pos[i] - target_max))
    depth = max_val[i_max] - min_val[i_min]
    return ExtremumReport(nu=nu, width=a,
                          maxima_positions=tuple(max_pos),
                          maxima_values=tuple(max_val),
                          minima_positions=tuple(min_pos),
                          minima_values=tuple(min_val),
                          depth=depth, is_well_depth=True)


def heating_rate_free(mol: Molecule, env: ThermalEnvironment) -> float:
    """Free-space thermal excitation rate Gamma_0 out of the ground state."""
    return sum(t.d_squared * t.omega**3 * photon_number(t.omega, env)
               for t in mol.transitions) / (3.0 * math.pi * HBAR * C**3
                                            * EPSILON_0)


def heating_rate_profile(z, mol: Molecule, cavity: CavityGeometry,
                         env: ThermalEnvironment,
                         spec: QuadratureSpec = QuadratureSpec()):
    """Gamma(z) = Gamma_0 + cavity-induced change from Im Tr G.

    z may be a 1-D array of positions, giving an array of rates from one
    batched trace per transition.
    """
    gamma = heating_rate_free(mol, env)
    for t in mol.transitions:
        parts = cavity_trace_realfreq(z, t.omega, cavity, spec)
        gamma += (2.0 * MU_0 / (3.0 * HBAR)) * t.d_squared * t.omega**2 \
            * photon_number(t.omega, env) * parts.total.imag
    return gamma


def heating_rate_single_plate(distance: float, mol: Molecule,
                              mirror: MirrorSpec, env: ThermalEnvironment,
                              spec: QuadratureSpec = QuadratureSpec()) -> float:
    gamma = heating_rate_free(mol, env)
    for t in mol.transitions:
        parts = single_plate_trace_parts(distance, t.omega, mirror, spec)
        gamma += (2.0 * MU_0 / (3.0 * HBAR)) * t.d_squared * t.omega**2 \
            * photon_number(t.omega, env) * parts.total.imag
    return gamma
