"""Molecular data model, polarizability, photon numbers, Matsubara grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from .constants import HBAR, K_B

__all__ = [
    "Transition", "Molecule", "ThermalEnvironment",
    "polarizability_imag", "photon_number", "matsubara_frequency",
    "peak_photon_frequency", "builtin_molecules", "load_molecules", "LIH",
]


@dataclass(frozen=True)
class Transition:
    """One ground-state transition: angular frequency and summed |d|^2."""
    omega: float       # rad/s
    d_squared: float   # C^2 m^2, summed over the degenerate manifold

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError("transition frequency must be positive")
        if not self.d_squared > 0:
            raise ValueError("d_squared must be positive")


@dataclass(frozen=True)
class Molecule:
    name: str
    transitions: Tuple[Transition, ...]

    def __post_init__(self):
        if not self.transitions:
            raise ValueError("molecule needs at least one transition")
        freqs = [t.omega for t in self.transitions]
        if freqs != sorted(freqs):
            raise ValueError("transitions must be sorted ascending in omega")


@dataclass(frozen=True)
class ThermalEnvironment:
    temperature: float  # K

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")


# Rotational transition of LiH, summed over the first excited manifold.
LIH = Molecule("LiH", (Transition(omega=2.78973e12, d_squared=3.847e-58),))


def polarizability_imag(mol: Molecule, xi: float) -> float:
    """Ground-state polarizability alpha(i xi), real and positive."""
    if xi < 0:
        raise ValueError("xi must be non-negative")
    return (2.0 / (3.0 * HBAR)) * sum(
        t.d_squared * t.omega / (t.omega**2 + xi**2) for t in mol.transitions)


def photon_number(omega: float, env: ThermalEnvironment) -> float:
    """Bose-Einstein occupation n(omega) = 1/(e^{hbar w / k T} - 1).

    Evaluated as e^{-x}/(1 - e^{-x}), x = hbar w / k T, which tends to 0
    instead of overflowing as T -> 0.
    """
    if not omega > 0:
        raise ValueError("photon_number requires omega > 0")
    x = HBAR * omega / (K_B * env.temperature)
    return math.exp(-x) / -math.expm1(-x)


def matsubara_frequency(j: int, env: ThermalEnvironment) -> float:
    """xi_j = 2 pi j k_B T / hbar."""
    if j < 0:
        raise ValueError("Matsubara index must be non-negative")
    return 2.0 * math.pi * j * K_B * env.temperature / HBAR


def peak_photon_frequency(env: ThermalEnvironment) -> float:
    """argmax over omega of omega^3 n(omega): the most effective transition
    frequency for the resonant potential.  Solves x = 3 (1 - e^-x)."""
    x = 2.8
    for _ in range(60):
        x = 3.0 * (1.0 - math.exp(-x))
    return x * K_B * env.temperature / HBAR


def builtin_molecules() -> Dict[str, Molecule]:
    return {LIH.name: LIH}


def load_molecules(config_source: str) -> Dict[str, Molecule]:
    """Molecule registry from a config string, built-ins included."""
    from .config import load_registry
    return load_registry(config_source).molecules
