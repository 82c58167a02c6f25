"""Thermal Casimir-Polder potentials, well depths, and heating rates for
ground-state polar molecules in planar cavities."""

from .constants import C, EPSILON_0, HBAR, K_B, MU_0
from .quadrature import QuadratureError, QuadratureSpec, adaptive_integrate
from .materials import ConstantLossy, ConstantR, Drude, HalfSpace, Layer, \
    Stack, Vacuum, quarter_wave_stack, reflection_coefficients, \
    static_limit_reflection, transverse_wavenumber
from .greens import CavityGeometry, GreenTraceParts, PlateGeometry, \
    cavity_trace_imagfreq, cavity_trace_realfreq, zero_frequency_trace_limit
from .molecules import LIH, Molecule, ThermalEnvironment, Transition, \
    builtin_molecules, matsubara_frequency, peak_photon_frequency, \
    photon_number, polarizability_imag
from .potential import ExtremumReport, LevelScheme, PotentialComponents, \
    general_state_potential, heating_rate_free, heating_rate_profile, \
    nonresonant_potential, potential_components, potential_depth, \
    resonance_width, resonant_potential
from .asymptotics import I_half_closed, I_phi_series, depth_nu1_asym, \
    depth_scaling, phi_asymptote, phi_nu
from .config import ConfigError, Registry, load_registry

__version__ = "0.1.0"
