"""Molecular data, polarizability, thermal occupation, Matsubara grid."""

import math

import numpy as np
import pytest

from cavitycp.constants import HBAR, K_B
from cavitycp.molecules import (LIH, Molecule, ThermalEnvironment, Transition,
                                builtin_molecules, load_molecules,
                                matsubara_frequency, peak_photon_frequency,
                                photon_number, polarizability_imag)


def test_lih_static_polarizability():
    # alpha(0) = 2 d^2 / (3 hbar w) for a single transition
    alpha0 = polarizability_imag(LIH, 0.0)
    expect = 2.0 * 3.847e-58 / (3.0 * HBAR * 2.78973e12)
    assert alpha0 == pytest.approx(expect, rel=1e-14)
    assert alpha0 == pytest.approx(8.72e-37, rel=2e-3)


def test_polarizability_monotone_decreasing():
    xis = np.logspace(9, 16, 30)
    vals = [polarizability_imag(LIH, x) for x in xis]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_polarizability_multi_transition_additive():
    t1 = Transition(omega=1e12, d_squared=1e-58)
    t2 = Transition(omega=4e12, d_squared=2e-58)
    both = Molecule("two", (t1, t2))
    xi = 7.7e11
    assert polarizability_imag(both, xi) == pytest.approx(
        polarizability_imag(Molecule("a", (t1,)), xi)
        + polarizability_imag(Molecule("b", (t2,)), xi), rel=1e-14)


def test_polarizability_domain():
    with pytest.raises(ValueError):
        polarizability_imag(LIH, -1.0)


def test_photon_number_lih_room_temperature(env300):
    assert photon_number(2.78973e12, env300) == pytest.approx(13.58, rel=1e-3)


def test_photon_number_identity(rng, env300):
    # n(w) * (e^{hbar w / kT} - 1) = 1 across ten decades of frequency
    for omega in 10 ** rng.uniform(10, 16, size=200):
        x = HBAR * omega / (K_B * 300.0)
        assert photon_number(omega, env300) * math.expm1(x) == \
            pytest.approx(1.0, rel=1e-12)


def test_photon_number_domain(env300):
    with pytest.raises(ValueError):
        photon_number(0.0, env300)
    with pytest.raises(ValueError):
        ThermalEnvironment(0.0)


def test_matsubara_frequency(env300):
    assert matsubara_frequency(0, env300) == 0.0
    assert matsubara_frequency(1, env300) == pytest.approx(2.466e14, rel=1e-3)
    assert matsubara_frequency(5, env300) == pytest.approx(
        5.0 * matsubara_frequency(1, env300), rel=1e-14)
    with pytest.raises(ValueError):
        matsubara_frequency(-1, env300)


def test_peak_photon_frequency(env300):
    # maximizer of w^3 n(w): x = hbar w / kT solves x = 3 (1 - e^-x)
    w_star = peak_photon_frequency(env300)
    x = HBAR * w_star / (K_B * 300.0)
    assert x == pytest.approx(3.0 * (1.0 - math.exp(-x)), rel=1e-12)
    # discrete check that it is actually a maximum
    def g(w):
        return w**3 * photon_number(w, env300)
    assert g(w_star) > g(1.001 * w_star)
    assert g(w_star) > g(0.999 * w_star)


def test_molecule_validation():
    with pytest.raises(ValueError):
        Transition(omega=-1.0, d_squared=1e-58)
    with pytest.raises(ValueError):
        Transition(omega=1e12, d_squared=0.0)
    with pytest.raises(ValueError):
        Molecule("empty", ())
    with pytest.raises(ValueError):
        Molecule("unsorted", (Transition(2e12, 1e-58),
                              Transition(1e12, 1e-58)))


def test_builtin_registry():
    mols = builtin_molecules()
    assert mols["LiH"] is LIH


def test_load_molecules_roundtrip():
    mols = load_molecules("""
[molecule:NaCs]
transition = 1.2e12 2.5e-58
transition = 3.4e12 1.1e-58
""")
    assert "LiH" in mols
    nacs = mols["NaCs"]
    assert [t.omega for t in nacs.transitions] == [1.2e12, 3.4e12]


def test_load_molecules_error():
    from cavitycp.config import ConfigError
    with pytest.raises(ConfigError):
        load_molecules("[molecule:bad]\ntransition = 1.0\n")


def test_photon_number_vanishes_at_zero_temperature():
    # hbar w / k T ~ 1060 for LiH at 0.02 K: e^x overflows, n is 0
    assert photon_number(LIH.transitions[0].omega,
                         ThermalEnvironment(0.02)) == 0.0


def test_photon_number_matches_expm1_form():
    env = ThermalEnvironment(1.0)
    for x in np.logspace(-3, math.log10(700.0), 200):
        omega = float(x) * K_B * env.temperature / HBAR
        x_used = HBAR * omega / (K_B * env.temperature)
        assert photon_number(omega, env) == pytest.approx(
            1.0 / math.expm1(x_used), rel=1e-15)
