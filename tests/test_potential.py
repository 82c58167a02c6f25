"""Potential assembly, well depths, general-state weighting, heating rates.

Numerical regression values are frozen from converged runs of this pipeline
(quadrature rel_tol 1e-9) and guard against silent changes; structural and
scaling properties are checked exactly.
"""

import math

import numpy as np
import pytest

from cavitycp import LIH, ThermalEnvironment
from cavitycp.constants import HBAR, K_B
from cavitycp.greens import CavityGeometry
from cavitycp.config import builtin_materials
from cavitycp.materials import (ConstantR, HalfSpace, Stack, Vacuum,
                                quarter_wave_stack)
from cavitycp.molecules import Molecule, Transition, photon_number
from cavitycp.potential import (LevelScheme, general_state_potential,
                                heating_rate_free, heating_rate_profile,
                                heating_rate_single_plate,
                                nonresonant_potential, potential_components,
                                potential_depth, resonance_width,
                                single_plate_components, _newton_extrema)

from tests.conftest import GOLD_DRUDE, SAPPHIRE_300K

W_LIH = LIH.transitions[0].omega
D2_LIH = LIH.transitions[0].d_squared
LAM = 2.0 * math.pi * 299792458.0 / W_LIH


def test_resonance_width():
    a2 = resonance_width(LIH.transitions[0], 2)
    assert a2 == pytest.approx(6.752092737680181e-4, rel=1e-12)
    assert a2 == pytest.approx(673e-6, rel=0.01)
    assert resonance_width(LIH.transitions[0], 5) == pytest.approx(2.5 * a2,
                                                                  rel=1e-14)
    with pytest.raises(ValueError):
        resonance_width(LIH.transitions[0], 0)


def test_gold_depth_regression(gold, env300, env77, quad):
    rep = potential_depth(LIH, gold, 2, env300, quad)
    assert rep.is_well_depth
    assert rep.depth == pytest.approx(5.605037122200923e-35, rel=1e-6)
    # nu = 2: the single minimum sits at the cavity center
    assert len(rep.minima_positions) == 1
    # position resolved well inside the benchmark's 1e-5 of the width
    assert abs(rep.minima_positions[0]) < 1e-5 * rep.width
    rep77 = potential_depth(LIH, gold, 2, env77, quad)
    assert rep77.depth == pytest.approx(1.2941533550722964e-35, rel=1e-6)


def test_gold_nu2_minimum_at_centre(gold, env300, quad):
    rep = potential_depth(LIH, gold, 2, env300, quad)
    assert abs(rep.minima_positions[0]) <= 1e-9 * rep.width


def test_newton_extrema_rejects_wrong_kind_or_bracket():
    # u(z) = cos(2 z): maximum at 0, minima at +-pi/2
    rule = (np.array([1.0]), np.array([1.0 + 0.0j]))
    z = _newton_extrema(rule, [0.1, 1.4], [True, False], 0.3, 2.0, 1e-14)
    assert z == pytest.approx([0.0, math.pi / 2.0], abs=1e-12)
    with pytest.raises(ArithmeticError):
        _newton_extrema(rule, [0.1], [False], 0.3, 2.0, 1e-14)
    with pytest.raises(ArithmeticError):
        _newton_extrema(rule, [0.1], [True], 0.05, 2.0, 1e-14)
    with pytest.raises(ArithmeticError):
        _newton_extrema(rule, [1.4], [False], 0.3, 1.5, 1e-14)


def test_nonresonant_finite_for_lossy_dielectric(env300, quad_fast):
    # ConstantLossy continues to the imaginary axis as eps_real
    mats = builtin_materials()
    cav_a = resonance_width(LIH.transitions[0], 2)
    mirrors = [HalfSpace(mats["GaAs"]),
               Stack(quarter_wave_stack(mats["GaAs"], mats["AlAs"], 3,
                                        W_LIH))]
    for mirror in mirrors:
        cav = CavityGeometry(width=cav_a, mirror=mirror)
        u_nr = nonresonant_potential(1e-4, LIH, cav, env300, quad_fast)
        assert math.isfinite(u_nr) and u_nr != 0.0


def test_gold_nu1_peak_height(gold, env300, quad):
    rep = potential_depth(LIH, gold, 1, env300, quad)
    assert not rep.is_well_depth
    assert rep.minima_positions == ()
    assert rep.depth == pytest.approx(9.475395767538382e-35, rel=1e-6)


def test_depth_bracketed_by_constant_r(gold, env300, quad):
    # gold's effective reflectivity at the LiH line lies between r = 0.99
    # and r = 0.999, so its well depth must too
    lo = potential_depth(LIH, ConstantR(0.99), 2, env300, quad).depth
    hi = potential_depth(LIH, ConstantR(0.999), 2, env300, quad).depth
    gold_depth = 5.605037122200923e-35  # from the regression above
    assert lo < gold_depth < hi


def test_extrema_structure_nu3(env300, quad):
    rep = potential_depth(LIH, ConstantR(0.9), 3, env300, quad)
    assert len(rep.maxima_positions) == 3
    assert len(rep.minima_positions) == 2
    assert rep.is_well_depth
    assert rep.depth > 0
    # extrema alternate and interleave
    seq = sorted(list(rep.maxima_positions) + list(rep.minima_positions))
    mins = set(rep.minima_positions)
    assert [x in mins for x in seq] == [False, True, False, True, False]


def test_depth_linear_in_d_squared(env300, quad):
    mol2 = Molecule("LiH-x2",
                    (Transition(omega=W_LIH, d_squared=2.0 * D2_LIH),))
    d1 = potential_depth(LIH, ConstantR(0.9), 2, env300, quad).depth
    d2 = potential_depth(mol2, ConstantR(0.9), 2, env300, quad).depth
    assert d2 == pytest.approx(2.0 * d1, rel=1e-9)


def test_depth_scales_as_w3_n(env300, quad):
    # for an ideal frequency-independent mirror the resonant well depth at
    # fixed d^2 scales as omega^3 n(omega)
    scale = 1.3
    mol_b = Molecule("fast",
                     (Transition(omega=scale * W_LIH, d_squared=D2_LIH),))
    d_a = potential_depth(LIH, ConstantR(0.95), 2, env300, quad).depth
    d_b = potential_depth(mol_b, ConstantR(0.95), 2, env300, quad).depth
    expect = scale**3 * photon_number(scale * W_LIH, env300) \
        / photon_number(W_LIH, env300)
    assert d_b / d_a == pytest.approx(expect, rel=1e-8)


def test_components_regression(gold, env300, quad):
    cav = CavityGeometry(width=resonance_width(LIH.transitions[0], 2),
                         mirror=gold)
    pc = potential_components(1.1e-4, LIH, cav, env300, quad)
    assert pc.U_nr == pytest.approx(-8.016344747142012e-37, rel=1e-6)
    assert pc.U_pr == pytest.approx(6.967400569587039e-36, rel=1e-6)
    assert pc.U_ev == pytest.approx(4.132142563760366e-36, rel=1e-6)
    assert pc.U_total == pc.U_nr + pc.U_pr + pc.U_ev


def test_single_plate_regression(gold, env300, quad):
    pc = single_plate_components(5e-5, LIH, gold, env300, quad)
    assert pc.U_nr == pytest.approx(-6.490356210471716e-35, rel=1e-6)
    assert pc.U_pr == pytest.approx(5.244541267396144e-36, rel=1e-6)
    assert pc.U_ev == pytest.approx(6.275165642556924e-35, rel=1e-6)


def test_general_state_ground_reduction(env300, quad):
    scheme = LevelScheme(energies=(0.0, W_LIH), d_squared={(0, 1): D2_LIH})
    cav = CavityGeometry(width=resonance_width(LIH.transitions[0], 2),
                         mirror=ConstantR(0.9))
    for z in (0.0, 9e-5, -1.6e-4):
        dedicated = potential_components(z, LIH, cav, env300, quad).U_total
        general = general_state_potential(z, scheme, (1.0, 0.0), cav, env300,
                                          quad)
        assert general == pytest.approx(dedicated, rel=1e-12)


def test_general_state_thermal_equilibrium(env300, quad):
    # at thermal populations the resonant absorption and emission channels
    # cancel, leaving the population-weighted nonresonant part only
    scheme = LevelScheme(energies=(0.0, W_LIH), d_squared={(0, 1): D2_LIH})
    cav = CavityGeometry(width=resonance_width(LIH.transitions[0], 2),
                         mirror=ConstantR(0.9))
    x = HBAR * W_LIH / (K_B * 300.0)
    p1 = math.exp(-x) / (1.0 + math.exp(-x))
    p0 = 1.0 - p1
    z = 1e-4
    got = general_state_potential(z, scheme, (p0, p1), cav, env300, quad)
    # the excited-state polarizability is the negative of the ground one
    expect = (p0 - p1) * nonresonant_potential(z, LIH, cav, env300, quad)
    assert got == pytest.approx(expect, rel=1e-10)


def test_general_state_validation(env300, quad):
    scheme = LevelScheme(energies=(0.0, W_LIH), d_squared={(0, 1): D2_LIH})
    cav = CavityGeometry(width=1e-4, mirror=ConstantR(0.5))
    with pytest.raises(ValueError):
        general_state_potential(0.0, scheme, (1.0,), cav, env300, quad)
    with pytest.raises(ValueError):
        general_state_potential(0.0, scheme, (1.2, -0.2), cav, env300, quad)
    with pytest.raises(ValueError):
        general_state_potential(0.0, scheme, (0.6, 0.6), cav, env300, quad)
    assert scheme.coupling(1, 0) == scheme.coupling(0, 1) == D2_LIH
    assert scheme.coupling(0, 0) == 0.0


def test_heating_rate_free_values(env300, env77):
    assert heating_rate_free(LIH, env300) == pytest.approx(
        0.47852188837379356, rel=1e-9)
    assert heating_rate_free(LIH, env77) == pytest.approx(
        0.11048645955645402, rel=1e-9)


def test_heating_center_enhancement_nu1(gold, env300, quad):
    cav = CavityGeometry(width=resonance_width(LIH.transitions[0], 1),
                         mirror=gold)
    ratio = heating_rate_profile(0.0, LIH, cav, env300, quad) \
        / heating_rate_free(LIH, env300)
    assert ratio == pytest.approx(2.0058803741330187, rel=1e-6)


def test_heating_profile_positive(gold, env300, quad):
    cav = CavityGeometry(width=resonance_width(LIH.transitions[0], 2),
                         mirror=gold)
    edge = 0.5 * cav.width - cav.width / 1000.0
    zs = np.linspace(-edge, edge, 9)
    for z in zs:
        assert heating_rate_profile(float(z), LIH, cav, env300, quad) > 0
    assert np.all(heating_rate_profile(zs, LIH, cav, env300, quad) > 0)


def test_heating_single_plate_far_field(gold, env300, quad):
    # far from the plate the rate relaxes to the free-space value
    far = heating_rate_single_plate(10.0 * LAM, LIH, gold, env300, quad)
    assert far == pytest.approx(heating_rate_free(LIH, env300), rel=0.1)


HEATING_MIRRORS = [
    HalfSpace(GOLD_DRUDE), HalfSpace(SAPPHIRE_300K),
    Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 8, W_LIH)),
    ConstantR(0.9)]


@pytest.mark.parametrize("mirror", HEATING_MIRRORS,
                         ids=["gold", "sapphire", "sapphire_stack",
                              "constant_r"])
def test_heating_nonnegative(mirror, env300, quad_fast):
    # passive mirrors: Gamma(z) >= 0 across a nu = 1, 2 cavity (up to the
    # wall) and from lam/100 to 2 lam in front of one plate
    for nu in (1, 2):
        cav = CavityGeometry(width=resonance_width(LIH.transitions[0], nu),
                             mirror=mirror)
        edge = 0.5 * cav.width - cav.width / 1000.0
        gammas = heating_rate_profile(np.linspace(-edge, edge, 41), LIH, cav,
                                      env300, quad_fast)
        assert np.all(gammas >= 0)
    for d in np.geomspace(LAM / 100.0, 2.0 * LAM, 9):
        assert heating_rate_single_plate(float(d), LIH, mirror, env300,
                                         quad_fast) >= 0
