"""Potential assembly, well depths, general-state weighting, heating rates.

Numerical regression values are frozen from converged runs of this pipeline
(quadrature rel_tol 1e-9) and guard against silent changes; structural and
scaling properties are checked exactly.
"""

import math

import numpy as np
import pytest

import cavitycp.greens
import cavitycp.potential
from cavitycp import LIH
from cavitycp.asymptotics import I_phi_series
from cavitycp.constants import EPSILON_0, HBAR, K_B, MU_0
from cavitycp.greens import (CavityGeometry, PlateGeometry,
                             _propagating_series, _realfreq_trace,
                             cavity_trace_realfreq)
from cavitycp.config import builtin_materials
from cavitycp.materials import (ConstantR, HalfSpace, Stack, Vacuum,
                                quarter_wave_stack)
from cavitycp.molecules import Molecule, Transition, photon_number
from cavitycp.potential import (LevelScheme, general_state_potential,
                                heating_rate_free, heating_rate_profile,
                                nonresonant_potential, potential_components,
                                potential_depth, resonance_width,
                                resonant_potential, _ground_lines,
                                _newton_extrema)
from cavitycp.quadrature import QuadratureSpec

from tests.conftest import GOLD_DRUDE, SAPPHIRE_300K, SAPPHIRE_77K
from tests.test_greens import PLATE_IDS, PLATE_MIRRORS, _direct

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


def test_newton_extrema_rejects_wrong_kind_or_bracket(monkeypatch):
    # u(z) = cos(4 phi), z = sin(phi): a maximum at 0 and minima at
    # +-sqrt(1/2)
    b = np.array([0.0, 0.0, 1.0])
    phi = _newton_extrema(b, 1.0, [0.1, 0.6], [True, False], 0.3, 1e-14)
    assert np.sin(phi) == pytest.approx([0.0, math.sqrt(0.5)], abs=1e-12)
    with pytest.raises(ArithmeticError, match="no minimum"):
        _newton_extrema(b, 1.0, [0.1], [False], 0.3, 1e-14)
    with pytest.raises(ArithmeticError, match="no maximum"):
        _newton_extrema(b, 1.0, [0.1], [True], 0.05, 1e-14)
    # u(z) = cos(2 phi) = 1 - 2 z^2: from 0.9 the steps run to the edge
    # z = 1, where every series is stationary in phi
    with pytest.raises(ArithmeticError, match="no minimum"):
        _newton_extrema(np.array([0.0, 1.0]), 1.0, [0.9], [False], 1.0,
                        1e-14)
    monkeypatch.setattr(cavitycp.potential, "_NEWTON_STEPS", 2)
    with pytest.raises(ArithmeticError, match="did not converge"):
        _newton_extrema(b, 1.0, [0.6], [False], 0.3, 1e-14)


def test_newton_extrema_one_node_rule():
    # one term of the series, u(z) = 0.7 cos(6 phi) with z = h sin(phi):
    # extrema at phi = k pi/6, maxima for even k; a seed at 0 stays there
    # exactly
    half, xtol = 2.5, 1e-13
    ks = np.arange(-2, 3)
    exact = half * np.sin(ks * math.pi / 6.0)
    seeds = exact + np.where(ks == 0, 0.0, 0.05)
    phi = _newton_extrema(np.array([0.0, 0.0, 0.0, 0.7]), half, seeds,
                          ks % 2 == 0, 0.1, xtol)
    assert np.all(np.abs(half * np.sin(phi) - exact) <= xtol)
    assert phi[2] == 0.0


def test_newton_extrema_ignore_imaginary_weights(env300, quad, monkeypatch):
    # a depth reads Re Tr G_pr only: adding an imaginary part to its trace
    # leaves every extremum and value as it was
    mirror = ConstantR(0.99)
    want = potential_depth(LIH, mirror, 4, env300, quad)
    for c in (1.0, -7.5e3):
        def shifted(*args):
            prop, evan = _realfreq_trace(*args)
            return prop + 1j * c * np.abs(prop).max(), evan

        monkeypatch.setattr(cavitycp.greens, "_realfreq_trace", shifted)
        assert potential_depth(LIH, mirror, 4, env300, quad) == want


COMPRESSION_MIRRORS = {
    "gold": HalfSpace(GOLD_DRUDE),
    "sapphire_stack": Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 8,
                                               W_LIH)),
    "r1e-5": ConstantR(1.0 - 1e-5), "r1e-7": ConstantR(1.0 - 1e-7),
    "r1e-8": ConstantR(1.0 - 1e-8),
    "sapphire_77K_20_pairs": Stack(quarter_wave_stack(SAPPHIRE_77K, Vacuum(),
                                                      20, W_LIH)),
}
COMPRESSION_CASES = {f"{name}-nu{nu}": (COMPRESSION_MIRRORS[name], nu)
                     for name, nus in [
                         ("gold", (1, 2, 10, 40)),
                         ("sapphire_stack", (1, 2, 10)),
                         ("r1e-5", (2, 10)), ("r1e-7", (1, 2, 10)),
                         ("r1e-8", (2, 4)),
                         ("sapphire_77K_20_pairs", (1, 2, 6, 10))]
                     for nu in nus}


def _extrema(rep):
    """Positions of a report's extrema (and, for nu = 1, the edge) and
    their values."""
    positions = rep.maxima_positions + rep.minima_positions
    values = rep.maxima_values + rep.minima_values
    if not rep.is_well_depth:
        positions += rep.depth_positions[1:]
        values += (rep.maxima_values[0] - rep.depth,)
    return np.array(positions), np.array(values)


def _direct_trace(zs, geometry, spec, monkeypatch):
    """Re Tr G_pr at each of zs as its own column."""
    with monkeypatch.context() as m:
        _direct(m)
        return _realfreq_trace(zs, W_LIH, geometry, spec, False)[0].real


@pytest.mark.parametrize("mirror, nu", COMPRESSION_CASES.values(),
                         ids=COMPRESSION_CASES.keys())
def test_compressed_depth_rule_matches_full_rule(mirror, nu, env300, quad,
                                                 monkeypatch):
    # potential_depth compresses Re Tr G_pr to its Chebyshev series over
    # the edge (greens._propagating_series): across the cavity, and at the
    # refined extrema, the series agrees with the trace integrated directly
    # at each position, within 10 rel_tol of the largest value
    rep = potential_depth(LIH, mirror, nu, env300, quad)
    cavity = CavityGeometry(rep.width, mirror)
    edge = 0.5 * rep.width - rep.width / 1000.0
    zs = np.linspace(-edge, edge, 201)
    c = _propagating_series(cavity, W_LIH, edge, quad).real
    got = np.cos(np.outer(np.arccos(zs / edge), np.arange(len(c)))) @ c
    want = _direct_trace(zs, cavity, quad, monkeypatch)
    assert np.max(np.abs(got - want)) <= 10.0 * quad.rel_tol \
        * np.max(np.abs(want))
    positions, values = _extrema(rep)
    want = _direct_trace(positions, cavity, quad, monkeypatch)
    got = values / _ground_lines(LIH, env300)[0][1]
    assert np.max(np.abs(got - want)) <= 10.0 * quad.rel_tol \
        * np.max(np.abs(want))


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


@pytest.mark.parametrize("delta", [1e-5, 1e-8, 1e-12])
def test_constant_r_depth_matches_series_at_refined_extrema(delta, env300):
    # the exact Lerch series of I(phi) = (w/c)^2 Re Tr G_pr at the depth's
    # own refined positions phi = z/a: the subtracted tuned pole leaves no
    # floor ~1e-17/delta, so every order and delta meets 10 rel_tol
    spec = QuadratureSpec()
    coupling = photon_number(W_LIH, env300) * D2_LIH / (3.0 * EPSILON_0)
    for nu in range(2, 11):
        rep = potential_depth(LIH, ConstantR(1.0 - delta), nu, env300, spec)
        i_max, i_min = I_phi_series(
            1.0 - delta, nu, LAM, np.array(rep.depth_positions) / rep.width)
        want = coupling * (i_max - i_min)
        assert abs(rep.depth - want) <= 10.0 * spec.rel_tol * want


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
    pc = potential_components(5e-5, LIH, PlateGeometry(gold), env300, quad)
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


def test_general_state_batched_matches_scalar(env300, quad_fast):
    # an array of positions gives each position its own U_nr and resonant
    # part, equal to its scalar call, in a cavity and at a plate
    scheme = LevelScheme(energies=(0.0, W_LIH, 2.5 * W_LIH),
                         d_squared={(0, 1): D2_LIH, (1, 2): 0.5 * D2_LIH})
    populations = (0.7, 0.2, 0.1)
    a = resonance_width(LIH.transitions[0], 2)
    for geometry, zs in (
            (CavityGeometry(width=a, mirror=ConstantR(0.9)),
             np.array([0.0, 0.3 * a, -0.45 * a])),
            (PlateGeometry(HalfSpace(GOLD_DRUDE)),
             np.array([LAM / 100.0, LAM / 4.0, LAM]))):
        batch = general_state_potential(zs, scheme, populations, geometry,
                                        env300, quad_fast)
        single = [general_state_potential(float(z), scheme, populations,
                                          geometry, env300, quad_fast)
                  for z in zs]
        assert all(isinstance(u, float) for u in single)
        assert batch.shape == zs.shape
        assert np.all(np.abs(batch - single)
                      <= 10.0 * quad_fast.rel_tol * np.max(np.abs(single)))


def test_line_sums_trace_each_frequency_once(env300, quad_fast,
                                             monkeypatch):
    # a two-level mixture has an absorption line (from level 0) and an
    # emission line (from level 1) at the same |w_kn|: they share one trace,
    # and the potential equals the per-pair sum
    scheme = LevelScheme(energies=(0.0, W_LIH), d_squared={(0, 1): D2_LIH})
    cav = CavityGeometry(width=resonance_width(LIH.transitions[0], 2),
                         mirror=HalfSpace(GOLD_DRUDE))
    zs = np.linspace(-0.45, 0.45, 7) * cav.width
    traced = []

    def counted(z, omega, *args):
        traced.append(omega)
        return cavity_trace_realfreq(z, omega, *args)

    monkeypatch.setattr(cavitycp.potential, "cavity_trace_realfreq", counted)
    got = general_state_potential(zs, scheme, (0.7, 0.3), cav, env300,
                                  quad_fast)
    assert traced == [W_LIH]
    tr = cavity_trace_realfreq(zs, W_LIH, cav, quad_fast).total.real
    n = photon_number(W_LIH, env300)
    want = 0.4 * nonresonant_potential(zs, LIH, cav, env300, quad_fast) \
        + 0.7 * (MU_0 / 3.0 * W_LIH**2 * n * D2_LIH * tr) \
        + 0.3 * (MU_0 / 3.0 * W_LIH**2 * -(n + 1.0) * D2_LIH * tr)
    assert np.all(np.abs(got - want) <= 1e-14 * np.max(np.abs(want)))


def test_line_sums_match_per_transition_loop(env300, quad_fast):
    # two transitions: the batched parts equal a loop over the transitions
    # (U_pr, U_ev exactly; Gamma to rounding), and each scalar call gives a
    # float equal to its entry of the batch
    mol = Molecule("two-line", (Transition(W_LIH, D2_LIH),
                                Transition(1.7 * W_LIH, 0.5 * D2_LIH)))
    cav = CavityGeometry(width=resonance_width(LIH.transitions[0], 2),
                         mirror=HalfSpace(GOLD_DRUDE))
    zs = np.linspace(-0.45, 0.45, 7) * cav.width
    u_pr = u_ev = gamma = 0.0
    for t in mol.transitions:
        weight = MU_0 / 3.0 * t.omega**2 * photon_number(t.omega, env300) \
            * t.d_squared
        parts = cavity_trace_realfreq(zs, t.omega, cav, quad_fast)
        u_pr += weight * parts.propagating.real
        u_ev += weight * parts.evanescent.real
        gamma += 2.0 / HBAR * weight * parts.total.imag
    gamma += heating_rate_free(mol, env300)
    got_pr, got_ev = resonant_potential(zs, mol, cav, env300, quad_fast)
    assert np.array_equal(got_pr, u_pr) and np.array_equal(got_ev, u_ev)
    got = heating_rate_profile(zs, mol, cav, env300, quad_fast)
    assert np.all(np.abs(got - gamma) <= 1e-15 * np.max(np.abs(gamma)))
    for i, z in enumerate(zs.tolist()):
        for batch, single in zip(
                (got_pr, got_ev, got),
                (*resonant_potential(z, mol, cav, env300, quad_fast),
                 heating_rate_profile(z, mol, cav, env300, quad_fast))):
            assert isinstance(single, float)
            assert abs(single - batch[i]) \
                <= 10.0 * quad_fast.rel_tol * np.max(np.abs(batch))


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
    far = heating_rate_profile(10.0 * LAM, LIH, PlateGeometry(gold), env300,
                               quad)
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
    gammas = heating_rate_profile(np.geomspace(LAM / 100.0, 2.0 * LAM, 9),
                                  LIH, PlateGeometry(mirror), env300,
                                  quad_fast)
    assert np.all(gammas >= 0)


@pytest.mark.parametrize("mirror", PLATE_MIRRORS, ids=PLATE_IDS)
def test_batched_plate_matches_scalar(mirror, env300, quad_fast):
    # one batched call over 9 distances equals 9 scalar calls, column by
    # column, within 10 rel_tol of the column's largest value
    plate = PlateGeometry(mirror)
    ds = np.geomspace(LAM / 100.0, 2.0 * LAM, 9)
    columns = {
        "gamma": lambda d: heating_rate_profile(d, LIH, plate, env300,
                                                quad_fast),
        "U_nr": lambda d: nonresonant_potential(d, LIH, plate, env300,
                                                quad_fast),
        "U_pr": lambda d: resonant_potential(d, LIH, plate, env300,
                                             quad_fast)[0],
        "U_ev": lambda d: resonant_potential(d, LIH, plate, env300,
                                             quad_fast)[1]}
    for name, column in columns.items():
        batch = column(ds)
        single = np.array([column(float(d)) for d in ds])
        assert batch.shape == ds.shape, name
        assert np.all(np.abs(batch - single)
                      <= 10.0 * quad_fast.rel_tol * np.max(np.abs(single))), \
            name


SEEDED_MIRRORS = {
    "gold": HalfSpace(GOLD_DRUDE),
    "sapphire_stack": Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 8,
                                               W_LIH)),
    "constant_r": ConstantR(1.0 - 1e-5),
}
SEEDED_CASES = {f"{name}-nu{nu}": (mirror, nu)
                for name, mirror in SEEDED_MIRRORS.items()
                for nu in range(1, 11)}


@pytest.mark.parametrize("mirror, nu", SEEDED_CASES.values(),
                         ids=SEEDED_CASES.keys())
def test_depth_refined_pass_reuses_first_pass(mirror, nu, env300, quad,
                                              reflection_evaluations,
                                              monkeypatch):
    # a depth makes one trace, and every reflection evaluation is in it:
    # the values at the refined extrema (and, for nu = 1, the edge) come
    # from its interpolant, within 10 rel_tol of the largest of a direct
    # trace at each of them
    traces = []

    def recorded(*args):
        before = sum(reflection_evaluations)
        out = _realfreq_trace(*args)
        traces.append(sum(reflection_evaluations) - before)
        return out

    monkeypatch.setattr(cavitycp.greens, "_realfreq_trace", recorded)
    rep = potential_depth(LIH, mirror, nu, env300, quad)
    assert traces == [sum(reflection_evaluations)] and traces[0] > 0
    monkeypatch.undo()
    positions, values = _extrema(rep)
    want = _direct_trace(positions, CavityGeometry(rep.width, mirror), quad,
                         monkeypatch)
    got = values / _ground_lines(LIH, env300)[0][1]
    assert np.max(np.abs(got - want)) <= 10.0 * quad.rel_tol \
        * np.max(np.abs(want))
