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
from cavitycp import LIH, ThermalEnvironment
from cavitycp.constants import C, HBAR, K_B, MU_0
from cavitycp.greens import (CavityGeometry, PlateGeometry, _arch, _kernel,
                             _paths, _realfreq_trace, cavity_trace_realfreq)
from cavitycp.config import builtin_materials
from cavitycp.materials import (ConstantR, HalfSpace, Stack, Vacuum,
                                quarter_wave_stack)
from cavitycp.molecules import Molecule, Transition, photon_number
from cavitycp.quadrature import QuadratureSpec
from cavitycp.potential import (LevelScheme, general_state_potential,
                                heating_rate_free, heating_rate_profile,
                                nonresonant_potential, potential_components,
                                potential_depth, resonance_width,
                                resonant_potential, _newton_extrema)

from tests.conftest import GOLD_DRUDE, SAPPHIRE_300K, SAPPHIRE_77K
from tests.test_greens import PLATE_IDS, PLATE_MIRRORS

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
    # width 0: u(z) = 2 cos(2 z), maximum at 0, minima at +-pi/2
    rule = (np.array([1.0]), np.array([1.0 + 0.0j]))
    z = _newton_extrema(rule, 0.0, [0.1, 1.4], [True, False], 0.3, 2.0,
                        1e-14)
    assert z == pytest.approx([0.0, math.pi / 2.0], abs=1e-12)
    with pytest.raises(ArithmeticError):
        _newton_extrema(rule, 0.0, [0.1], [False], 0.3, 2.0, 1e-14)
    with pytest.raises(ArithmeticError):
        _newton_extrema(rule, 0.0, [0.1], [True], 0.05, 2.0, 1e-14)
    with pytest.raises(ArithmeticError):
        _newton_extrema(rule, 0.0, [1.4], [False], 0.3, 1.5, 1e-14)


def test_newton_extrema_one_node_rule():
    # width 0: u(z) = 1.4 cos(2 beta0 z), extrema at m pi / (2 beta0),
    # maxima for even m
    beta0, xtol = 2.5, 1e-13
    ms = np.arange(-3, 4)
    exact = ms * math.pi / (2.0 * beta0)
    rule = (np.array([beta0]), np.array([0.7 - 3.0j]))
    z = _newton_extrema(rule, 0.0, exact + 0.06, ms % 2 == 0, 0.1, 2.0,
                        xtol)
    assert np.all(np.abs(z - exact) <= xtol)


def test_newton_extrema_ignore_imaginary_weights():
    # on real nodes at width 0, u(z) = 2 Re sum(W cos(2 beta z)) does not
    # depend on Im(W)
    beta = np.linspace(0.5, 1.5, 9)
    wf = np.exp(-beta) * (1.0 + 0.3j)
    seeds, maximum = [0.1, 1.4], [True, False]
    z = _newton_extrema((beta, wf), 0.0, seeds, maximum, 0.5, 2.0, 1e-14)
    for c in (1.0, -7.5e3, np.linspace(-2.0, 2.0, 9)):
        assert np.array_equal(_newton_extrema(
            (beta, wf + 1j * c), 0.0, seeds, maximum, 0.5, 2.0, 1e-14), z)


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
                         ("gold", (2, 10, 40)), ("sapphire_stack", (1, 2, 10)),
                         ("r1e-5", (2, 10)), ("r1e-7", (2, 10)),
                         ("r1e-8", (2, 4)),
                         ("sapphire_77K_20_pairs", (2, 6, 10))]
                     for nu in nus}


@pytest.mark.parametrize("mirror, nu", COMPRESSION_CASES.values(),
                         ids=COMPRESSION_CASES.keys())
def test_compressed_depth_rule_matches_full_rule(mirror, nu, env300, quad,
                                                 monkeypatch):
    # potential_depth's Newton steps run on the first trace's rule moved to
    # Chebyshev points in the arch parameter; the full Kronrod rule, which
    # rule() passes through for paths too long to compress, gives the same
    # u(z), u'(z) and refined extrema
    rules, newton = [], []

    def recorded(*args):
        out = _realfreq_trace(*args)
        rules.append(out[2])
        return out

    def refined(rule, *args):
        newton.append((rule, args, _newton_extrema(rule, *args)))
        return newton[-1][2]

    monkeypatch.setattr(cavitycp.potential, "_realfreq_trace", recorded)
    monkeypatch.setattr(cavitycp.potential, "_newton_extrema", refined)
    potential_depth(LIH, mirror, nu, env300, quad)
    (compressed, args, z), = newton
    a = args[0]
    full = rules[0](1e6 * a)
    assert len(compressed[0]) < len(full[0])
    zs = np.linspace(-0.5, 0.5, 201) * a

    def u_and_slope(rule):
        beta, w = rule
        minus, plus = (np.exp(1j * np.outer(beta, a + s * zs))
                       for s in (-2.0, 2.0))
        return (w @ (minus + plus)).real, (2j * beta * w @ (plus - minus)).real

    for got, want in zip(u_and_slope(compressed), u_and_slope(full)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(_newton_extrema(full, *args) - z)) <= 1e-14 * a


def test_depth_rule_passes_through_unless_points_are_fewer(quad):
    # for paths too long for fewer Chebyshev points than Kronrod nodes the
    # rule is the trace's own: 15 nodes per final panel, on the arch; with
    # no grazing term (constant r) both forms give the trace's values
    cav = CavityGeometry(resonance_width(LIH.transitions[0], 2),
                         ConstantR(1.0 - 1e-5))
    zs = np.array([0.0, 0.1, 0.3]) * cav.width
    prop, _, rule, (_, edges, store) = _realfreq_trace(zs, W_LIH, cav, quad,
                                                       False)
    full, compressed = rule(1e6 * cav.width), rule(2.0 * cav.width)
    assert len(full[0]) == 15 * len(edges)
    assert np.isin(full[0].real, store[0]).all()
    assert np.array_equal(full[0], _arch(full[0].real, W_LIH / C, 0.0)[0])
    assert len(compressed[0]) == 42
    for beta, w in (full, compressed):
        assert np.max(np.abs(w @ _paths(beta, zs, cav) - prop)) \
            <= 1e-13 * np.max(np.abs(prop))


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
    # potential_depth's trace at the refined extrema (and, for nu = 1, the
    # edge) is seeded with its trace at the seeds: no reflection
    # evaluations, and the values of an unseeded trace at the same positions
    traces = []

    def recorded(zs, omega, geometry, spec, evanescent, seed=None):
        before = sum(reflection_evaluations)
        out = _realfreq_trace(zs, omega, geometry, spec, evanescent, seed)
        traces.append(((zs, omega, geometry, spec, evanescent), seed, out,
                       sum(reflection_evaluations) - before))
        return out

    monkeypatch.setattr(cavitycp.potential, "_realfreq_trace", recorded)
    potential_depth(LIH, mirror, nu, env300, quad)
    (_, _, first, first_cost), (args, seed, refined, cost) = traces
    assert seed is first[3]
    assert first_cost > 0 and cost == 0
    unseeded = _realfreq_trace(*args)[0]
    assert np.all(np.abs(refined[0] - unseeded)
                  <= 10.0 * quad.rel_tol * np.abs(unseeded))


def test_seeded_trace_misses(quad, reflection_evaluations):
    # at positions the seed's panels resolve too coarsely, the missing nodes
    # are evaluated and every position still converges to the unseeded value
    for geometry, z0, zs in (
            (CavityGeometry(3.0 * LAM, ConstantR(0.99)), 0.0,
             np.array([-0.45, 0.3, 0.45]) * 3.0 * LAM),
            (PlateGeometry(HalfSpace(GOLD_DRUDE)), LAM / 8.0,
             np.array([LAM / 8.0, 5 * LAM]))):
        _, _, _, seed = _realfreq_trace(np.array([z0]), W_LIH, geometry,
                                        quad, False)
        reflection_evaluations.clear()
        seeded = _realfreq_trace(zs, W_LIH, geometry, quad, False, seed)[0]
        assert sum(reflection_evaluations) > 0
        unseeded = _realfreq_trace(zs, W_LIH, geometry, quad, False)[0]
        assert np.all(np.abs(seeded - unseeded)
                      <= 10.0 * quad.rel_tol * np.abs(unseeded))


def _node_values(t, geometry):
    """K at the arch nodes t, evaluated directly (x_lo = 1e-6 w/c where
    the geometry has a grazing term, else 0)."""
    wc = W_LIH / C
    x_lo = 1e-6 * wc if geometry.resonance_seed(W_LIH)[0] != 0 else 0.0
    return _kernel(_arch(t, wc, x_lo)[0], W_LIH, geometry)


def test_node_store_lookup_is_exact(quad, rng, reflection_evaluations,
                                    monkeypatch):
    # the propagating integrand looks K up in the pass's sorted store: for
    # shuffled nodes, part stored and part new (one of them twice), it
    # returns a direct evaluation's values bit for bit, evaluates each new
    # node once, and leaves the store sorted and aligned
    geometry = CavityGeometry(LAM, ConstantR(0.9))
    integrands = []
    integrate = cavitycp.greens.adaptive_integrate

    def recorded(f, *args, **kwargs):
        integrands.append(f)
        return integrate(f, *args, **kwargs)

    monkeypatch.setattr(cavitycp.greens, "adaptive_integrate", recorded)
    _, _, _, (_, _, store) = _realfreq_trace(np.array([0.0]), W_LIH,
                                             geometry, quad, False)
    f_prop, = integrands
    stored = rng.choice(store[0], 40, replace=False)
    new = rng.uniform(0.0, W_LIH / C, 25)
    t = rng.permutation(np.concatenate((stored, new, new[:1])))
    beta, slope = _arch(t, W_LIH / C, 0.0)
    expected = (_node_values(t, geometry) * slope)[:, None] \
        * _paths(beta, np.zeros(1), geometry)
    size = len(store[0])
    reflection_evaluations.clear()
    # a ConstantR mirror has no grazing term, so the integrand is
    # K dbeta/dt sum_p e^{i beta L_p}
    assert np.array_equal(f_prop(t), expected)
    assert sum(reflection_evaluations) == len(new)
    assert len(store[0]) == len(store[1]) == size + len(new)
    assert np.all(np.diff(store[0]) > 0)
    assert np.array_equal(store[1], _node_values(store[0], geometry))


@pytest.mark.parametrize("geometry, z0, zs", [
    (CavityGeometry(3.0 * LAM, ConstantR(0.99)), 0.0,
     np.array([-0.45, 0.3, 0.45]) * 3.0 * LAM),
    (CavityGeometry(3.0 * LAM, HalfSpace(GOLD_DRUDE)), 0.0,
     np.array([0.9 * LAM])),
    (PlateGeometry(HalfSpace(GOLD_DRUDE)), LAM / 8.0,
     np.array([LAM / 8.0, 5 * LAM]))], ids=["constant-r", "gold", "plate"])
def test_seeded_pass_merges_misses_into_sorted_store(geometry, z0, zs, quad,
                                                     reflection_evaluations):
    # a seeded pass with misses evaluates each missing node once and merges
    # it into the seed's sorted (nodes, K) arrays, keeping every stored
    # node; the seed, from a looser tolerance, lacks nodes even where the
    # arch resolves a cavity's every position from its centre's panels
    _, _, _, seed = _realfreq_trace(np.array([z0]), W_LIH, geometry,
                                    QuadratureSpec(1e-6), False)
    before = seed[2][0].copy()
    reflection_evaluations.clear()
    _realfreq_trace(zs, W_LIH, geometry, quad, False, seed)
    nodes, values = seed[2]
    assert sum(reflection_evaluations) == len(nodes) - len(before) > 0
    assert np.all(np.diff(nodes) > 0) and np.isin(before, nodes).all()
    assert np.array_equal(values, _node_values(nodes, geometry))


def test_seeded_trace_shares_grazing_range(quad, reflection_evaluations):
    # in an 8 lam gold cavity the evanescent cutoff 40/(a - 2|z|) lies below
    # w/c at the centre, yet the grazing range is w/c at every position: the
    # seed at z = 0 already holds every node a pass at off-centre positions
    # needs
    geometry = CavityGeometry(8.0 * LAM, HalfSpace(GOLD_DRUDE))
    zs = np.array([0.2 * LAM, 3.99 * LAM])
    _, _, _, seed = _realfreq_trace(np.array([0.0]), W_LIH, geometry, quad,
                                    False)
    reflection_evaluations.clear()
    seeded = _realfreq_trace(zs, W_LIH, geometry, quad, False, seed)[0]
    assert sum(reflection_evaluations) == 0
    unseeded = _realfreq_trace(zs, W_LIH, geometry, quad, False)[0]
    assert np.all(np.abs(seeded - unseeded)
                  <= 10.0 * quad.rel_tol * np.abs(unseeded))
