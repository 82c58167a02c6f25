"""Cavity and single-plate Green-tensor traces.

Oracles: the exact constant-reflectivity series of the asymptotics module,
closed forms for the zero-frequency limit, and frozen values computed with
an independent quadrature implementation.
"""

import contextlib
import io
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cavitycp.greens as greens
import cavitycp.quadrature as quadrature
from cavitycp.asymptotics import I_phi_series
from cavitycp.cli import _grid, _z_grid, main
from cavitycp.config import load_registry
from cavitycp.constants import C, ZETA_3
from cavitycp.greens import (CavityGeometry, PlateGeometry, _chebyshev,
                             _realfreq_trace, _z_interpolation,
                             cavity_trace_imagfreq,
                             cavity_trace_realfreq, imagfreq_trace_sum,
                             zero_frequency_trace_limit)
from cavitycp.materials import (ConstantR, Drude, HalfSpace, Stack, Vacuum,
                                quarter_wave_stack, reflection_coefficients,
                                transverse_wavenumber)
from cavitycp.molecules import LIH, ThermalEnvironment, polarizability_imag
from cavitycp.potential import heating_rate_profile, nonresonant_potential, \
    potential_depth
from cavitycp.quadrature import QuadratureError, QuadratureSpec, \
    adaptive_integrate
from tests.conftest import GOLD_DRUDE, SAPPHIRE_300K, SAPPHIRE_77K

W_LIH = 2.78973e12
LAM = 2.0 * math.pi * C / W_LIH


def _resonant_cavity(mirror, nu):
    return CavityGeometry(width=nu * LAM / 2.0, mirror=mirror)


def test_transverse_beta_branch(rng):
    omega = rng.uniform(1e11, 1e15, size=300)
    k = rng.uniform(0.0, 3.0, size=300) * omega / C
    beta = transverse_wavenumber(1.0, omega.astype(complex), k)
    assert np.all(beta.imag >= 0)
    # propagating region: real and positive
    prop = k < omega / C
    assert np.all(np.abs(beta.imag[prop]) == 0)
    assert np.all(beta.real[prop] > 0)


def test_geometry_validation():
    cav = CavityGeometry(width=1e-4, mirror=ConstantR(0.5))
    with pytest.raises(ValueError):
        CavityGeometry(width=0.0, mirror=ConstantR(0.5))
    with pytest.raises(ValueError):
        cav.check_position(5.1e-5)
    cav.check_position(4.9e-5)


@pytest.mark.parametrize("r", [0.5, 0.9, 0.99])
def test_constant_r_matches_series_oracle(r, quad):
    # (w/c)^2 Re Tr G_pr(z) must equal the exact series for I(z/a)
    nu = 2
    a = nu * LAM / 2.0
    cav = _resonant_cavity(ConstantR(r), nu)
    for phi in (0.0, 0.1, 0.25, -0.37):
        parts = cavity_trace_realfreq(phi * a, W_LIH, cav, quad)
        got = (W_LIH / C) ** 2 * parts.propagating.real
        assert got == pytest.approx(I_phi_series(r, nu, LAM, phi), rel=1e-6)


def test_constant_r_zero_mirror_vanishes(quad):
    cav = _resonant_cavity(ConstantR(0.0), 2)
    parts = cavity_trace_realfreq(1e-5, W_LIH, cav, quad)
    assert parts.propagating == 0
    assert abs(parts.evanescent) == 0
    assert cavity_trace_imagfreq(1e-5, 1e13, cav, quad) == 0
    assert zero_frequency_trace_limit(1e-5, cav, quad) == 0


# Frozen values from an independent quadrature implementation of the same
# integral representations (gold Drude half-space, nu = 2 LiH resonance).
GOLD_TRACE_CENTER = (-1851.5786085354882 - 331.43351040495224j,
                     222.05392470141817 + 140.51271203689754j)


def test_gold_trace_frozen(gold, quad):
    cav = _resonant_cavity(gold, 2)
    parts = cavity_trace_realfreq(0.0, W_LIH, cav, quad)
    prop_ref, evan_ref = GOLD_TRACE_CENTER
    assert parts.propagating == pytest.approx(prop_ref, rel=1e-7)
    assert parts.evanescent == pytest.approx(evan_ref, rel=1e-7)


def test_parity_realfreq(gold, quad):
    cav = _resonant_cavity(gold, 2)
    for z in (1e-5, 8.3e-5, 2.01e-4):
        plus = cavity_trace_realfreq(z, W_LIH, cav, quad)
        minus = cavity_trace_realfreq(-z, W_LIH, cav, quad)
        assert plus.propagating == pytest.approx(minus.propagating, rel=1e-9)
        assert plus.evanescent == pytest.approx(minus.evanescent, rel=1e-9)


@pytest.mark.parametrize("mirror", [
    HalfSpace(GOLD_DRUDE), ConstantR(1.0 - 1e-5),
    Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 8, W_LIH))],
    ids=["gold", "constant_r", "sapphire_stack"])
def test_batched_realfreq_matches_scalar(mirror, quad_fast):
    cav = _resonant_cavity(mirror, 2)
    edge = 0.5 * cav.width - cav.width / 1000.0
    zs = np.linspace(-edge, edge, 7)
    batch = cavity_trace_realfreq(zs, W_LIH, cav, quad_fast)
    single = [cavity_trace_realfreq(float(z), W_LIH, cav, quad_fast)
              for z in zs]
    tol = 10.0 * quad_fast.rel_tol
    for part in ("propagating", "evanescent"):
        got = getattr(batch, part)
        want = np.array([getattr(s, part) for s in single])
        assert got.shape == zs.shape
        assert np.all(np.abs(got - want) <= tol * np.abs(want))
        assert np.all(np.abs(got - got[::-1]) <= tol * np.abs(got))
    assert isinstance(single[0].propagating, complex)
    assert isinstance(single[0].evanescent, complex)


def test_imagfreq_is_real(gold, quad):
    cav = _resonant_cavity(gold, 2)
    val = cavity_trace_imagfreq(0.0, 2.466e14, cav, quad)
    assert isinstance(val, float)
    assert np.isfinite(val)


def test_imagfreq_small_xi_approaches_zero_limit(gold, quad):
    # xi^2 * Tr G(i xi) -> zero_frequency_trace_limit as xi -> 0
    cav = _resonant_cavity(gold, 2)
    lim = zero_frequency_trace_limit(1e-4, cav, quad)
    xi = 1e8
    val = xi * xi * cavity_trace_imagfreq(1e-4, xi, cav, quad)
    assert val == pytest.approx(lim, rel=1e-3)


@pytest.mark.parametrize("plate", [False, True], ids=["cavity", "plate"])
def test_imagfreq_refuses_a_xi_where_the_trace_overflows(plate, gold, quad,
                                                          recwarn):
    # Tr G ~ lim / xi^2 passes the largest float near xi = 1e-141: xi =
    # 1e-145 overflowed inside numpy (inf after a RuntimeWarning), 1e-160
    # raised a bare OverflowError from xi**-2.  Both are refused, naming the
    # zero-frequency limit, and xi^2 Tr G above them is that limit
    geometry, z = (PlateGeometry(gold), 1e-4) if plate \
        else (_resonant_cavity(gold, 2), 0.0)
    lim = zero_frequency_trace_limit(z, geometry, quad)
    for xi in (1e-145, 1e-160):
        with pytest.raises(ArithmeticError, match=f"xi = {xi} overflows .*"
                           "zero_frequency_trace_limit"):
            cavity_trace_imagfreq(z, xi, geometry, quad)
    xi = 1e-120
    assert xi * xi * cavity_trace_imagfreq(z, xi, geometry, quad) == \
        pytest.approx(lim, rel=1e-12)
    assert not [w for w in recwarn if w.category is RuntimeWarning]


@pytest.mark.parametrize("plate", [False, True], ids=["cavity", "plate"])
def test_imagfreq_traces_batch_positions(plate, gold, quad_fast):
    # an array of positions gives one entry per position, each the value of
    # its own scalar call; a scalar position gives a float
    if plate:
        geometry, zs = PlateGeometry(gold), np.array([2e-6, 1e-5, 3e-4])
    else:
        geometry = _resonant_cavity(gold, 2)
        zs = np.array([1e-5, 2e-4, -3e-4, 0.0])
    traces = {
        "imagfreq": lambda z: cavity_trace_imagfreq(z, 1e13, geometry,
                                                    quad_fast),
        "zero": lambda z: zero_frequency_trace_limit(z, geometry, quad_fast)}
    for name, trace in traces.items():
        batch = trace(zs)
        single = [trace(float(z)) for z in zs]
        assert all(isinstance(v, float) for v in single), name
        assert batch.shape == zs.shape, name
        assert np.all(np.abs(batch - single)
                      <= 10.0 * quad_fast.rel_tol * np.abs(single)), name


def test_zero_limit_perfect_conductor_closed_form(quad):
    # r_p(0) = 1, z = 0: -(c^2/pi) * (7/4) zeta(3) / a^3 magnitude
    a = LAM
    cav = CavityGeometry(width=a, mirror=HalfSpace(GOLD_DRUDE))
    got = zero_frequency_trace_limit(0.0, cav, quad)
    expect = -(C**2 / math.pi) * 7.0 * ZETA_3 / (4.0 * a**3)
    assert got == pytest.approx(expect, rel=1e-9)


def test_zero_limit_parity(gold, quad):
    cav = _resonant_cavity(gold, 2)
    for z in (3e-5, 1.9e-4):
        assert zero_frequency_trace_limit(z, cav, quad) == pytest.approx(
            zero_frequency_trace_limit(-z, cav, quad), rel=1e-10)


def test_single_plate_oscillation_decay(gold, quad):
    # oscillation amplitude of Re(trace) decays ~ 1/distance
    amps = []
    for mult in (4.0, 8.0):
        vals = cavity_trace_realfreq(
            np.linspace(mult * LAM, (mult + 0.5) * LAM, 21), W_LIH,
            PlateGeometry(gold), quad).total.real
        amps.append(max(vals) - min(vals))
    assert amps[1] == pytest.approx(amps[0] / 2.0, rel=0.15)


def test_single_plate_vs_wide_cavity(gold, quad):
    # Near one wall of a wide cavity the trace reduces to the single-plate
    # result.  The width must be off-resonant (not a half-integer multiple
    # of the wavelength): at resonance the coherent round-trip buildup keeps
    # the second wall relevant at any width.
    a = 20.37 * LAM
    cav = CavityGeometry(width=a, mirror=gold)
    z = -a / 2.0 + LAM / 4.0  # distance lam/4 from the lower wall
    cavity_val = cavity_trace_realfreq(z, W_LIH, cav, quad).total
    plate_val = cavity_trace_realfreq(LAM / 4.0, W_LIH, PlateGeometry(gold),
                                      quad).total
    assert cavity_val.real == pytest.approx(plate_val.real, rel=0.05)


def test_single_plate_imagfreq_real(gold, quad):
    val = cavity_trace_imagfreq(1e-4, 1e12, PlateGeometry(gold), quad)
    assert isinstance(val, float)


def test_single_plate_constant_r_zero(quad):
    parts = cavity_trace_realfreq(1e-4, W_LIH, PlateGeometry(ConstantR(0.0)),
                                  quad)
    assert parts.total == 0


def test_domain_errors(gold, quad):
    cav = _resonant_cavity(gold, 2)
    with pytest.raises(ValueError):
        cavity_trace_realfreq(0.0, -1.0, cav, quad)
    with pytest.raises(ValueError):
        cavity_trace_imagfreq(0.0, 0.0, cav, quad)
    plate = PlateGeometry(gold)
    for bad in (0.0, -1e-4, np.array([1e-4, np.nan]), np.full((2, 2), 1e-4)):
        with pytest.raises(ValueError):
            cavity_trace_realfreq(bad, W_LIH, plate, quad)
        with pytest.raises(ValueError):
            plate.check_position(bad)


_CAV = CavityGeometry(width=1e-4, mirror=HalfSpace(GOLD_DRUDE))
_PLATE = PlateGeometry(HalfSpace(GOLD_DRUDE))
_XI = [0.0, 2.0e13]


@pytest.mark.parametrize("call, message", [
    # an OverflowError (numerical exit), the wall being half a cavity away
    (lambda: imagfreq_trace_sum(_CAV, [5e-5], _XI, 1.0), "z = 5e-05"),
    # an "empty integration interval" over the negative cutoff
    (lambda: imagfreq_trace_sum(_CAV, [2e-4], _XI, 1.0), "z = 0.0002"),
    (lambda: imagfreq_trace_sum(_CAV, [np.nan], _XI, 1.0), "z = nan"),
    # accepted silently
    (lambda: imagfreq_trace_sum(_CAV, np.zeros((2, 2)), _XI, 1.0),
     r"shape \(2, 2\)"),
    # a RuntimeWarning: eps(i xi) < 0 below the Drude damping, and the
    # float64 kernel takes the square root of a negative kappa_j^2
    (lambda: imagfreq_trace_sum(_CAV, [0.0], [0.0, -2e13], 1.0),
     "xi = -20000000000000.0"),
    (lambda: imagfreq_trace_sum(_CAV, [0.0], [0.0, np.inf], 1.0), "xi = inf"),
    # RuntimeWarnings: divide by zero in log, invalid value in multiply
    (lambda: cavity_trace_realfreq(1e-5, np.inf, _PLATE), "got inf"),
    (lambda: cavity_trace_imagfreq(1e-5, np.inf, _PLATE), "got inf"),
    # numpy's "zero-size array to reduction operation minimum"
    (lambda: cavity_trace_realfreq(np.array([]), W_LIH, _CAV),
     r"shape \(0,\)"),
    (lambda: heating_rate_profile(np.array([]), LIH, _CAV,
                                  ThermalEnvironment(300.0)), r"shape \(0,\)"),
    (lambda: nonresonant_potential(np.array([]), LIH, _CAV,
                                   ThermalEnvironment(300.0)),
     r"shape \(0,\)")],
    ids=["z_at_wall", "z_outside", "z_nan", "z_2d", "xi_negative", "xi_inf",
         "realfreq_omega_inf", "imagfreq_xi_inf", "realfreq_empty",
         "heating_empty", "nonresonant_empty"])
def test_trace_entries_check_input_at_the_door(call, message):
    # bad input fails with a one-line ValueError naming the bad value
    with pytest.raises(ValueError, match=message) as exc:
        call()
    assert "\n" not in str(exc.value)


# --- reference: the single plate's own integrand ----------------------------
# The form the library used before the single plate became the D_sigma = 1
# case of the cavity's real-frequency path: its own integrand over beta and
# its own two integrals, the evanescent one along beta = i kappa.

def _single_plate_parts_reference(distance, omega, mirror, spec):
    wc = omega / C

    def f(beta):
        rs, rp = reflection_coefficients(mirror, omega, beta=beta + 0j)
        bracket = rs + rp - 2.0 * (C * beta / omega) ** 2 * rp
        return 1j / (4.0 * np.pi) * bracket * np.exp(2j * beta * distance)

    prop, _ = adaptive_integrate(f, 0.0, wc, spec)
    evan, _ = adaptive_integrate(lambda kappa: -1j * f(1j * kappa), 0.0,
                                 40.0 / (2.0 * distance), spec)
    return complex(prop), complex(evan)


STACK = Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 8, W_LIH))
PLATE_MIRRORS = [HalfSpace(GOLD_DRUDE), HalfSpace(SAPPHIRE_300K), STACK,
                 ConstantR(0.9)]
PLATE_IDS = ["gold", "sapphire", "sapphire_stack", "constant_r"]


@pytest.mark.parametrize("mirror", PLATE_MIRRORS, ids=PLATE_IDS)
@pytest.mark.parametrize("d_over_lam", [1 / 8, 1 / 4, 1.0])
def test_single_plate_matches_reference(mirror, d_over_lam, quad):
    parts = cavity_trace_realfreq(d_over_lam * LAM, W_LIH,
                                  PlateGeometry(mirror), quad)
    ref = _single_plate_parts_reference(d_over_lam * LAM, W_LIH, mirror,
                                        quad)
    tol = 10.0 * quad.rel_tol
    for got, want in zip((parts.propagating, parts.evanescent), ref):
        assert abs(got - want) <= tol * abs(want)


@pytest.mark.parametrize("mirror", [HalfSpace(GOLD_DRUDE), STACK],
                         ids=["gold", "sapphire_stack"])
@pytest.mark.parametrize("nu", [1, 2, 4])
def test_grazing_coefficient_step_independent(mirror, nu, monkeypatch):
    # S is a limit beta -> 0: the default step beta_0 = 1e-6 w/c and a
    # ten times larger one agree
    cav = _resonant_cavity(mirror, nu)
    s_default = cav.resonance_seed(W_LIH, False)[0]
    monkeypatch.setattr(greens, "_GRAZING_STEP", 1e-5)
    s_coarse = cav.resonance_seed(W_LIH, False)[0]
    assert s_default != 0
    assert abs(s_coarse - s_default) <= 1e-8 * abs(s_default)


SEED_MIRRORS = {
    "gold": HalfSpace(GOLD_DRUDE),
    "bragg_cfg": load_registry((Path(__file__).resolve().parent.parent
                                / "perfbench" / "bragg.cfg").read_text()
                               ).mirrors["bragg"],
    "sapphire_20": Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 20,
                                            W_LIH))}


@pytest.mark.parametrize("mirror", SEED_MIRRORS.values(),
                         ids=SEED_MIRRORS.keys())
@pytest.mark.parametrize("nu", [1, 2, 6])
def test_resonance_seed_is_one_reflection_call(mirror, nu,
                                               reflection_evaluations):
    # one call at w/c, x_lo (1/4, 1/2, 1) and i x_lo/2 gives S as the
    # Richardson combination of 2 beta K from separate _kernel calls at
    # x_lo (1/4, 1/2, 1), and the [0, x_lo] rectangles' kernels as _kernel
    # at x_lo/2 and i x_lo/2 (without an evanescent part, the first only)
    cavity = _resonant_cavity(mirror, nu)
    seeds = [cavity.resonance_seed(W_LIH, evanescent)
             for evanescent in (True, False)]
    assert reflection_evaluations == [5, 4]
    x_lo = greens._GRAZING_STEP * W_LIH / C

    def kernel(beta):
        return greens._kernel(np.array([beta + 0j]), W_LIH, cavity)[0]

    s = [2.0 * b * kernel(b) for b in x_lo * np.array([0.25, 0.5, 1.0])]
    s_coef = (8.0 * s[0] - 6.0 * s[1] + s[2]) / 3.0
    rectangle = [kernel(0.5 * x_lo), kernel(0.5j * x_lo)]
    for seed, k in zip(seeds, (rectangle, rectangle[:1])):
        assert seed[0] != 0 and seed[2] is None
        assert abs(seed[0] - s_coef) <= 1e-14 * abs(s_coef)
        assert len(seed[3]) == len(k)
        assert np.all(np.abs(seed[3] - k) <= 1e-14 * np.abs(k))
    assert seeds[0][1] == seeds[1][1]


# --- parity fold: a cavity evaluates each distinct |z| once ------------------

def _complex_route(calls):
    """Stack.imaginary_axis through the complex recursion at omega = i xi,
    beta = i kappa (whose imaginary parts are 0), counting its calls."""
    def route(mirror, xi, kappa):
        calls.append(np.size(kappa))
        return tuple(r.real for r in reflection_coefficients(
            mirror, 1j * xi, beta=1j * kappa))
    return route


@pytest.mark.parametrize("mirror", [HalfSpace(GOLD_DRUDE), STACK],
                         ids=["gold", "sapphire_stack"])
@pytest.mark.parametrize("plate", [False, True], ids=["cavity", "plate"])
def test_imagfreq_trace_sum_matches_the_complex_kernel(mirror, plate, quad,
                                                       monkeypatch):
    # the float64 reflection kernel against the complex one, through the
    # exact sum of the static term and 12 Matsubara terms of 10 K, and
    # through the tail term from the last of them alone
    if plate:
        geometry, zs = PlateGeometry(mirror), np.array([2e-6, 1e-5, 3e-4])
    else:
        geometry = _resonant_cavity(mirror, 2)
        zs = np.array([0.0, 1e-5, 2e-4, -3e-4])
    xi = 8.22e12 * np.arange(13)
    weights = np.linspace(1.0, 2.0, len(xi))
    tail = np.append(0.0 * weights, 1.0 / xi[1])
    cases = [(weights, None),
             (tail, lambda x: polarizability_imag(LIH, x))]
    got = [imagfreq_trace_sum(geometry, zs, xi, w, quad, t) for w, t in cases]
    calls = []
    monkeypatch.setattr(Stack, "imaginary_axis", _complex_route(calls))
    for (w, t), g in zip(cases, got):
        calls.clear()
        want = imagfreq_trace_sum(geometry, zs, xi, w, quad, t)
        assert calls, "the complex route was not reached"
        assert np.all(np.abs(g - want) <= 1e-13 * np.abs(want))


def _normal_incidence_r(mirror):
    """|r| = |(1 - n)/(1 + n)| of a half-space at normal incidence."""
    n = np.sqrt(mirror.materials[0].eps(W_LIH))
    return abs((1.0 - n) / (1.0 + n))


# Drude half-spaces with 1 - |r| = 1e-3 and 1e-9 at normal incidence
SHARP_DRUDE = [HalfSpace(Drude(1e15, 1e12)), HalfSpace(Drude(1e16, 1e7))]


@pytest.mark.parametrize("mirror, nu", [
    (HalfSpace(GOLD_DRUDE), 1), (HalfSpace(GOLD_DRUDE), 2),
    (HalfSpace(GOLD_DRUDE), 40), (HalfSpace(SAPPHIRE_300K), 2),
    (SHARP_DRUDE[0], 40), (SHARP_DRUDE[1], 40)],
    ids=["gold-nu1", "gold-nu2", "gold-nu40", "sapphire-nu2",
         "drude-1e-3-nu40", "drude-1e-9-nu40"])
def test_resonance_ladder_starts_at_the_tuned_pole_depth(mirror, nu):
    # the tuned mode's pole lies d = -ln|r|/a below the arch's end at w/c:
    # the ladder starts d/8 from it, but no closer than 1e-9 w/c (the last
    # case), and doubles up to w/2c
    cavity = _resonant_cavity(mirror, nu)
    wc = W_LIH / C
    depth = -np.log(_normal_incidence_r(mirror)) / cavity.width
    s_coef, edges, pole, _ = cavity.resonance_seed(W_LIH, False)
    assert s_coef != 0 and pole is None
    steps = wc - np.sort(edges)[::-1]
    assert steps[0] >= 1e-9 * wc - 4.0 * np.spacing(wc)  # wc - x_0 rounds
    assert steps[0] == pytest.approx(max(1e-9 * wc, depth / 8.0), rel=1e-6)
    assert steps[1:] / steps[:-1] == pytest.approx(2.0, rel=1e-6)
    assert steps[-1] <= 0.5 * wc < 2.0 * steps[-1]


@pytest.mark.parametrize("r", [0.5, 0.9, 1.0 - 1e-5, 1.0 - 1e-12])
@pytest.mark.parametrize("width", [0.3, 1.0, 2.0, 6.4, 20.0])
def test_constant_r_cavity_seeds_its_tuned_pole(r, width):
    # widths in units of lam/2: the nearest mode m = round(2 a/lam) >= 1,
    # tuned or not, with D = 1 - r^2 e^{2 i beta a} = 0 at beta_p and K's
    # residue there k_p, from (beta - beta_p) K(beta) averaged over four
    # points about the pole (exact up to O(h^4)); no ladder and S = 0
    cavity = CavityGeometry(width=width * LAM / 2.0, mirror=ConstantR(r))
    a = cavity.width
    s_coef, edges, (beta_p, k_p), rectangle = cavity.resonance_seed(W_LIH,
                                                                    True)
    assert s_coef == 0 and edges == [] and rectangle is None
    assert beta_p.real * a / np.pi == pytest.approx(max(1, round(width)))
    assert abs(np.expm1(2j * beta_p * a + 2.0 * np.log(r))) < 1e-14
    h = 1e-3 / a * 1j ** np.arange(4)
    residue = np.mean(h * greens._kernel(beta_p + h, W_LIH, cavity))
    assert residue == pytest.approx(k_p, rel=1e-9)


@pytest.mark.parametrize("r", [0.1, 0.49])
def test_weak_constant_r_keeps_the_ladder(r):
    # below r = 1/2 the residues (up to r^-2) would cancel digits: the
    # ladder from the pole's depth d = -ln r/a, and no pole
    cavity = _resonant_cavity(ConstantR(r), 2)
    s_coef, edges, pole, rectangle = cavity.resonance_seed(W_LIH, True)
    wc = W_LIH / C
    assert s_coef == 0 and pole is None and rectangle is None
    assert wc - max(edges) == pytest.approx(-np.log(r) / (8.0 * cavity.width),
                                            rel=1e-6)


def test_zero_mirror_gets_no_resonance_ladder():
    # r = 0 has no pole: no edges, and no log(0) on the way
    assert _resonant_cavity(ConstantR(0.0), 2).resonance_seed(W_LIH, True) \
        == (0.0, [], None, None)


@pytest.mark.parametrize("mirror, eps", [
    (HalfSpace(GOLD_DRUDE), abs(GOLD_DRUDE.eps(W_LIH))),
    (STACK, abs(SAPPHIRE_300K.eps(W_LIH))),
    (HalfSpace(Vacuum()), 1.0)],
    ids=["gold", "sapphire_stack", "vacuum"])
def test_grazing_lattice_starts_at_the_grazing_scale(mirror, eps):
    # r_sigma leaves its grazing limit on the scale w/(c sqrt|eps|): the
    # mirror's grazing scale x_0 is a quarter of it, and the arch's lattice
    # quadruples from x_0 up to w/c; a constant r has no grazing scale
    wc = W_LIH / C
    x_0 = mirror.grazing_scale(W_LIH)
    edges = quadrature._ladder(0.0, x_0, wc, 4.0)
    assert edges[0] == x_0 == pytest.approx(wc / (4.0 * np.sqrt(eps)),
                                            rel=1e-12)
    assert edges[1:] / edges[:-1] == pytest.approx(4.0, rel=1e-12)
    assert edges[-1] <= wc < 4.0 * edges[-1]
    assert ConstantR(0.9).grazing_scale(W_LIH) is None


FOLD_MIRRORS = [HalfSpace(GOLD_DRUDE), STACK, ConstantR(0.9)]
FOLD_IDS = ["gold", "sapphire_stack", "constant_r"]
# unordered, with +-z pairs, the centre and one unpaired position
FOLD_ZS = np.array([2e-4, -1e-5, 0.0, -2e-4, 1e-5, 3.1e-4])
FOLD_REPS = np.array([0.0, -1e-5, 2e-4, 3.1e-4])


@pytest.mark.parametrize("mirror", FOLD_MIRRORS, ids=FOLD_IDS)
def test_fold_realfreq_symmetric_positions(mirror, quad_fast, trace_columns):
    # +-z entries are equal bit for bit, every entry is its scalar call's
    # value, and each round evaluates the distinct |z| once, at the sign of
    # their first occurrence
    cav = _resonant_cavity(mirror, 2)
    batch = cavity_trace_realfreq(FOLD_ZS, W_LIH, cav, quad_fast)
    assert trace_columns
    assert all(np.array_equal(p, FOLD_REPS) for _, p in trace_columns)
    single = [cavity_trace_realfreq(float(z), W_LIH, cav, quad_fast)
              for z in FOLD_ZS]
    for part in ("propagating", "evanescent"):
        got = getattr(batch, part)
        want = np.array([getattr(s, part) for s in single])
        assert np.array_equal(got[[0, 1]], got[[3, 4]]), part
        assert np.all(np.abs(got - want)
                      <= 10.0 * quad_fast.rel_tol * np.abs(want).max()), part


@pytest.mark.parametrize("trace", ["imagfreq", "zero"])
def test_fold_imagfreq_symmetric_positions(trace, gold, quad, monkeypatch):
    # every trace entry folds: on an antisymmetric grid the imaginary-
    # frequency traces integrate one column per distinct |z|, and +-z get
    # equal entries bit for bit
    cav = _resonant_cavity(gold, 2)
    half = np.linspace(0.0, 0.49, 21) * cav.width
    zs = np.concatenate((-half[:0:-1], half))
    widths, integrate = set(), greens.adaptive_integrate

    def counted(f, *args, **kwargs):
        def columns(s):
            vals = f(s)
            widths.add(vals.shape[1])
            return vals
        return integrate(columns, *args, **kwargs)

    monkeypatch.setattr(greens, "adaptive_integrate", counted)
    got = cavity_trace_imagfreq(zs, 1e13, cav, quad) if trace == "imagfreq" \
        else zero_frequency_trace_limit(zs, cav, quad)
    assert widths == {len(half)}
    assert np.array_equal(got, got[::-1])


def test_fold_keeps_scalar_sign(gold, quad_fast, trace_columns):
    # a scalar call at -z still evaluates at -z, so the parity tests compare
    # two independent evaluations
    cav = _resonant_cavity(gold, 2)
    cavity_trace_realfreq(-1e-5, W_LIH, cav, quad_fast)
    assert trace_columns
    assert all(np.array_equal(p, [-1e-5]) for _, p in trace_columns)


def test_fold_leaves_plate_distances(gold, quad_fast, trace_columns):
    # a plate's distances are not folded, repeated ones included
    plate = PlateGeometry(gold)
    ds = np.array([2e-5, 1e-5, 2e-5])
    reps, index = plate.fold(ds)
    assert np.array_equal(reps[index], ds) and len(reps) == 3
    parts = cavity_trace_realfreq(ds, W_LIH, plate, quad_fast)
    assert parts.propagating.shape == ds.shape
    assert trace_columns
    assert all(np.array_equal(p, ds) for _, p in trace_columns)


def test_batch_matches_scalar_where_cutoff_is_below_light_line(gold, quad):
    # in a gold resonance:16 cavity 40/(a - 2|z|) < w/c near the centre, so
    # a scalar call there and a batch with a near-wall position subtract the
    # grazing term over different ranges; the parts still agree, and +-z
    # entries of the batch are equal bit for bit
    cav = _resonant_cavity(gold, 16)
    zs = np.array([0.0, LAM, -LAM, 3.99 * LAM])
    batch = cavity_trace_realfreq(zs, W_LIH, cav, quad)
    single = [cavity_trace_realfreq(float(z), W_LIH, cav, quad) for z in zs]
    for part in ("propagating", "evanescent"):
        got = getattr(batch, part)
        want = np.array([getattr(s, part) for s in single])
        assert got[1] == got[2], part
        assert np.all(np.abs(got - want)
                      <= 10.0 * quad.rel_tol * np.abs(want)), part


# --- a scan's propagating trace at Chebyshev nodes in z ----------------------

def _direct(monkeypatch):
    """Evaluate every propagating trace at its positions themselves."""
    monkeypatch.setattr(greens, "_z_interpolation",
                        lambda zs, wc, geometry: (zs, None))


def _chebyshev_count(zs, geometry):
    """K = ceil(M + 12 M^(1/3)) + 2 for the span of zs, before the fold."""
    _, half = geometry.span(zs)
    m = 2.0 * half * W_LIH / C
    return math.ceil(m + 12.0 * m ** (1.0 / 3.0)) + 2


@pytest.mark.parametrize("mirror, nu", [
    (HalfSpace(GOLD_DRUDE), 1), (HalfSpace(GOLD_DRUDE), 2),
    (HalfSpace(GOLD_DRUDE), 10), (HalfSpace(GOLD_DRUDE), 16),
    (HalfSpace(GOLD_DRUDE), 40), (STACK, 2), (STACK, 8),
    (ConstantR(1.0 - 1e-5), 4), (ConstantR(1.0 - 1e-7), 2)],
    ids=["gold-1", "gold-2", "gold-10", "gold-16", "gold-40", "stack-2",
         "stack-8", "r-1e-5-4", "r-1e-7-2"])
def test_interpolated_trace_matches_direct(mirror, nu, quad, monkeypatch,
                                           trace_columns):
    # a 201-point grid folds to 101 positions, more than the span's folded
    # Chebyshev nodes even at nu = 40 (189 -> 95); each position is within
    # 10 rel_tol of the column max of its directly integrated value
    cav = _resonant_cavity(mirror, nu)
    zs = np.array(_z_grid(cav.width, 201))
    got = _realfreq_trace(zs, W_LIH, cav, quad, False)[0]
    cols, _ = _z_interpolation(cav.fold(zs)[0], W_LIH / C, cav)
    assert len(cols) == (_chebyshev_count(zs, cav) + 1) // 2 < 101
    assert all(np.isin(p, cols).all() for _, p in trace_columns)
    _direct(monkeypatch)
    want = _realfreq_trace(zs, W_LIH, cav, quad, False)[0]
    assert np.array_equal(got[:100], got[:100:-1])
    assert np.all(np.abs(got - want)
                  <= 10.0 * quad.rel_tol * np.abs(want).max())


@pytest.mark.parametrize("points", [40, 200, 201])
@pytest.mark.parametrize("nu", [1, 2, 10, 40])
def test_chebyshev_nodes_are_exactly_symmetric(points, nu, monkeypatch):
    # unfolded, the K nodes are exact negatives of each other, with 0.0 at
    # the centre for odd K, so the fold keeps ceil(K/2) of them; the
    # series matrix interpolates cos(2 beta z) at every beta <= w/c
    cav = _resonant_cavity(ConstantR(0.9), nu)
    zs = np.array(_z_grid(cav.width, points))
    k = _chebyshev_count(zs, cav)
    if (k + 1) // 2 >= len(cav.fold(zs)[0]):
        assert _z_interpolation(cav.fold(zs)[0], W_LIH / C, cav)[1] is None
        return
    cols, interp = _z_interpolation(cav.fold(zs)[0], W_LIH / C, cav)
    assert len(cols) == (k + 1) // 2
    beta = np.linspace(0.0, W_LIH / C, 97)
    reps = cav.fold(zs)[0]
    assert np.abs(interp @ np.cos(2.0 * np.outer(cols, beta))
                  - np.cos(2.0 * np.outer(reps, beta))).max() < 1e-13
    monkeypatch.setattr(CavityGeometry, "fold",
                        lambda self, zs: (zs, slice(None)))
    nodes, _ = _z_interpolation(zs, W_LIH / C, cav)
    assert len(nodes) == k
    assert np.array_equal(nodes, -nodes[::-1])
    assert k % 2 == 0 or nodes[k // 2] == 0.0


def test_plate_distance_past_the_span_end_is_clipped(gold, quad,
                                                     monkeypatch):
    # heating --single-plate --width 1cm --points 400: d_min maps to
    # (d - centre)/half = -1 - 2^-52, where arccos would give NaN (a
    # RuntimeWarning, an error here); clipped to -1, every distance matches
    # its directly integrated value within 10 rel_tol of the column max
    plate = PlateGeometry(gold)
    ds = np.array(_grid(LAM / 100.0, 1e-2, 400))
    centre, half = plate.span(ds)
    assert (ds[0] - centre) / half == -1.0 - 2.0**-52
    assert _z_interpolation(ds, W_LIH / C, plate)[1] is not None
    got = _realfreq_trace(ds, W_LIH, plate, quad, False)[0]
    _direct(monkeypatch)
    want = _realfreq_trace(ds, W_LIH, plate, quad, False)[0]
    assert np.all(np.abs(got - want)
                  <= 10.0 * quad.rel_tol * np.abs(want).max())


def test_plate_distance_grid_is_interpolated(gold, quad, monkeypatch,
                                             trace_columns):
    # heating --single-plate's 400 distances from lam/100 to 1 mm: the plate
    # does not fold, and its span [d_min, d_max] needs 37 nodes
    plate = PlateGeometry(gold)
    ds = np.linspace(LAM / 100.0, 1e-3, 400)
    got = _realfreq_trace(ds, W_LIH, plate, quad, False)[0]
    cols, _ = _z_interpolation(ds, W_LIH / C, plate)
    assert len(cols) == _chebyshev_count(ds, plate) == 37
    assert cols.min() > ds[0] and cols.max() < ds[-1]
    assert all(np.isin(p, cols).all() for _, p in trace_columns)
    _direct(monkeypatch)
    want = _realfreq_trace(ds, W_LIH, plate, quad, False)[0]
    assert np.all(np.abs(got - want)
                  <= 10.0 * quad.rel_tol * np.abs(want).max())


@pytest.mark.parametrize("points, direct", [(3, True), (31, True),
                                            (32, True), (33, False)])
def test_small_batches_take_the_direct_path(points, direct, gold, quad_fast,
                                            trace_columns):
    # at resonance:2 the span's 31 Chebyshev nodes fold to 16: up to 16
    # folded positions are their own columns, 17 use the nodes
    cav = _resonant_cavity(gold, 2)
    zs = np.array(_z_grid(cav.width, points))
    reps = cav.fold(zs)[0]
    _realfreq_trace(zs, W_LIH, cav, quad_fast, False)
    cols = reps if direct else \
        _z_interpolation(reps, W_LIH / C, cav)[0]
    assert len(cols) == min(len(reps), 16)
    assert trace_columns
    assert all(np.isin(p, cols).all() for _, p in trace_columns)
    assert np.isin(cols, np.concatenate([p for _, p in trace_columns])).all()


def test_interpolated_failure_names_the_callers_rows(gold, quad,
                                                    monkeypatch):
    # a QuadratureError of the interpolated integral maps its estimate
    # through R and its error and tolerance through |R|: one entry per
    # caller's position, +-z alike, the estimate near the converged trace
    cav = _resonant_cavity(gold, 2)
    zs = np.array(_z_grid(cav.width, 200))
    want = _realfreq_trace(zs, W_LIH, cav, quad, False)[0]
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 2)
    with pytest.raises(QuadratureError, match=" of 200, ") as info:
        _realfreq_trace(zs, W_LIH, cav, QuadratureSpec(1e-15), False)
    err = info.value
    for part in (err.estimate, err.error, err.tolerance):
        assert part.shape == zs.shape
        assert np.array_equal(part, part[::-1])
    assert np.all(err.error >= 0) and np.all(err.tolerance > 0)
    assert np.abs(err.estimate - want).max() <= 1e-6 * np.abs(want).max()


def test_interpolated_failure_keeps_the_integrals_worst_ratio(gold, quad,
                                                             monkeypatch):
    # mapped through |R|, error and tolerance no longer give the integral's
    # own error/tolerance: the re-raised error keeps that of the error it
    # re-raises, worst column and all
    cav = _resonant_cavity(gold, 2)
    zs = np.array(_z_grid(cav.width, 200))
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 2)
    with pytest.raises(QuadratureError) as info:
        _realfreq_trace(zs, W_LIH, cav, QuadratureSpec(1e-15), False)
    err, inner = info.value, info.value.__cause__
    assert isinstance(inner, QuadratureError) and inner.estimate.size < 200
    ratio = np.max(inner.error / inner.tolerance)
    assert err.error_ratio == inner.error_ratio == ratio > 1.0
    assert str(err).endswith(f"worst error/tolerance {ratio:.3g}")
    assert np.max(err.error / err.tolerance) != ratio


def test_sharp_stack_batch_converges_near_the_floor(quad, monkeypatch):
    # the 20-pair 77 K stack at nu = 10, 96 positions over [0, 0.475 a]:
    # some Chebyshev columns sit ~100x below the largest and cannot meet
    # rel_tol of their own value near the delta floor; each meets it of the
    # largest column, and the positions match a direct trace at them
    stack = Stack(quarter_wave_stack(SAPPHIRE_77K, Vacuum(), 20, W_LIH))
    cav = _resonant_cavity(stack, 10)
    zs = np.linspace(0.0, 0.475 * cav.width, 96)
    got = _realfreq_trace(zs, W_LIH, cav, quad, False)[0]
    _direct(monkeypatch)
    want = _realfreq_trace(zs[::19], W_LIH, cav, quad, False)[0]
    assert np.all(np.abs(got[::19] - want)
                  <= 10.0 * quad.rel_tol * np.abs(want).max())


def test_depth_positions_are_their_own_columns(gold, env300, quad,
                                               trace_columns):
    # potential_depth traces the K first-kind Chebyshev points of its
    # +-(a/2 - a/1000) edge, the points a profile scan over it integrates:
    # folded, they are the trace's own columns
    omega = LIH.transitions[0].omega
    rep = potential_depth(LIH, gold, 10, env300, quad)
    cav = CavityGeometry(rep.width, gold)
    edge = 0.5 * rep.width - rep.width / 1000.0
    m = 2.0 * edge * omega / C
    points = _chebyshev(math.ceil(m + 12.0 * m ** (1.0 / 3.0)) + 2, 0.0,
                        edge)[0]
    cols = cav.fold(points)[0]
    seen = np.concatenate([p for _, p in trace_columns])
    assert np.array_equal(np.unique(seen), np.unique(cols))
    scan = np.array(_z_grid(rep.width, 400))
    assert np.array_equal(
        _z_interpolation(cav.fold(scan)[0], omega / C, cav)[0], cols)


def test_heating_scan_memory():
    # the evanescent integrand returns its kernel and its real path sums
    # apart, and each panel applies its rules to the kernel before the one
    # product with the sums: a 2000-point gold scan's first evanescent call
    # (435 nodes x 1000 folded positions) holds those real sums and no
    # complex (node x position) array.  4.7-4.9 MB traced, where the
    # integrand's complex product g sum_p e^{-kappa L_p} + S took 9.3-9.5 MB
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["heating", "--mirror", "gold", "--width",
                         "resonance:2", "--points", "2000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6
