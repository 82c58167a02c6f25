"""Cavity and single-plate Green-tensor traces.

Oracles: the exact constant-reflectivity series of the asymptotics module,
closed forms for the zero-frequency limit, and frozen values computed with
an independent quadrature implementation.
"""

import math

import numpy as np
import pytest

from cavitycp.asymptotics import ConstantRCavity, I_phi_series
from cavitycp.constants import C, ZETA_3
from cavitycp.greens import (CavityGeometry, _grazing_coefficient,
                             cavity_trace_imagfreq,
                             cavity_trace_realfreq, single_plate_trace,
                             single_plate_trace_imagfreq,
                             single_plate_trace_parts, transverse_beta,
                             zero_frequency_trace_limit)
from cavitycp.materials import (ConstantR, HalfSpace, Stack, Vacuum,
                                quarter_wave_stack, reflection_coefficients)
from cavitycp.quadrature import adaptive_integrate
from tests.conftest import GOLD_DRUDE, SAPPHIRE_300K

W_LIH = 2.78973e12
LAM = 2.0 * math.pi * C / W_LIH


def _resonant_cavity(mirror, nu):
    return CavityGeometry(width=nu * LAM / 2.0, mirror=mirror)


def test_transverse_beta_branch(rng):
    omega = rng.uniform(1e11, 1e15, size=300)
    k = rng.uniform(0.0, 3.0, size=300) * omega / C
    beta = transverse_beta(omega.astype(complex), k)
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
    cfg = ConstantRCavity(r=r, nu=nu, lam=LAM)
    cav = _resonant_cavity(ConstantR(r), nu)
    for phi in (0.0, 0.1, 0.25, -0.37):
        z = phi * cfg.a
        parts = cavity_trace_realfreq(z, W_LIH, cav, quad)
        got = (W_LIH / C) ** 2 * parts.propagating.real
        assert got == pytest.approx(I_phi_series(cfg, phi), rel=1e-6)


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
        vals = [single_plate_trace(d, W_LIH, gold, quad).real
                for d in np.linspace(mult * LAM, (mult + 0.5) * LAM, 21)]
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
    plate_val = single_plate_trace(LAM / 4.0, W_LIH, gold, quad)
    assert cavity_val.real == pytest.approx(plate_val.real, rel=0.05)


def test_single_plate_imagfreq_real(gold, quad):
    val = single_plate_trace_imagfreq(1e-4, 1e12, gold, quad)
    assert isinstance(val, float)
    assert single_plate_trace(1e-4, 1e12j, gold, quad) == val


def test_single_plate_constant_r_zero(quad):
    parts = single_plate_trace_parts(1e-4, W_LIH, ConstantR(0.0), quad)
    assert parts.total == 0


def test_domain_errors(gold, quad):
    cav = _resonant_cavity(gold, 2)
    with pytest.raises(ValueError):
        cavity_trace_realfreq(0.0, -1.0, cav, quad)
    with pytest.raises(ValueError):
        cavity_trace_imagfreq(0.0, 0.0, cav, quad)
    with pytest.raises(ValueError):
        single_plate_trace(0.0, W_LIH, gold, quad)
    with pytest.raises(ValueError):
        single_plate_trace(1e-4, complex(1e12, 1e12), gold, quad)


# --- reference: the single plate's own integrand ----------------------------
# The form the library used before the single plate became the D_sigma = 1
# case of the cavity's real-frequency path: its own integrand over beta and
# its own two integrals, the evanescent one along beta = i kappa.

def _single_plate_parts_reference(distance, omega, mirror, spec):
    wc = omega / C

    def f(beta):
        k_perp = np.sqrt(np.maximum((wc**2 - beta**2).real, 0.0))
        rs, rp = reflection_coefficients(mirror, omega, k_perp,
                                         beta=beta + 0j)
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
    parts = single_plate_trace_parts(d_over_lam * LAM, W_LIH, mirror,
                                     quad)
    ref = _single_plate_parts_reference(d_over_lam * LAM, W_LIH, mirror,
                                        quad)
    tol = 10.0 * quad.rel_tol
    for got, want in zip((parts.propagating, parts.evanescent), ref):
        assert abs(got - want) <= tol * abs(want)


@pytest.mark.parametrize("mirror", [HalfSpace(GOLD_DRUDE), STACK],
                         ids=["gold", "sapphire_stack"])
@pytest.mark.parametrize("nu", [1, 2, 4])
def test_grazing_coefficient_step_independent(mirror, nu):
    # S is a limit beta -> 0: the default step beta_0 = 1e-6 w/c and a
    # ten times larger one agree
    a = nu * LAM / 2.0
    s_default = _grazing_coefficient(mirror, W_LIH, a)
    s_coarse = _grazing_coefficient(mirror, W_LIH, a, step=1e-5)
    assert s_default != 0
    assert abs(s_coarse - s_default) <= 1e-8 * abs(s_default)
