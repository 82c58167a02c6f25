"""Permittivity models, Fresnel/multilayer reflection, static limits."""

import cmath
import math

import numpy as np
import pytest

from cavitycp.constants import C
from cavitycp.materials import (ConstantLossy, ConstantR, Drude, HalfSpace,
                                Layer, Stack, Vacuum, fresnel_halfspace,
                                multilayer_reflection, permittivity_at,
                                quarter_wave_stack, reflection_coefficients,
                                static_limit_reflection, sqrt_upper,
                                transverse_wavenumber)
from tests.conftest import GOLD_DRUDE, SAPPHIRE_300K, SAPPHIRE_77K

W_LIH = 2.78973e12


def test_drude_permittivity():
    eps = permittivity_at(GOLD_DRUDE, W_LIH)
    expect = 1.0 - 1.37e16**2 / (W_LIH * (W_LIH + 1j * 5.32e13))
    assert eps == pytest.approx(expect, rel=1e-14)
    assert eps.imag > 0


def test_drude_imag_axis_real():
    eps = permittivity_at(GOLD_DRUDE, 1j * 2.0e14)
    assert abs(eps.imag) < 1e-10 * abs(eps.real)
    assert eps.real > 1.0


def test_constant_lossy_imag_axis_lossless():
    # real axis: the complex constant; imaginary axis: eps_real
    assert permittivity_at(SAPPHIRE_300K, W_LIH) == complex(10.0, 1e-4)
    assert permittivity_at(SAPPHIRE_300K, 1j * 2.0e14) == complex(10.0, 0.0)


def test_constant_lossy_and_vacuum():
    assert permittivity_at(SAPPHIRE_300K, 1e12) == 10.0 + 1e-4j
    assert permittivity_at(Vacuum(), 1e12) == 1.0


def test_drude_static_rejected():
    with pytest.raises(ValueError):
        permittivity_at(GOLD_DRUDE, 0.0)


def test_model_validation():
    with pytest.raises(ValueError):
        Drude(plasma_frequency=-1.0, damping=1.0)
    with pytest.raises(ValueError):
        ConstantLossy(eps_real=2.0, eps_imag=-0.1)
    with pytest.raises(ValueError):
        ConstantR(r=1.0)
    with pytest.raises(ValueError):
        Layer(Vacuum(), thickness=0.0)
    with pytest.raises(ValueError):
        Stack((Layer(Vacuum(), 1e-6),))  # no semi-infinite terminator


def test_sqrt_upper_branch(rng):
    w = rng.normal(size=200) + 1j * rng.normal(size=200)
    s = sqrt_upper(w)
    assert np.all(s.imag >= 0)
    assert np.allclose(s * s, w)


def test_transverse_wavenumber_branch(rng):
    omega = 1e13
    k = rng.uniform(0.0, 3.0 * omega / C, size=500)
    for eps in (1.0, 10.0 + 1e-4j, permittivity_at(GOLD_DRUDE, omega)):
        beta = transverse_wavenumber(eps, omega, k)
        assert np.all(beta.imag >= 0)


def test_fresnel_normal_incidence():
    # At k_perp = 0: r_s = (1 - n)/(1 + n), r_p = (n - 1)/(n + 1) with the
    # beta_t = n w/c convention used here.
    eps = 10.0 + 1e-4j
    n = cmath.sqrt(eps)
    rs, rp = fresnel_halfspace(eps, W_LIH, np.array([0.0]))
    assert rs[0] == pytest.approx((1.0 - n) / (1.0 + n), rel=1e-12)
    assert rp[0] == pytest.approx((eps - n) / (eps + n), rel=1e-12)


def test_fresnel_vacuum_is_transparent():
    # exact grazing incidence (k_perp = w/c) is excluded: the coefficient is
    # 0/0 there for a medium identical to vacuum
    k = np.concatenate((np.linspace(0.0, 0.99 * W_LIH / C, 5),
                        np.linspace(1.01, 2.0, 5) * W_LIH / C))
    rs, rp = fresnel_halfspace(1.0 + 0.0j, W_LIH, k)
    assert np.allclose(rs, 0.0)
    assert np.allclose(rp, 0.0)


def test_fresnel_passivity(rng):
    # |r| <= 1 for passive media at real frequency, propagating incidence.
    k = rng.uniform(0.0, 0.999 * W_LIH / C, size=300)
    for eps in (permittivity_at(GOLD_DRUDE, W_LIH), 10.0 + 1e-4j, 2.0 + 0.5j):
        rs, rp = fresnel_halfspace(eps, W_LIH, k)
        assert np.all(np.abs(rs) <= 1.0 + 1e-12)
        assert np.all(np.abs(rp) <= 1.0 + 1e-12)


def test_fresnel_grazing_incidence():
    rs, rp = fresnel_halfspace(10.0 + 0.0j, W_LIH,
                               np.array([W_LIH / C]))
    assert rs[0] == pytest.approx(-1.0, abs=1e-9)
    assert rp[0] == pytest.approx(-1.0, abs=1e-9)


def test_fresnel_beta_argument_precision():
    # Passing the exact beta must agree with the k_perp route where the
    # latter is well-conditioned, and stay accurate where it is not.
    wc = W_LIH / C
    beta = 1e-3 * wc
    k = math.sqrt(wc * wc - beta * beta)
    rs_a, _ = fresnel_halfspace(10.0 + 0.0j, W_LIH, np.array([k]))
    rs_b, _ = fresnel_halfspace(10.0 + 0.0j, W_LIH, np.array([k]),
                                beta=np.array([beta + 0j]))
    assert rs_a[0] == pytest.approx(rs_b[0], rel=1e-9)
    beta = 1e-12 * wc  # k_perp route has lost all information here
    _, rp = fresnel_halfspace(10.0 + 0.0j, W_LIH, np.array([wc]),
                              beta=np.array([beta + 0j]))
    assert abs(rp[0] + 1.0) == pytest.approx(
        abs(2.0 * 10.0 * beta / (cmath.sqrt(9.0 + 0j) * wc)), rel=1e-6)


def test_multilayer_single_interface_reduces_to_fresnel():
    layers = (Layer(SAPPHIRE_300K, None),)
    k = np.linspace(0.0, 0.9 * W_LIH / C, 5)
    rs, rp = fresnel_halfspace(10.0 + 1e-4j, W_LIH, k)
    assert np.allclose(multilayer_reflection(layers, W_LIH, k, "s"), rs)
    assert np.allclose(multilayer_reflection(layers, W_LIH, k, "p"), rp)


def test_multilayer_vacuum_layer_is_phase_only():
    # A leading vacuum layer of thickness d multiplies r by e^{2 i beta d}.
    d = 3.7e-5
    layers = (Layer(Vacuum(), d), Layer(SAPPHIRE_300K, None))
    k = np.array([0.3 * W_LIH / C])
    beta = transverse_wavenumber(1.0, W_LIH, k)
    _, rp0 = fresnel_halfspace(10.0 + 1e-4j, W_LIH, k)
    rp = multilayer_reflection(layers, W_LIH, k, "p")
    assert rp[0] == pytest.approx(rp0[0] * np.exp(2j * beta[0] * d),
                                  rel=1e-12)


def test_multilayer_validation():
    with pytest.raises(ValueError):
        multilayer_reflection((), W_LIH, np.array([0.0]), "s")
    with pytest.raises(ValueError):
        multilayer_reflection((Layer(Vacuum(), None),), W_LIH,
                              np.array([0.0]), "x")


def test_quarter_wave_stack_geometry():
    layers = quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 2, W_LIH)
    assert len(layers) == 5
    assert layers[-1].thickness is None
    n_sap = math.sqrt(10.0)
    d_sap = math.pi * C / (2.0 * n_sap * W_LIH)
    d_vac = math.pi * C / (2.0 * W_LIH)
    assert layers[0].thickness == pytest.approx(d_sap, rel=1e-12)
    assert layers[1].thickness == pytest.approx(d_vac, rel=1e-12)


SAPPHIRE_STACK_REF = [
    # (material, n_pairs, 1 - Re r_p at normal incidence, design frequency)
    (SAPPHIRE_300K, 8, 5.525524931493386e-06),
    (SAPPHIRE_77K, 8, 6.151670983722823e-08),
    (SAPPHIRE_77K, 10, 5.52554011434836e-08),
]


@pytest.mark.parametrize("mat, n_pairs, ref", SAPPHIRE_STACK_REF)
def test_sapphire_stack_reflectivity(mat, n_pairs, ref):
    layers = quarter_wave_stack(mat, Vacuum(), n_pairs, W_LIH)
    rp = multilayer_reflection(layers, W_LIH, np.array([0.0]), "p")
    assert 1.0 - rp[0].real == pytest.approx(ref, rel=1e-6)


def test_lossless_stack_reflectivity_grows():
    lossless = ConstantLossy(eps_real=12.96, eps_imag=0.0)
    other = ConstantLossy(eps_real=10.96, eps_imag=0.0)
    prev = 1.0
    for n in (10, 20, 30, 40):
        layers = quarter_wave_stack(lossless, other, n, W_LIH)
        one_minus = 1.0 - multilayer_reflection(
            layers, W_LIH, np.array([0.0]), "p")[0].real
        assert one_minus < prev
        prev = one_minus


def test_static_limit_halfspace():
    assert static_limit_reflection(HalfSpace(GOLD_DRUDE), 1e3) == (0.0, 1.0)
    rs, rp = static_limit_reflection(HalfSpace(SAPPHIRE_300K), 1e3)
    assert rs == 0.0
    assert rp == pytest.approx(9.0 / 11.0, rel=1e-14)
    assert static_limit_reflection(HalfSpace(Vacuum()), 1e3) == (0.0, 0.0)


def test_static_limit_constant_r():
    assert static_limit_reflection(ConstantR(0.9), 1e3) == (-0.9, 0.9)


def test_static_limit_stack_thick_layers_approach_front_interface():
    # With optically thick interior layers the static recursion collapses to
    # the vacuum/front-material interface.
    layers = (Layer(SAPPHIRE_300K, 1.0), Layer(Vacuum(), 1.0),
              Layer(GOLD_DRUDE, None))
    _, rp = static_limit_reflection(Stack(layers), 1e3)
    assert rp == pytest.approx(9.0 / 11.0, rel=1e-10)


def test_static_limit_stack_finite():
    layers = quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 8, W_LIH)
    for k in (1.0, 1e3, 1e6):
        _, rp = static_limit_reflection(Stack(layers), k)
        assert np.isfinite(rp)
        assert abs(rp) <= 1.0


def test_reflection_coefficients_dispatch(rng):
    k = rng.uniform(0.0, 2.0 * W_LIH / C, size=50)
    rs, rp = reflection_coefficients(ConstantR(0.7), W_LIH, k)
    assert np.allclose(rs, -0.7)
    assert np.allclose(rp, 0.7)
    rs_h, rp_h = reflection_coefficients(HalfSpace(GOLD_DRUDE), W_LIH, k)
    rs_f, rp_f = fresnel_halfspace(permittivity_at(GOLD_DRUDE, W_LIH),
                                   W_LIH, k)
    assert np.allclose(rs_h, rs_f) and np.allclose(rp_h, rp_f)
