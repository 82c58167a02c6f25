"""Property tests of the reflection kernel on random passive mirrors."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from cavitycp.constants import C  # noqa: E402
from cavitycp.materials import (ConstantLossy, Drude, HalfSpace,  # noqa: E402
                                Layer, Stack, Vacuum, quarter_wave_stack,
                                reflection_coefficients,
                                static_limit_reflection)

W_LIH = 2.78973e12

drude = st.builds(Drude, plasma_frequency=st.floats(1e13, 1e17),
                  damping=st.floats(1e10, 1e15))
dielectric = st.builds(ConstantLossy, eps_real=st.floats(1.0, 100.0),
                       eps_imag=st.floats(0.0, 10.0))
material = st.one_of(drude, dielectric, st.just(Vacuum()))
halfspace = st.builds(HalfSpace, material)
stack = st.builds(
    lambda a, b, n, w: Stack(quarter_wave_stack(a, b, n, w)),
    dielectric, st.one_of(dielectric, st.just(Vacuum())),
    st.integers(1, 8), st.floats(1e11, 1e14))
mirror = st.one_of(halfspace, stack)
omega = st.floats(1e10, 1e16)
xi = st.floats(1e8, 1e17)


@given(mirror, omega, st.floats(0.0, 1.0, exclude_max=True))
def test_passive_propagating_reflection_bounded(m, w, sin_theta):
    # |r_sigma| <= 1 for propagating waves (k_perp < w/c) off passive media;
    # exact grazing incidence is test_exact_grazing_incidence below
    k = np.array([sin_theta * w / C])
    for r in reflection_coefficients(m, w, k):
        assert abs(r[0]) <= 1.0 + 1e-12


@pytest.mark.xfail(strict=True, reason="known defect: at k_perp = w/c a "
                   "vacuum-index layer gives 0/0 (NaN) instead of the limit")
@pytest.mark.parametrize("m", [
    HalfSpace(Vacuum()),
    Stack(quarter_wave_stack(ConstantLossy(10.0), Vacuum(), 2, W_LIH))],
    ids=["vacuum", "stack_with_vacuum_layers"])
def test_exact_grazing_incidence(m):
    for r in reflection_coefficients(m, W_LIH, np.array([W_LIH / C])):
        assert np.isfinite(r[0]) and abs(r[0]) <= 1.0


@given(st.one_of(st.builds(HalfSpace, drude),
                 st.builds(HalfSpace, dielectric)),
       xi, st.floats(0.0, 1e3))
def test_imaginary_axis_rp_in_unit_interval(m, x, k_scale):
    # kappa >= xi/c on the imaginary axis; r_p(i xi) is real in [0, 1)
    k = np.array([k_scale * x / C])
    kappa = np.sqrt(k**2 + (x / C) ** 2)
    _, rp = reflection_coefficients(m, 1j * x, k, beta=1j * kappa)
    assert abs(rp[0].imag) <= 1e-12 * abs(rp[0].real)
    assert 0.0 <= rp[0].real < 1.0


@given(material, omega, st.floats(0.0, 3.0), st.floats(1e-2, 1e7))
def test_halfspace_equals_one_layer_stack(mat, w, k_scale, k_static):
    half, one = HalfSpace(mat), Stack((Layer(mat, None),))
    k = np.array([k_scale * w / C])
    for freq in (w, 1j * w):
        for a, b in zip(reflection_coefficients(half, freq, k),
                        reflection_coefficients(one, freq, k)):
            assert a[0] == pytest.approx(b[0], rel=1e-12, abs=1e-15)
    assert static_limit_reflection(half, k_static) \
        == static_limit_reflection(one, k_static)


@given(mirror, st.lists(xi, min_size=1, max_size=6),
       st.lists(st.floats(0.0, 1e7), min_size=1, max_size=5))
def test_array_xi_reflection_equals_per_xi(m, xis, ks):
    xis, k = np.array(xis), np.array(ks)
    kappa = np.sqrt(k[:, None] ** 2 + (xis / C) ** 2)
    rs, rp = reflection_coefficients(m, 1j * xis, k[:, None], beta=1j * kappa)
    assert rs.shape == rp.shape == kappa.shape
    for j, x in enumerate(xis):
        rs_j, rp_j = reflection_coefficients(m, 1j * x, k, beta=1j * kappa[:, j])
        np.testing.assert_allclose(rs[:, j], rs_j, rtol=1e-13, atol=1e-300)
        np.testing.assert_allclose(rp[:, j], rp_j, rtol=1e-13, atol=1e-300)
