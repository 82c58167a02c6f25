"""Property tests of the reflection kernel on random passive mirrors, of
the propagating path phase, and of the propagating trace's arch height."""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import cavitycp.greens as greens  # noqa: E402
from cavitycp.constants import C  # noqa: E402
from cavitycp.greens import (CavityGeometry, PlateGeometry,  # noqa: E402
                             _paths, cavity_trace_realfreq)
from cavitycp.materials import (ConstantLossy, ConstantR, Drude,  # noqa
                                HalfSpace, Layer, Stack, Vacuum,
                                quarter_wave_stack,
                                reflection_coefficients, sqrt_upper,
                                static_limit_reflection,
                                transverse_wavenumber)
from cavitycp.quadrature import QuadratureSpec  # noqa: E402

W_LIH = 2.78973e12
LAM = 2.0 * math.pi * C / W_LIH

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
    for r in reflection_coefficients(m, w,
                                     beta=transverse_wavenumber(1.0, w, k)):
        assert abs(r[0]) <= 1.0 + 1e-12


@pytest.mark.parametrize("m, limit", [
    (HalfSpace(Vacuum()), 0.0),
    (Stack(quarter_wave_stack(ConstantLossy(10.0), Vacuum(), 2, W_LIH)),
     -1.0),
    (HalfSpace(ConstantLossy(10.0)), -1.0),
    (HalfSpace(Drude(1.37e16, 5.32e13)), -1.0),
    (Stack(quarter_wave_stack(Vacuum(), ConstantLossy(10.0), 2, W_LIH)), -1.0)],
    ids=["vacuum", "stack_with_vacuum_layers", "dielectric", "gold",
         "vacuum_fronted_stack"])
def test_exact_grazing_incidence(m, limit):
    # at k_perp = w/c (beta = 0) vacuum-index layers would give 0/0; the
    # limit is -1 behind any eps != 1 interface and 0 for pure vacuum
    for r in reflection_coefficients(m, W_LIH, beta=transverse_wavenumber(
            1.0, W_LIH, np.array([W_LIH / C]))):
        assert r[0] == limit


@given(st.one_of(st.builds(HalfSpace, drude),
                 st.builds(HalfSpace, dielectric)),
       xi, st.floats(0.0, 1e3))
def test_imaginary_axis_rp_in_unit_interval(m, x, k_scale):
    # kappa >= xi/c on the imaginary axis; r_p(i xi) is real in [0, 1)
    k = np.array([k_scale * x / C])
    kappa = np.sqrt(k**2 + (x / C) ** 2)
    _, rp = reflection_coefficients(m, 1j * x, beta=1j * kappa)
    assert abs(rp[0].imag) <= 1e-12 * abs(rp[0].real)
    assert 0.0 <= rp[0].real < 1.0


@given(material, omega, st.floats(0.0, 3.0), st.floats(1e-2, 1e7))
def test_halfspace_equals_one_layer_stack(mat, w, k_scale, k_static):
    half, one = HalfSpace(mat), Stack((Layer(mat, None),))
    k = np.array([k_scale * w / C])
    for freq in (w, 1j * w):
        beta = transverse_wavenumber(1.0, freq, k)
        for a, b in zip(reflection_coefficients(half, freq, beta=beta),
                        reflection_coefficients(one, freq, beta=beta)):
            assert a[0] == pytest.approx(b[0], rel=1e-12, abs=1e-15)
    assert static_limit_reflection(half, k_static) \
        == static_limit_reflection(one, k_static)


@given(mirror, st.lists(xi, min_size=1, max_size=6),
       st.lists(st.floats(0.0, 1e7), min_size=1, max_size=5))
def test_array_xi_reflection_equals_per_xi(m, xis, ks):
    xis, k = np.array(xis), np.array(ks)
    kappa = np.sqrt(k[:, None] ** 2 + (xis / C) ** 2)
    rs, rp = reflection_coefficients(m, 1j * xis, beta=1j * kappa)
    assert rs.shape == rp.shape == kappa.shape
    for j, x in enumerate(xis):
        rs_j, rp_j = reflection_coefficients(m, 1j * x, beta=1j * kappa[:, j])
        np.testing.assert_allclose(rs[:, j], rs_j, rtol=1e-13, atol=1e-300)
        np.testing.assert_allclose(rp[:, j], rp_j, rtol=1e-13, atol=1e-300)


# --- reference: one recursion per polarization ------------------------------
# The form the library used before s and p shared one pass: eps_j and beta_j
# recomputed for each polarization, r_p written with eps_j beta_i - eps_i
# beta_j, and a half-space through its own Fresnel formula.

def _per_polarization(m, w, k, beta, pol):
    layers = m.layers if isinstance(m, Stack) else (Layer(m.material, None),)
    eps = [1.0 + 0.0j] + [l.material.eps(w) for l in layers]
    betas = [beta] + [sqrt_upper(beta * beta + (e - 1.0) * (w / C) ** 2)
                      for e in eps[1:]]

    def r_interface(i, j):
        if pol == "s":
            return (betas[i] - betas[j]) / (betas[i] + betas[j])
        return ((eps[j] * betas[i] - eps[i] * betas[j])
                / (eps[j] * betas[i] + eps[i] * betas[j]))

    r = r_interface(len(layers) - 1, len(layers))
    for i in range(len(layers) - 2, -1, -1):
        phase = np.exp(2j * betas[i + 1] * layers[i].thickness)
        r_up = r_interface(i, i + 1)
        r = (r_up + r * phase) / (1.0 + r_up * r * phase)
    return r


@given(mirror, omega, st.floats(0.0, 3.0), st.booleans())
def test_merged_recursion_matches_per_polarization(m, w, k_scale, imaginary):
    # s and p from one pass equal the per-polarization recursion, on the
    # real axis (propagating and evanescent) and on the imaginary axis.  The
    # 1e-15 floor covers near-transparent media: there r_p is a difference
    # of nearly equal terms in either form, good to a few ulp of 1 only.
    k = np.array([k_scale * w / C])
    freq = 1j * w if imaginary else w
    beta = 1j * np.sqrt(k**2 + (w / C) ** 2) if imaginary \
        else np.sqrt((w / C) ** 2 - k**2 + 0j)
    for pol, r in zip("sp", reflection_coefficients(m, freq, beta=beta)):
        ref = _per_polarization(m, freq, k, beta, pol)
        assert r[0] == pytest.approx(ref[0], rel=1e-12, abs=1e-15)


dielectric_stack = st.builds(
    lambda a, b, n, w: Stack(quarter_wave_stack(a, b, n, w)),
    dielectric, st.one_of(dielectric, st.just(Vacuum())),
    st.integers(1, 8), st.floats(1e11, 1e14))


@given(st.one_of(dielectric_stack, st.builds(HalfSpace, dielectric)),
       st.floats(1e-2, 1e7))
def test_static_limit_is_imaginary_axis_limit(m, k):
    # r(i xi) -> r(0) as xi -> 0 for dielectric mirrors; at xi = 1e-8 k c the
    # remaining O(xi^2/(k c)^2) difference is far below 1e-9
    xi = 1e-8 * k * C
    kappa = np.sqrt(k**2 + (xi / C) ** 2)
    dynamic = reflection_coefficients(m, 1j * xi,
                                      beta=np.array([1j * kappa]))
    for r0, r in zip(static_limit_reflection(m, k), dynamic):
        assert abs(r[0] - r0) <= 1e-9 * max(abs(r0), 1.0)


@given(st.floats(-800.0, 0.0), st.floats(-2.5e5, 2.5e5))
def test_path_phase_matches_complex_exp(re, im):
    # greens._paths' e^{x L} from real exp and tan(Im x L / 2), to 8 eps of
    # |e^{x L}| against numpy's complex exp, over Re x L down past underflow
    # and Im x L up to the longest path resolved at LiH
    x = np.array([complex(re, im)])
    got = complex(*_paths(x, np.array([0.5]),
                          PlateGeometry(ConstantR(0.5)))[:, 0, 0])
    want = np.exp(x[0])
    assert abs(got - want) <= 8.0 * np.finfo(float).eps * abs(want)


def decades(lo, hi):
    """Floats 10**e, e uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


lossy = st.builds(ConstantLossy, eps_real=st.floats(1.5, 15.0),
                  eps_imag=decades(-6, 0))
# one of four kinds, each a quarter of the draws (st.one_of drew 4 stacks
# in 60 examples)
arch_mirror = st.sampled_from([
    st.builds(HalfSpace, st.builds(Drude, plasma_frequency=decades(14, 17),
                                   damping=decades(11, 14))),
    st.builds(HalfSpace, lossy),
    st.builds(ConstantR, st.floats(0.05, 0.99)),
    st.builds(lambda a, b, n: Stack(quarter_wave_stack(a, b, n, W_LIH)),
              lossy, st.one_of(st.just(Vacuum()), lossy), st.integers(1, 20))
]).flatmap(lambda kind: kind)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(arch_mirror, st.floats(0.3, 3.1), st.booleans(), st.floats(0.1, 0.6))
def test_propagating_trace_does_not_depend_on_a_drawn_arch_height(
        mirror, width, plate, height):
    # test_arch's invariant on drawn mirrors: the arch passes no pole, so
    # at any height in [0.1, 0.6] w/c the trace matches height 0.3, in value
    # and in z-differences, within 10 rel_tol of the column's max.  Widths
    # stop at 3.1 lam: item 6's 8-pair sapphire_77K case sits at 7.5 lam
    spec, width = QuadratureSpec(), width * LAM
    geometry, zs = (PlateGeometry(mirror), np.linspace(0.05, 1.0, 7) * width) \
        if plate else (CavityGeometry(width, mirror),
                       np.linspace(-0.45, 0.45, 7) * width)

    def trace(h):
        with mock.patch.object(greens, "_ARCH", h):
            return cavity_trace_realfreq(zs, W_LIH, geometry,
                                         spec).propagating

    want, got = trace(0.3), trace(height)
    bound = 10.0 * spec.rel_tol * np.max(np.abs(want))
    assert np.all(np.abs(got - want) <= bound)
    assert np.all(np.abs((got - got[0]) - (want - want[0])) <= bound)
