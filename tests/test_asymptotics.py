"""Constant-reflectivity closed forms, series, and depth-scaling law.

The series and closed forms are cross-checked against direct quadrature of
the defining oscillatory integral, evaluated here with the package's own
adaptive integrator over an explicit panel decomposition, against the plain
term-by-term series, and against mpmath's Lerch transcendent.
"""

import functools
import math

import numpy as np
import pytest

from cavitycp.asymptotics import (I_half_asym, I_half_closed, I_phi_series,
                                  I_zero_asym, depth_nu1_asym, depth_scaling,
                                  phi_asymptote, phi_nu, phi_nu_printed)
from cavitycp.constants import ZETA_3
from cavitycp.quadrature import QuadratureSpec, adaptive_integrate

PHI_TABLE = [(2, -0.1134423724), (3, -0.4015949503), (4, -0.7384479470)]
LAM = 6.7526e-4


def I_phi_plain(r, nu, lam, phi):
    """I(phi) as the plain series, summed term by term until
    r^(2j) < 1e-16."""
    j = np.arange(int(-16.0 * math.log(10.0) / (2.0 * math.log(r))) + 1.0)

    def y(p):
        c, s = np.cos(2.0 * np.pi * nu * p), np.sin(2.0 * np.pi * nu * p)
        return (-2.0 / p**3 + (2.0 / p**3 - 4.0 * nu**2 * np.pi**2 / p) * c
                + 4.0 * nu * np.pi / p**2 * s)

    return r / (2.0 * np.pi * nu**3 * lam**3) * float(
        np.sum(r ** (2.0 * j) * (y(j + 0.5 + phi) + y(j + 0.5 - phi))))


@functools.lru_cache(maxsize=None)
def lerch_mpmath(delta, b):
    """mpmath's Phi((1 - delta)^2, s, b) for s = 1, 2, 3, at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        z = (1 - mpmath.mpf(delta)) ** 2
        return tuple(mpmath.lerchphi(z, s, b) for s in (1, 2, 3))


def I_phi_mpmath(r, nu, lam, phi):
    """I(phi) combined at 30 digits from mpmath's Lerch transcendent, at
    delta = 1 - r as the series takes it."""
    mpmath = pytest.importorskip("mpmath")
    delta = 1.0 - r
    with mpmath.workdps(30):
        total = 0
        for b in (0.5 + phi, 0.5 - phi):
            c, s = mpmath.cospi(2 * nu * b), mpmath.sinpi(2 * nu * b)
            phi1, phi2, phi3 = lerch_mpmath(delta, b)
            total += ((2 * c - 2) * phi3 - 4 * nu**2 * mpmath.pi**2 * c * phi1
                      + 4 * nu * mpmath.pi * s * phi2)
        return float((1 - mpmath.mpf(delta)) * total
                     / (2 * mpmath.pi * nu**3 * mpmath.mpf(lam) ** 3))


def depth_phis(nu):
    """phi at the well minimum and maximum of the nu-th resonance."""
    return (0.5 - 1.5 / nu, 0.5 - 1.0 / nu)


def I_phi_quadrature(r, nu, a, phi):
    """I(phi) by direct quadrature of the defining integral
    (r/(8 pi a^3)) Im int_0^{2 pi nu} x^2 e^{ix/2} cos(phi x)/(1 - r^2 e^{ix}).
    """
    def f(x):
        return x * x * np.exp(0.5j * x) * np.cos(phi * x) \
            / (1.0 - r * r * np.exp(1j * x))

    # denominator minima at x = 2 pi m, width ~ 1 - r^2: refine geometrically
    width = 1.0 - r * r
    bps = []
    for m in range(0, nu + 1):
        center = 2.0 * math.pi * m
        off = 1.0
        while off > 0.01 * width:
            for x in (center - off, center + off):
                if 0.0 < x < 2.0 * math.pi * nu:
                    bps.append(x)
            off *= 0.5
        if 0.0 < center < 2.0 * math.pi * nu:
            bps.append(center)
    val, _ = adaptive_integrate(
        f, 0.0, 2.0 * math.pi * nu,
        QuadratureSpec(rel_tol=1e-11),
        breakpoints=sorted(bps))
    return r / (8.0 * math.pi * a**3) * complex(val).imag


@pytest.mark.parametrize("nu, ref", PHI_TABLE)
def test_phi_table(nu, ref):
    assert phi_nu(nu) == pytest.approx(ref, abs=1e-8)


def test_phi_variants_differ_by_rational_shift():
    for nu in (2, 3, 4, 7, 20):
        assert phi_nu(nu) - phi_nu_printed(nu) == pytest.approx(
            nu / (4.0 * (nu - 1.0)), rel=1e-14)


def test_phi_domain():
    with pytest.raises(ValueError):
        phi_nu(1)
    with pytest.raises(ValueError):
        phi_asymptote(1)


def test_asymptote_constants():
    # slope 5/12 - 2/(27 pi^2), intercept ln 2 + 1/4
    slope = -(phi_asymptote(3) - phi_asymptote(2))
    intercept = phi_asymptote(2) + 2.0 * slope
    assert slope == pytest.approx(0.4091613938, abs=1e-10)
    assert intercept == pytest.approx(0.9431471806, abs=1e-10)


def test_phi_asymptote_approach():
    # the linear asymptote is within 7% of phi(nu) already at nu = 4
    assert phi_asymptote(4) == pytest.approx(phi_nu(4), rel=0.07)
    assert phi_asymptote(12) == pytest.approx(phi_nu(12), rel=0.02)


def test_series_domain():
    # 0 < r < 1, lam > 0, and the Lerch form of I(phi) needs integer nu >= 1
    for r, nu, lam in ((1.0, 1, LAM), (0.5, 0, LAM), (0.5, [2, 0], LAM),
                       (0.5, 2.5, LAM), (0.5, 1, 0.0)):
        with pytest.raises(ValueError):
            I_phi_series(r, nu, lam, 0.1)
    # b = 1/2 - |phi| must stay positive; I_half_closed covers phi = 1/2
    for phi in (0.5, -0.5, 0.7):
        with pytest.raises(ValueError):
            I_phi_series(0.99, 3, LAM, phi)


def test_I_half_closed_value():
    assert I_half_closed(0.9, 1.0) == pytest.approx(-2.6229, abs=5e-4)
    with pytest.raises(ValueError):
        I_half_closed(1.0, 1.0)


@pytest.mark.parametrize("r", [0.5, 0.9, 0.99, 0.999])
def test_I_half_closed_vs_quadrature(r):
    a = 1.0
    assert I_phi_quadrature(r, 1, a, 0.5) == pytest.approx(
        I_half_closed(r, a), rel=1e-6)


def test_series_vs_quadrature_interior():
    nu = 2
    for phi in (0.0, 0.25, 0.4):
        assert I_phi_series(0.9, nu, LAM, phi) == pytest.approx(
            I_phi_quadrature(0.9, nu, nu * LAM / 2.0, phi), rel=1e-8)


@pytest.mark.parametrize("delta", [0.5, 0.1, 1e-2, 1e-3])
def test_series_vs_plain_series(delta):
    r = 1.0 - delta
    for nu in range(1, 7):
        phis = (0.0, 0.1, 0.25, -0.37) + (depth_phis(nu) if nu >= 2 else ())
        for phi in phis:
            assert I_phi_series(r, nu, LAM, phi) == pytest.approx(
                I_phi_plain(r, nu, LAM, phi), rel=1e-11)


@pytest.mark.parametrize("delta", [1e-5, 1e-8, 1e-12])
def test_series_vs_mpmath_lerch(delta):
    pytest.importorskip("mpmath")
    r = 1.0 - delta
    for nu in (2, 3, 4):
        for phi in depth_phis(nu):
            assert I_phi_series(r, nu, LAM, phi) == pytest.approx(
                I_phi_mpmath(r, nu, LAM, phi), rel=1e-13)


def test_depth_intercept_is_printed_closed_form():
    # Evidence on criterion 1: the exact series' depth at delta = 1e-8 has
    # intercept phi_eff = -ln delta - (nu lam^3/8 pi) Delta I equal to the
    # printed closed form phi_nu_printed, not the table value phi_nu (which
    # is larger by nu/(4(nu - 1))).  ln of 1 - r, the rounded delta: rounding
    # r = 1 - delta moves ln delta by ~2e-5 at delta = 1e-12.
    r = 1.0 - 1e-8
    for nu in (2, 3, 4):
        lo, hi = depth_phis(nu)
        phi_eff = -math.log(1.0 - r) - nu * LAM**3 / (8.0 * math.pi) * (
            I_phi_series(r, nu, LAM, lo) - I_phi_series(r, nu, LAM, hi))
        assert phi_eff == pytest.approx(phi_nu_printed(nu), abs=1e-5)
        assert abs(phi_eff - phi_nu(nu)) > 0.1


def test_series_even_in_phi():
    for phi in (0.1, 0.3, 0.45):
        assert I_phi_series(0.95, 3, LAM, phi) == \
            I_phi_series(0.95, 3, LAM, -phi)


@pytest.mark.parametrize("delta", [0.5, 1e-3, 1e-5, 1e-8])
def test_series_array_matches_scalar_calls(delta):
    # one lerch_phi call for every element; the elements near a zero of I
    # are matched on the scale of the largest
    r = 1.0 - delta
    for nu in (2, 3, 4, 7):
        def series(phi):
            return I_phi_series(r, nu, LAM, phi)

        phis = np.array((-0.37, -0.125, 0.0, 0.25, 0.45) + depth_phis(nu))
        got = series(phis)
        assert got.shape == phis.shape
        want = np.array([series(phi) for phi in phis])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(series(-phis), got)
        assert all(series(-phi) == series(phi) for phi in phis)
        assert series(phis.reshape(7, 1)).shape == (7, 1)


@pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-8])
def test_series_over_cavities_matches_per_cavity_calls(delta):
    # one lerch_phi call for every resonance order at one r and lam, with
    # phis[i] for nus[i]
    r, nus = 1.0 - delta, np.array((2, 3, 4, 7))
    phis = np.array([depth_phis(nu) for nu in nus])
    got = I_phi_series(r, nus, LAM, phis)
    assert got.shape == phis.shape
    for nu, phi, row in zip(nus, phis, got):
        want = I_phi_series(r, nu, LAM, phi)
        assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-6])
def test_asymptotic_residuals(delta):
    # residual of the high-reflectivity limits vanishes like O(delta ln delta)
    a = 1.0
    r = 1.0 - delta
    bound = 5.0 * delta * abs(math.log(delta))
    assert abs(I_half_closed(r, a) - I_half_asym(delta, a)) <= bound
    assert abs(I_phi_quadrature(r, 1, a, 0.0) - I_zero_asym(delta, a)) \
        <= bound


def test_depth_nu1_consistency():
    # depth = coupling * (I(0) - I(1/2)) in the asymptotic limit
    coupling, delta, a = 2.3e-57, 1e-3, 3.4e-4
    assert depth_nu1_asym(coupling, delta, a) == pytest.approx(
        coupling * (I_zero_asym(delta, a) - I_half_asym(delta, a)), rel=1e-13)
    assert -math.pi * coupling / a**3 * (
        math.log(delta) + 7.0 * ZETA_3 / (2.0 * math.pi**2)) == \
        pytest.approx(depth_nu1_asym(coupling, delta, a), rel=1e-14)


def test_depth_scaling_law():
    coupling, lam = 1.7e-57, 6.7526e-4
    d2 = depth_scaling(2, 1e-3, lam, coupling)
    assert d2 == pytest.approx(
        coupling * 8.0 * math.pi / (2.0 * lam**3)
        * abs(math.log(1e-3) + phi_nu(2)), rel=1e-14)
    assert d2 > 0
    # smaller delta (better mirror) means a deeper well
    assert depth_scaling(2, 1e-4, lam, coupling) > d2
    with pytest.raises(ValueError):
        depth_scaling(2, 0.0, lam, coupling)
    with pytest.raises(ValueError):
        depth_scaling(2, 1.0, lam, coupling)
