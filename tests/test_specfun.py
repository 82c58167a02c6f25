"""Special functions against independently computed reference values.

Reference values were generated with an arbitrary-precision library
(30 digits) and frozen here; the implementations under test are
series/Euler-Maclaurin/quadrature based and independent of that library.
The Lerch transcendent is also checked live against mpmath where it is
installed.
"""

import numpy as np
import pytest

from cavitycp.specfun import digamma, hurwitz_zeta3, lerch_phi

DIGAMMA_REF = [
    (0.001, -1000.5755719318103),
    (0.25, -4.2274535333762655),
    (0.5, -1.9635100260214235),
    (1.0, -0.5772156649015329),
    (1.5, 0.03648997397857652),
    (3.7, 1.1671535393615113),
    (12.5, 2.4851956512749123),
    (100.0, 4.600161852738087),
]

HURWITZ3_REF = [
    (0.001, 1000000001.1988161),
    (0.3, 37.63626829436302),
    (1.0, 1.2020569031595942),
    (2.5, 0.1181020258208637),
    (30.0, 0.0005743826018643),
]

LERCH_REF = [
    # Phi(r^2, 1, b) = sum_j r^(2j) / (j + b), frozen from the float r
    (0.9, 0.4, 3.830801506605565),
    (0.5, 2.0, 0.6029131592284949),
    (0.999999, 0.7, 13.765190437434768),
    (0.999999999999, 1.3, 26.529871281368756),
]


@pytest.mark.parametrize("x, ref", DIGAMMA_REF)
def test_digamma(x, ref):
    assert digamma(x) == pytest.approx(ref, rel=1e-12)


def test_digamma_recurrence():
    # psi(x+1) = psi(x) + 1/x
    for x in (0.1, 0.7, 2.3, 9.9):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x,
                                                 rel=1e-12)


def test_digamma_domain():
    with pytest.raises(ValueError):
        digamma(0.0)
    with pytest.raises(ValueError):
        digamma(-1.5)


@pytest.mark.parametrize("b, ref", HURWITZ3_REF)
def test_hurwitz_zeta3(b, ref):
    assert hurwitz_zeta3(b) == pytest.approx(ref, rel=1e-12)


def test_hurwitz_zeta3_shift():
    # zeta(3, b) = zeta(3, b+1) + b^-3
    for b in (0.2, 1.0, 4.5):
        assert hurwitz_zeta3(b) == pytest.approx(
            hurwitz_zeta3(b + 1.0) + b**-3, rel=1e-12)


def test_hurwitz_zeta3_domain():
    with pytest.raises(ValueError):
        hurwitz_zeta3(0.0)


@pytest.mark.parametrize("r, b, ref", LERCH_REF)
def test_lerch_phi(r, b, ref):
    assert lerch_phi(1.0 - r, b)[0] == pytest.approx(ref, rel=1e-11)


def test_lerch_phi_delta_one():
    # r = 0: only the j = 0 term, b^-s
    for b in (0.3, 2.5):
        assert lerch_phi(1.0, b) == pytest.approx(
            [b**-1, b**-2, b**-3], rel=1e-15)


def test_lerch_phi_domain():
    for b in (0.0, -0.5, [0.3, 0.0, 1.0], [0.3, -0.5], [[0.5], [-1e-300]]):
        with pytest.raises(ValueError):
            lerch_phi(0.5, b)
    for delta in (0.0, -1e-3, 1.5):
        with pytest.raises(ValueError):
            lerch_phi(delta, 1.0)


@pytest.mark.parametrize("delta", [1.0, 0.5, 1e-3, 1e-5, 1e-12])
def test_lerch_phi_array_matches_scalar_calls(delta):
    # one integral up to 50/min b for every column, against one per b
    b = np.array([[0.05, 0.3, 1.0], [0.5, 2.0, 7.5]])
    got = lerch_phi(delta, b)
    assert got.shape == (2, 3, 3)
    want = np.array([[lerch_phi(delta, x) for x in row] for row in b])
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    assert lerch_phi(delta, 0.3).shape == (3,)
    assert lerch_phi(delta, [0.3]).shape == (1, 3)


@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-12])
def test_lerch_phi_array_vs_mpmath(delta):
    mpmath = pytest.importorskip("mpmath")
    b = np.linspace(0.05, 1.0, 6)
    with mpmath.workdps(30):
        z = (1 - mpmath.mpf(delta)) ** 2
        ref = [[float(mpmath.lerchphi(z, s, x)) for s in (1, 2, 3)]
               for x in b]
    assert lerch_phi(delta, b) == pytest.approx(np.array(ref), rel=1e-13)


@pytest.mark.parametrize("delta", [1.0, 0.5, 1e-2, 1e-5, 1e-8, 1e-12])
def test_lerch_phi_vs_mpmath(delta):
    mpmath = pytest.importorskip("mpmath")
    for b in (0.01, 1 / 6, 0.5, 1.25, 3.0):
        with mpmath.workdps(30):
            z = (1 - mpmath.mpf(delta)) ** 2
            ref = [float(mpmath.lerchphi(z, s, b)) for s in (1, 2, 3)]
        assert lerch_phi(delta, b) == pytest.approx(ref, rel=1e-13)
