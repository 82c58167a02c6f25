"""Special functions against independently computed reference values.

Reference values were generated with an arbitrary-precision library
(30 digits) and frozen here; the implementations under test are
series/Euler-Maclaurin based and independent of that library.
"""

import pytest

from cavitycp.specfun import digamma, hurwitz_zeta3, shifted_geometric_sum

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
    # sum_j r^(2j) / (j + b)
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
def test_shifted_geometric_sum(r, b, ref):
    assert shifted_geometric_sum(b, r) == pytest.approx(ref, rel=1e-11)


def test_shifted_geometric_sum_r_zero():
    assert shifted_geometric_sum(2.5, 0.0) == pytest.approx(0.4, rel=1e-15)


def test_shifted_geometric_sum_domain():
    with pytest.raises(ValueError):
        shifted_geometric_sum(0.0, 0.5)
    with pytest.raises(ValueError):
        shifted_geometric_sum(1.0, 1.0)
