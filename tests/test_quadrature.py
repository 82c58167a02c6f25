"""Adaptive Gauss-Kronrod integrator, scalar and vector-valued."""

import math

import numpy as np
import pytest

from cavitycp.quadrature import (QuadratureError, QuadratureSpec,
                                 adaptive_integrate)


def test_polynomial_exact():
    # GK15 is exact for polynomials far beyond cubic; the adaptive wrapper
    # must not degrade that.
    val, err = adaptive_integrate(lambda x: 3.0 * x**2, 0.0, 2.0)
    assert val == pytest.approx(8.0, rel=1e-14)
    assert err < 1e-12


def test_oscillatory_complex():
    # int_0^1 e^{50 i x} dx = (e^{50 i} - 1) / (50 i)
    val, _ = adaptive_integrate(lambda x: np.exp(50j * x), 0.0, 1.0)
    exact = (np.exp(50j) - 1.0) / 50j
    assert val == pytest.approx(exact, rel=1e-12)


def test_sharp_peak_with_breakpoint():
    # Lorentzian of width 1e-6 centered at 0.5; breakpoint hint required
    # for the default budget, after which the integral is near-exact.
    w = 1e-6

    def f(x):
        return w / ((x - 0.5) ** 2 + w * w)

    val, _ = adaptive_integrate(f, 0.0, 1.0, breakpoints=[0.5])
    exact = math.atan(0.5 / w) - math.atan(-0.5 / w)
    assert val == pytest.approx(exact, rel=1e-10)


def test_decaying_exponential():
    val, _ = adaptive_integrate(lambda x: np.exp(-x), 0.0, 40.0)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_budget_exhaustion_raises_with_estimate():
    spec = QuadratureSpec(rel_tol=1e-15, max_subdivisions=3)

    def f(x):
        return np.sqrt(np.abs(np.sin(40.0 * x)))

    with pytest.raises(QuadratureError) as exc:
        adaptive_integrate(f, 0.0, 3.0, spec)
    assert np.isfinite(exc.value.estimate)
    assert exc.value.error > 0


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_integrate(lambda x: x, 1.0, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def test_defaults():
    spec = QuadratureSpec()
    assert spec.rel_tol == 1e-9
    assert spec.abs_tol == 1e-300
    assert spec.max_subdivisions == 2000


def test_vector_matches_scalar_components():
    # int_0^pi cos(k x) dx = sin(k pi)/k, several k in one vector pass
    ks = [0.5, 1.3, 2.5, 7.2, 30.5]
    vals, errs = adaptive_integrate(lambda x: np.cos(np.outer(x, ks)),
                                    0.0, math.pi)
    assert vals.shape == errs.shape == (len(ks),)
    for k, val, err in zip(ks, vals, errs):
        scalar, _ = adaptive_integrate(lambda x: np.cos(k * x), 0.0, math.pi)
        exact = math.sin(k * math.pi) / k
        assert err <= 1e-9 * abs(val)
        assert val == pytest.approx(scalar, rel=1e-12, abs=1e-15)
        assert val == pytest.approx(exact, rel=1e-12, abs=1e-15)


def test_vector_budget_exhaustion_raises():
    ks = np.array([1.0, 40.0])
    with pytest.raises(QuadratureError) as exc:
        adaptive_integrate(lambda x: np.cos(np.outer(x, ks)), 0.0, math.pi,
                           QuadratureSpec(rel_tol=1e-15, max_subdivisions=2))
    assert exc.value.estimate.shape == (2,)
    assert np.all(np.isfinite(exc.value.estimate))


def test_rule_reproduces_integral():
    # the final panels' rule, applied to the integrand, gives the result
    result = adaptive_integrate(lambda x: np.exp(50j * x), 0.0, 1.0)
    nodes, weights = result.rule()
    assert np.sum(weights * np.exp(50j * nodes)) == pytest.approx(
        result[0], rel=1e-14)
