"""Adaptive Gauss-Kronrod integrator, scalar and vector-valued."""

import contextlib
import csv
import io
import math

import numpy as np
import pytest

import cavitycp.greens
import cavitycp.quadrature
from cavitycp.cli import main
from cavitycp.quadrature import (QuadratureError, QuadratureSpec, _ladder,
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


def test_budget_exhaustion_raises_with_estimate(monkeypatch):
    monkeypatch.setattr(cavitycp.quadrature, "_MAX_SUBDIVISIONS", 3)

    def f(x):
        return np.sqrt(np.abs(np.sin(40.0 * x)))

    with pytest.raises(QuadratureError) as exc:
        adaptive_integrate(f, 0.0, 3.0, QuadratureSpec(rel_tol=1e-15))
    assert np.isfinite(exc.value.estimate)
    assert exc.value.error > 0
    assert exc.value.splits == 3
    assert "3 of 3 subdivisions used" in str(exc.value)
    assert exc.value.error_ratio > 1


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_integrate(lambda x: x, 1.0, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)


def test_ladder_is_geometric_up_to_its_stop():
    # panel edges for a known scale range: ascending and descending, on
    # either side of the origin, inclusive of an exact stop
    assert _ladder(0.0, 1.0, 8.0, 2.0).tolist() == [1.0, 2.0, 4.0, 8.0]
    assert _ladder(1.0, 8.0, 1.0, 0.5).tolist() == [9.0, 5.0, 3.0, 2.0]
    assert _ladder(10.0, -1.0, -3.0, 2.0).tolist() == [9.0, 8.0]
    assert _ladder(0.0, 2.0, 1.0, 2.0).size == 0


@pytest.mark.parametrize("rel_tol", [1.0, 2.0, 1e300, math.inf, math.nan])
def test_spec_rejects_meaningless_rel_tol(rel_tol):
    with pytest.raises(ValueError, match="rel_tol"):
        QuadratureSpec(rel_tol=rel_tol)


def test_defaults():
    # a spec holds the tolerance only; the subdivision budget and the
    # tolerance floor are fixed
    spec = QuadratureSpec()
    assert spec.rel_tol == 1e-9
    assert QuadratureSpec.__slots__ == ("rel_tol",)
    assert cavitycp.quadrature._MAX_SUBDIVISIONS == 2000


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


def test_vector_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(cavitycp.quadrature, "_MAX_SUBDIVISIONS", 2)
    ks = np.array([1.0, 40.0])
    with pytest.raises(QuadratureError) as exc:
        adaptive_integrate(lambda x: np.cos(np.outer(x, ks)), 0.0, math.pi,
                           QuadratureSpec(rel_tol=1e-15))
    assert exc.value.estimate.shape == (2,)
    assert np.all(np.isfinite(exc.value.estimate))


def _counted(f):
    """f, and the list of node counts of its calls."""
    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)
    return counted, calls


def test_zero_integral_converges_at_rounding_level():
    # an integral that cancels to zero has no relative tolerance to meet;
    # 50 eps sum_panels |value| stands in for it, so the first panels pass
    f, calls = _counted(np.sin)
    val, err = adaptive_integrate(f, -1.0, 1.0, breakpoints=[0.3])
    assert abs(val) < 1e-15 and err < 1e-14
    assert calls == [30]
    # per component: the zero one converges, the other keeps rel_tol
    f, calls = _counted(lambda x: np.stack((np.sin(x), np.cos(x)), axis=1))
    (zero, two_sin1), (err0, err1) = adaptive_integrate(f, -1.0, 1.0,
                                                        breakpoints=[0.3])
    assert abs(zero) < 1e-15 and err0 < 1e-14
    assert two_sin1 == pytest.approx(2.0 * math.sin(1.0), rel=1e-14)
    assert err1 <= 1e-9 * two_sin1
    assert calls == [30]


def test_relative_to_max_takes_the_largest_component():
    # a component 1e-6 of the largest meets rel_tol of the largest: fewer
    # calls than when it meets its own, and every error within rel_tol of
    # the largest value
    ks = np.array([0.5, 200.0])
    scale = np.array([1.0, 1e-6])

    def f(x):
        return scale * np.cos(np.outer(x, ks))

    spec = QuadratureSpec(1e-10)
    own, own_calls = _counted(f)
    shared, shared_calls = _counted(f)
    want, _ = adaptive_integrate(own, 0.0, 1.0, spec)
    got, err = adaptive_integrate(shared, 0.0, 1.0, spec,
                                  relative_to_max=True)
    assert len(shared_calls) < len(own_calls)
    assert np.all(err <= spec.rel_tol * np.abs(got).max())
    assert np.all(np.abs(got - want) <= 2.0 * spec.rel_tol
                  * np.abs(want).max())
    exact = scale * np.sin(ks) / ks
    assert np.all(np.abs(got - exact) <= spec.rel_tol * np.abs(exact).max())


def _factored(real_b, shift):
    """An integrand whose (nodes, 4) values factor as (g, b, c, d), g complex
    with a sharp peak, b real or complex path-like sums, and c d absent, a
    constant-column term (d = 1) or a rank-one one."""
    ks = np.array([0.5, 1.3, 2.5, 7.2])
    d = {None: None, "constant": 1.0,
         "rank_one": np.array([1.0, -0.5 + 2j, 3j, 0.25])}[shift]

    def f(x):
        g = np.exp(3j * x) / ((x - 0.3)**2 + 1e-4)
        b = np.stack((np.cos(np.outer(x, ks)), np.sin(np.outer(x, ks))))
        c = None if d is None else (1.0 - 2j) * np.exp(-x) / (x + 0.1)
        return g, b[:1] if real_b else b, c, d
    return f


def _expanded(f):
    """The integrand f of _factored with its values multiplied out."""
    def expanded(x):
        g, b, c, d = f(x)
        out = g[:, None] * (b[0] if len(b) == 1 else b[0] + 1j * b[1])
        return out if c is None else out + c[:, None] * d
    return expanded


@pytest.mark.parametrize("shift", [None, "constant", "rank_one"])
@pytest.mark.parametrize("real_b", [True, False], ids=["real_b", "complex_b"])
def test_factored_integrand_matches_its_expanded_form(real_b, shift):
    # greens._factored hands the integrator a function of its rules, which
    # applies them to g before the real products with b: the same value and
    # error within 1e-15 of each column's, on the same bisections (the same
    # node count per call)
    f = _factored(real_b, shift)
    spec = QuadratureSpec(1e-12)
    factored, factored_calls = _counted(
        lambda x: cavitycp.greens._factored(*f(x)))
    expanded, expanded_calls = _counted(_expanded(f))
    want, want_err = adaptive_integrate(expanded, 0.0, 2.0, spec)
    got, err = adaptive_integrate(factored, 0.0, 2.0, spec)
    assert got.shape == want.shape == (4,) and got.dtype == complex
    assert len(expanded_calls) > 2
    assert factored_calls == expanded_calls
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    assert np.all(np.abs(err - want_err) <= 1e-15 * np.abs(want))


def _heating_gamma(argv):
    """gamma_per_s of a heating table printed by the CLI."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    header, *rows = list(csv.reader(io.StringIO(out.getvalue())))
    return np.array([float(r[header.index("gamma_per_s")]) for r in rows])


def test_blocks_of_1_kib_leave_a_heating_scan(monkeypatch):
    # the path sums are filled a block of positions at a time; with a
    # block of one position (1 KiB over 435 nodes) the scan is the same
    argv = ["heating", "--mirror", "gold", "--width", "resonance:2",
            "--points", "200"]
    want = _heating_gamma(argv)
    monkeypatch.setattr(cavitycp.greens, "_BLOCK_BYTES", 1024)
    got = _heating_gamma(argv)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
