"""Shared fixtures: reference mirrors, molecules, and tolerances."""

import numpy as np
import pytest

import cavitycp.greens
from cavitycp import ConstantLossy, Drude, HalfSpace, ThermalEnvironment
from cavitycp.materials import ConstantR, Stack, reflection_coefficients
from cavitycp.quadrature import QuadratureSpec

try:
    from hypothesis import settings
except ImportError:    # the property tests skip themselves
    pass
else:
    # derandomized: every run draws the same examples, so the suite stays
    # reproducible; no example database is written
    settings.register_profile("cavitycp", derandomize=True, deadline=None,
                              database=None)
    settings.load_profile("cavitycp")

GOLD_DRUDE = Drude(plasma_frequency=1.37e16, damping=5.32e13)
SAPPHIRE_300K = ConstantLossy(eps_real=10.0, eps_imag=1e-4)
SAPPHIRE_77K = ConstantLossy(eps_real=10.0, eps_imag=1e-6)


@pytest.fixture(scope="session")
def gold():
    return HalfSpace(GOLD_DRUDE)


@pytest.fixture(scope="session")
def env300():
    return ThermalEnvironment(300.0)


@pytest.fixture(scope="session")
def env77():
    return ThermalEnvironment(77.0)


@pytest.fixture(scope="session")
def quad():
    return QuadratureSpec()


@pytest.fixture(scope="session")
def quad_fast():
    return QuadratureSpec(rel_tol=1e-7)


class _Evaluations(list):
    """Sizes of reflection evaluations, with the calls per route in
    .routes."""

    def __init__(self):
        super().__init__()
        self.routes = dict.fromkeys(("real", "imaginary"), 0)


@pytest.fixture()
def reflection_evaluations(monkeypatch):
    """The (node x omega column) sizes of the reflection evaluations the
    trace kernels make during the test, in call order: complex ones on the
    real axis (greens' reflection_coefficients) and float64 ones on the
    imaginary axis (each mirror's imaginary_axis) alike; .routes counts the
    calls of each, so a test can check that a route it counts was run."""
    sizes = _Evaluations()

    def counting(evaluate, route):
        def counted(*args, **kwargs):
            rs, rp = evaluate(*args, **kwargs)
            sizes.append(rs.size)
            sizes.routes[route] += 1
            return rs, rp
        return counted

    monkeypatch.setattr(cavitycp.greens, "reflection_coefficients",
                        counting(reflection_coefficients, "real"))
    for mirror in (Stack, ConstantR):
        monkeypatch.setattr(mirror, "imaginary_axis",
                            counting(mirror.imaginary_axis, "imaginary"))
    return sizes


class _PathCalls(list):
    """Calls of one kind, with those of the other kind in .evanescent."""

    def __init__(self):
        super().__init__()
        self.evanescent = []


@pytest.fixture()
def trace_columns(monkeypatch):
    """(nodes, positions) of each greens._paths call at complex x = i beta
    during the test, in call order: the (node x position) products of the
    propagating traces, positions being the array of z (or d) the call got.
    Its .evanescent list records the evanescent part's calls, at real
    x = -kappa, in the same form."""
    calls = _PathCalls()
    paths = cavitycp.greens._paths

    def counted(x, zs, geometry):
        (calls if np.iscomplexobj(x) else calls.evanescent).append(
            (len(x), np.array(zs)))
        return paths(x, zs, geometry)

    monkeypatch.setattr(cavitycp.greens, "_paths", counted)
    return calls


@pytest.fixture()
def rng():
    return np.random.default_rng(20260825)
