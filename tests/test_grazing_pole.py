"""The grazing TM pole of a gold cavity's 1/D_p(i kappa): where
greens._grazing_pole puts it, that a Newton root of D_p lies there, that its
first panels save integrand calls, and that they leave the trace within
rel_tol."""

import contextlib
import io
import math

import numpy as np
import pytest

import cavitycp.greens as greens
import cavitycp.quadrature as quadrature
from cavitycp.cli import _z_grid, main
from cavitycp.constants import C
from cavitycp.greens import CavityGeometry, PlateGeometry, _realfreq_trace
from cavitycp.materials import ConstantR, HalfSpace, Stack, Vacuum, \
    quarter_wave_stack, reflection_coefficients
from cavitycp.quadrature import QuadratureSpec
from tests.conftest import GOLD_DRUDE, SAPPHIRE_300K

W_LIH = 2.78973e12
WC = W_LIH / C
LAM = 2.0 * math.pi / WC
GOLD = HalfSpace(GOLD_DRUDE)


def _pole(mirror, width):
    return greens._grazing_pole(width, WC, quadrature._ladder(
        0.0, mirror.grazing_scale(W_LIH), WC, 4.0).tolist())


def _newton_root(mirror, width, kappa, steps=40):
    """A root of D_p(i kappa) = 1 - r_p(i kappa)^2 e^{-2 kappa a} by complex
    Newton steps from kappa, with a central-difference derivative."""
    def d_p(k):
        rp = reflection_coefficients(mirror, W_LIH, beta=1j * np.array([k]))[1]
        return complex(1.0 - rp[0] ** 2 * np.exp(-2.0 * k * width))

    kappa = complex(kappa)
    for _ in range(steps):
        h = 1e-6 * abs(kappa)
        kappa -= d_p(kappa) * 2.0 * h / (d_p(kappa + h) - d_p(kappa - h))
    assert abs(d_p(kappa)) < 1e-12
    return kappa


@pytest.mark.parametrize("width", [20e-6, 1e-4, LAM, 1e-3, 1e-2],
                         ids=["20um", "100um", "resonance-2", "1mm", "1cm"])
def test_newton_root_of_d_p_lies_at_the_grazing_pole(width):
    # kappa_p = sqrt(2 |kappa_0|/a), |kappa_0| = w/(c sqrt|eps|), from the
    # grazing limit r_p(i kappa) ~ 1 - 2 kappa_0/kappa; the root is complex
    pole = _pole(GOLD, width)
    assert pole is not None and 8.0 * pole < WC
    root = _newton_root(GOLD, width, pole)
    assert abs(root) == pytest.approx(pole, rel=0.02)


@pytest.mark.parametrize("nu", range(1, 13))
def test_a_dielectric_stack_gets_no_pole(nu):
    # kappa_p = 0.45 w/c / sqrt(nu) for sapphire (eps = 10): not well below
    # the light line, and kappa_0 a = pi nu/sqrt(10) >~ 1 puts no pole there
    stack = Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 8, W_LIH))
    assert _pole(stack, nu * LAM / 2.0) is None


@pytest.mark.parametrize("geometry", [
    PlateGeometry(GOLD), CavityGeometry(LAM, ConstantR(0.9))],
    ids=["gold_plate", "constant_r_cavity"])
def test_no_pole_is_sought_where_s_is_zero(geometry, monkeypatch):
    # D_sigma = 1 at a plate, and a constant r has no grazing limit
    def refuse(*args):
        raise AssertionError("no grazing pole here")

    monkeypatch.setattr(greens, "_grazing_pole", refuse)
    _realfreq_trace(np.array([0.1, 0.2]) * LAM, W_LIH, geometry,
                    QuadratureSpec(rel_tol=1e-7), True)


def _calls(argv):
    """Integrand calls of one CLI command, which must exit 0."""
    calls = []
    panels = quadrature._panels

    def counted(f, lo, hi):
        calls.append(len(lo))
        return panels(f, lo, hi)

    quadrature._panels = counted
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    finally:
        quadrature._panels = panels
    return len(calls)


@pytest.mark.parametrize("nu", [1, 2, 6, 10])
def test_the_pole_saves_integrand_calls_on_gold_profiles(nu, monkeypatch):
    argv = ["profile", "--mirror", "gold", "--width", f"resonance:{nu}",
            "--points", "21"]
    seeded = _calls(argv)
    monkeypatch.setattr(greens, "_grazing_pole", lambda *args: None)
    assert seeded < _calls(argv)


@pytest.mark.parametrize("nu", [1, 2, 6, 10])
def test_seeded_and_unseeded_traces_agree(nu, quad, monkeypatch):
    cavity = CavityGeometry(nu * LAM / 2.0, GOLD)
    zs = np.array(_z_grid(cavity.width, 41))
    prop, evan = _realfreq_trace(zs, W_LIH, cavity, quad, True)
    monkeypatch.setattr(greens, "_grazing_pole", lambda *args: None)
    prop_0, evan_0 = _realfreq_trace(zs, W_LIH, cavity, quad, True)
    assert (np.abs(evan - evan_0) <= quad.rel_tol * np.abs(evan_0)).all()
    assert np.abs(prop - prop_0).max() <= quad.rel_tol * np.abs(prop_0).max()
