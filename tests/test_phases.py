"""The propagating path phases: greens._paths builds each e^{x L} from real
exp and greens._cos_sin (cos and sin from t = tan(theta/2)); numpy's complex
exp is the oracle here, as in tests/reference.py.  Also the door's refusal
of gaps too small for the integrals, and the grazing term's absence where
S = 0."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import cavitycp.greens as greens
from cavitycp.cli import main
from cavitycp.config import load_registry
from cavitycp.constants import C
from cavitycp.greens import (CavityGeometry, PlateGeometry, _cos_sin, _paths,
                             _realfreq_trace, cavity_trace_realfreq,
                             imagfreq_trace_sum)
from cavitycp.materials import ConstantR, HalfSpace
from cavitycp.quadrature import QuadratureSpec
from tests.conftest import GOLD_DRUDE

EPS = np.finfo(float).eps
W_LIH = 2.78973e12
WC = W_LIH / C
LAM = 2.0 * math.pi / WC
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {name: load_registry((ROOT / path).read_text()).mirrors[name]
           for path, names in [("perfbench/bragg.cfg", ["bragg"]),
                               ("tests/data/stacks.cfg",
                                ["sapphire_300K_20", "sapphire_77K_20",
                                 "gaas_alas_20"])]
           for name in names}
MIRRORS = {"gold": HalfSpace(GOLD_DRUDE), **CONFIGS,
           "constant_r_1e-5": ConstantR(1.0 - 1e-5),
           "constant_r_1e-8": ConstantR(1.0 - 1e-8)}


def _reference(x, zs, geometry):
    """sum_p e^{x L_p} by numpy's complex exp, and sum_p |e^{x L_p}|."""
    terms = [np.exp(np.outer(x, lp)) for lp in geometry.decay_lengths(zs)]
    return sum(terms), sum(np.abs(t) for t in terms)


def _assert_phases(x, zs, geometry):
    want, size = _reference(x, zs, geometry)
    parts = _paths(x, zs, geometry)
    assert parts.dtype == float and parts.shape == (2, *want.shape)
    got = parts[0] + 1j * parts[1]
    bad = ~(np.abs(got - want) <= 8.0 * EPS * size)
    assert not bad.any(), (x[bad.nonzero()[0][0]], got[bad][0], want[bad][0])


@pytest.mark.parametrize("name", MIRRORS)
def test_phases_at_the_arch_nodes(name, monkeypatch):
    # every (node, column) of a nu = 2 scan's propagating trace, as the
    # integrator asks for them
    calls = []

    def record(x, zs, geometry):
        if np.iscomplexobj(x):
            calls.append((x, zs, geometry))
        return _paths(x, zs, geometry)

    monkeypatch.setattr(greens, "_paths", record)
    cavity = CavityGeometry(width=LAM, mirror=MIRRORS[name])
    zs = np.linspace(-0.45, 0.45, 40) * LAM
    _realfreq_trace(zs, W_LIH, cavity, QuadratureSpec(rel_tol=1e-7), False)
    assert sum(len(x) for x, _, _ in calls) > 100
    for call in calls:
        _assert_phases(*call)


def test_phases_up_to_the_longest_resolved_path():
    # Im x L up to ~2.5e5 rad: the 26.9 m path _check_paths allows at LiH
    rng = np.random.default_rng(1)
    beta = WC * np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 500)))
    x = -0.3 * WC * rng.uniform(0.0, 1e-6, beta.size) + 1j * beta
    lengths = np.concatenate((rng.uniform(0.0, 26.9, 200), [26.9]))
    assert WC * 26.9 > 2.4e5
    _assert_phases(x, 0.5 * lengths, PlateGeometry(ConstantR(0.5)))


@pytest.mark.parametrize("odd", [True, False], ids=["half_turn", "turn"])
def test_phases_where_the_half_angle_tangent_blows_up_or_vanishes(odd):
    # Im x L / 2 within 1e-12 of an odd multiple of pi/2 (tan ~ 1e12 to
    # 1e16), or at an exact multiple of pi (tan ~ 0)
    k = np.arange(0, 80_000, 37)
    half = (2 * k + 1) * np.pi / 2 if odd else k * np.pi
    offsets = np.array([-1e-12, -1e-13, 0.0, 1e-13, 1e-12]) if odd \
        else np.zeros(1)
    theta = 2.0 * (half[:, None] + offsets).ravel()
    x = 1j * theta - 1e-3
    _assert_phases(x, np.array([0.5]), PlateGeometry(ConstantR(0.5)))
    cos, sin = _cos_sin(theta)
    assert np.abs(cos - np.cos(theta)).max() <= 4.0 * EPS
    assert np.abs(sin - np.sin(theta)).max() <= 4.0 * EPS


def test_phases_underflow_to_exact_zero_without_warning():
    # Re x L from 0 down past -745, where e^{Re x L} underflows to 0
    x = np.linspace(0.0, -800.0, 1601) + 1j * np.linspace(0.0, 3e3, 1601)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        re, im = _paths(x, np.array([0.5]), PlateGeometry(ConstantR(0.5)))
    got = re + 1j * im
    _assert_phases(x, np.array([0.5]), PlateGeometry(ConstantR(0.5)))
    assert (got[x.real < -745.2] == 0.0).all()
    assert (got[x.real > -708.0] != 0.0).all()


def test_evanescent_paths_floor_their_exponents(monkeypatch):
    # real x = -kappa: e^{x L} is numpy's exp down to x L = _EXP_FLOOR and
    # e^_EXP_FLOOR below it, a normal number that keeps its products with
    # any kernel above 1e-40 normal, where np.exp would underflow slowly;
    # the evanescent trace does not move by a bit
    x = -np.linspace(0.0, 2000.0, 4001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _paths(x, np.array([0.5]),
                     PlateGeometry(ConstantR(0.5)))[0, :, 0]
    above = x > greens._EXP_FLOOR
    assert (got[above] == np.exp(x[above])).all()
    assert (got[~above] == math.exp(greens._EXP_FLOOR)).all()
    assert got.min() * 1e-40 > np.finfo(float).tiny
    cavity = CavityGeometry(width=LAM, mirror=HalfSpace(GOLD_DRUDE))
    zs = np.linspace(-0.49, 0.49, 41) * LAM
    floored = cavity_trace_realfreq(zs, W_LIH, cavity).evanescent
    monkeypatch.setattr(greens, "_EXP_FLOOR", -np.inf)
    assert (cavity_trace_realfreq(zs, W_LIH, cavity).evanescent
            == floored).all()


@pytest.mark.parametrize("k", [1, 2, 7, 38, 200])
def test_cos_sin_matches_numpy(k):
    # the (K x K) and (positions x K) angle grids of greens._chebyshev and
    # greens._z_interpolation, and a wide random spread
    rng = np.random.default_rng(k)
    theta = np.concatenate((
        np.outer(np.arange(k), (np.arange(k) + 0.5) * np.pi / k).ravel(),
        np.outer(np.arccos(rng.uniform(-1.0, 1.0, 50)), np.arange(k)).ravel(),
        rng.uniform(-3e5, 3e5, 1000)))
    cos, sin = _cos_sin(theta)
    assert np.abs(cos - np.cos(theta)).max() <= 4.0 * EPS
    assert np.abs(sin - np.sin(theta)).max() <= 4.0 * EPS


# --- the door: gaps too small for the integrals ----------------------------

@pytest.mark.parametrize("width", ["1e-300", "1e-200"])
def test_cli_refuses_a_gap_too_small(width, capsys):
    # these used to overflow in the Matsubara span (exit 2 on a NaN cast
    # after RuntimeWarnings) or its square (exit 3 on a NaN estimate)
    code = main(["profile", "--width", width, "--points", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "gap" in err and "too small" in err


def test_a_picometre_cavity_fails_on_a_row(capsys):
    # past the door a picometre cavity still runs every integral and exits
    # 3, on one line that names one of its 4 rows (3 points and the z = 0
    # offset); the Matsubara tail's own xi integral used to name its
    # component 301 of 390
    code = main(["profile", "--width", "1e-12", "--points", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and " of 4, " in err


@pytest.mark.parametrize("geometry, z", [
    (PlateGeometry(HalfSpace(GOLD_DRUDE)), 1e-320),
    (CavityGeometry(width=3e-320, mirror=HalfSpace(GOLD_DRUDE)), 1e-320)],
    ids=["plate", "cavity"])
def test_library_refuses_a_position_next_to_the_wall(geometry, z):
    # 1e-320 from the wall: a subnormal gap, refused before any integral
    for call in (lambda: geometry.check_position(z),
                 lambda: cavity_trace_realfreq(z, W_LIH, geometry),
                 lambda: imagfreq_trace_sum(geometry, [z], [0.0, 1e13], 1.0)):
        with pytest.raises(ValueError,
                           match=r"the gap [12]e-320 m .* too small"):
            call()


def test_a_picometre_gap_passes_the_door():
    # a position 1e-12 m from a plate still passes the door
    assert PlateGeometry(HalfSpace(GOLD_DRUDE)).check_position(1e-12)[1] \
        == 1e-12


# --- S = 0: no grazing term ------------------------------------------------

@pytest.mark.parametrize("mirror, grazing", [
    (ConstantR(1.0 - 1e-5), False), (HalfSpace(GOLD_DRUDE), True)],
    ids=["constant_r", "gold"])
@pytest.mark.parametrize("plate", [False, True], ids=["cavity", "plate"])
def test_grazing_term_only_where_it_is_nonzero(mirror, grazing, plate,
                                               monkeypatch):
    # round_trip is evaluated once per kernel call, plus once per call for
    # the grazing term S e^{-x a}/x only where S != 0 (a cavity of
    # frequency-dependent mirrors)
    geometry = PlateGeometry(mirror) if plate \
        else CavityGeometry(width=LAM, mirror=mirror)
    counts = {"kernel": 0, "round_trip": 0}
    kernel, round_trip = greens._kernel, type(geometry).round_trip

    def count_kernel(*args):
        counts["kernel"] += 1
        return kernel(*args)

    def count_round_trip(self, kappa):
        counts["round_trip"] += 1
        return round_trip(self, kappa)

    monkeypatch.setattr(greens, "_kernel", count_kernel)
    monkeypatch.setattr(type(geometry), "round_trip", count_round_trip)
    cavity_trace_realfreq(np.array([0.1, 0.2]) * LAM, W_LIH, geometry,
                          QuadratureSpec(rel_tol=1e-7))
    extra = counts["round_trip"] - counts["kernel"]
    assert (extra > 0) == (grazing and not plate)
