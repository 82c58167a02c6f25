"""The Matsubara (non-resonant) potential against the per-term loop.

The reference below is the per-term form the library used before the sum
became one k_par integral: one adaptive kappa integral per position and per
Matsubara term, the j = 0 term from a per-node loop over the scalar static
reflection coefficient, and a sum truncated once two consecutive terms drop
below 1e-12 of the running total.  The library must agree with it within
10 rel_tol of each column's largest value, also where it replaces the terms
past J0 by the Euler-Maclaurin tail.
"""

import contextlib
import io
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import cavitycp.greens as greens
import cavitycp.potential
import cavitycp.quadrature
from cavitycp import LIH, ThermalEnvironment
from cavitycp.cli import _z_grid, main
from cavitycp.config import load_registry
from cavitycp.constants import C, HBAR, K_B, MU_0
from cavitycp.greens import (CavityGeometry, PlateGeometry,
                             cavity_trace_imagfreq, cavity_trace_realfreq)
from cavitycp.materials import (ConstantR, HalfSpace, Stack,
                                Vacuum, quarter_wave_stack,
                                reflection_coefficients,
                                static_limit_reflection)
from cavitycp.molecules import (matsubara_frequency, photon_number,
                                polarizability_imag)
from cavitycp.potential import (_J0, LevelScheme, general_state_potential,
                                nonresonant_potential, potential_components,
                                resonance_width)
from cavitycp.quadrature import (QuadratureError, QuadratureSpec,
                                 adaptive_integrate)

from tests.conftest import GOLD_DRUDE, SAPPHIRE_300K

W_LIH = LIH.transitions[0].omega
A2 = resonance_width(LIH.transitions[0], 2)
FAST = QuadratureSpec(rel_tol=1e-7)
TOL = 10.0 * FAST.rel_tol
STACK = Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 8, W_LIH))


# --- reference: the per-term loop -------------------------------------------

def _ref_cavity_trace(z, xi, cavity, spec):
    """xi^2 Tr G(i xi) in the cavity, or its xi -> 0 limit, by kappa."""
    a, mirror = cavity.width, cavity.mirror
    cosh = lambda kappa: 0.5 * (np.exp(-kappa * (a - 2.0 * z))  # noqa: E731
                                + np.exp(-kappa * (a + 2.0 * z)))
    if xi == 0.0:
        def f(kappa):
            rp0 = np.array([static_limit_reflection(mirror, k)[1]
                            for k in kappa])
            decay = np.exp(-2.0 * kappa * a)
            return -(C**2 / np.pi) * kappa**2 * rp0 \
                / (1.0 - rp0**2 * decay) * cosh(kappa)
        val, _ = adaptive_integrate(f, 0.0, 40.0 / (a - 2.0 * abs(z)), spec)
        return float(np.real(val))

    def f(kappa):
        rs, rp = reflection_coefficients(mirror, 1j * xi, beta=1j * kappa)
        decay = np.exp(-2.0 * kappa * a)
        bracket = (2.0 * (C * kappa / xi) ** 2 * rp / (1.0 - rp * rp * decay)
                   - rs / (1.0 - rs * rs * decay)
                   - rp / (1.0 - rp * rp * decay))
        return -bracket * cosh(kappa) / (2.0 * np.pi)

    hi = (40.0 + 2.0 * xi * a / C) / (a - 2.0 * abs(z))
    val, _ = adaptive_integrate(f, xi / C, hi, spec)
    return xi * xi * complex(val).real


def _ref_plate_trace(d, xi, mirror, spec):
    """xi^2 Tr G(i xi) at distance d from one plate, or its xi -> 0 limit."""
    if xi == 0.0:
        def f(kappa):
            rp0 = np.array([static_limit_reflection(mirror, k)[1]
                            for k in kappa])
            return -(C**2 / (2.0 * math.pi)) * kappa**2 * rp0 \
                * np.exp(-2.0 * kappa * d)
        val, _ = adaptive_integrate(f, 0.0, 20.0 / d, spec)
        return float(np.real(val))

    def f(kappa):
        rs, rp = reflection_coefficients(mirror, 1j * xi, beta=1j * kappa)
        bracket = rs + rp - 2.0 * (C * kappa / xi) ** 2 * rp
        return bracket * np.exp(-2.0 * kappa * d) / (4.0 * np.pi)

    val, _ = adaptive_integrate(f, xi / C, (40.0 + 2.0 * xi * d / C)
                                / (2.0 * d), spec)
    return xi * xi * complex(val).real


def _ref_matsubara(env, alpha, trace):
    """mu0 k_B T sum'_j alpha(i xi_j) xi_j^2 Tr G(i xi_j), stopped once two
    consecutive terms fall below 1e-12 of the running total."""
    total = 0.5 * alpha(0.0) * trace(0.0)
    small = 0
    for j in range(1, 100_000):
        xi = matsubara_frequency(j, env)
        term = alpha(xi) * trace(xi)
        total += term
        small = small + 1 if abs(term) <= 1e-12 * abs(total) else 0
        if small >= 2:
            break
    return MU_0 * K_B * env.temperature * total


def _ref_nonresonant(z, cavity, env, alpha=None):
    alpha = alpha or (lambda xi: polarizability_imag(LIH, xi))
    return _ref_matsubara(env, alpha,
                          lambda xi: _ref_cavity_trace(z, xi, cavity, FAST))


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.all(np.abs(got - want) <= TOL * np.max(np.abs(want)))


# --- cavity ------------------------------------------------------------------

CASES = {
    "gold_10K": (HalfSpace(GOLD_DRUDE), 10.0),
    "gold_300K": (HalfSpace(GOLD_DRUDE), 300.0),
    "constant_r": (ConstantR(0.9), 300.0),
    "sapphire": (HalfSpace(SAPPHIRE_300K), 300.0),
    "sapphire_stack": (STACK, 300.0),
}


@pytest.mark.parametrize("case", list(CASES))
def test_nonresonant_matches_per_term_loop(case):
    mirror, temperature = CASES[case]
    env = ThermalEnvironment(temperature)
    cav = CavityGeometry(width=A2, mirror=mirror)
    edge = 0.5 * A2 - A2 / 1000.0 if temperature > 10.0 else 0.49 * A2
    zs = np.array([-edge, -0.3 * A2, -0.1 * A2, 0.0, 0.1 * A2, 0.3 * A2,
                   edge])
    got = nonresonant_potential(zs, LIH, cav, env, FAST)
    want = np.array([_ref_nonresonant(z, cav, env) for z in zs])
    assert got.shape == zs.shape
    assert _close(got, want)
    # parity, and every scalar call equals its array entry
    assert np.all(np.abs(got - got[::-1]) <= TOL * np.max(np.abs(got)))
    single = [nonresonant_potential(float(z), LIH, cav, env, FAST)
              for z in zs[1:3]]
    assert all(isinstance(u, float) for u in single)
    assert _close(single, got[1:3])


def test_single_plate_matches_per_term_loop(env300):
    gold = HalfSpace(GOLD_DRUDE)
    for mirror, d in ((gold, 5e-5), (gold, 2e-6), (STACK, 3e-5)):
        got = potential_components(d, LIH, PlateGeometry(mirror), env300,
                                   FAST).U_nr
        want = _ref_matsubara(
            env300, lambda xi: polarizability_imag(LIH, xi),
            lambda xi: _ref_plate_trace(d, xi, mirror, FAST))
        assert _close(got, want)


def test_general_state_matches_per_state_loop(env300):
    # three levels with populations in all of them: each state's Matsubara
    # sum with its own polarizability plus its resonant channels
    energies = (0.0, W_LIH, 2.5 * W_LIH)
    d2 = {(0, 1): 3.8e-58, (1, 2): 2.1e-58}
    scheme = LevelScheme(energies=energies, d_squared=d2)
    populations = (0.6, 0.3, 0.1)
    cav = CavityGeometry(width=A2, mirror=HalfSpace(GOLD_DRUDE))
    for z in (0.0, -2.2e-4):
        want = 0.0
        for n, p_n in enumerate(populations):
            pairs = [(scheme.coupling(n, k), energies[k] - energies[n])
                     for k in range(3) if scheme.coupling(n, k) > 0.0]

            def alpha(xi, pairs=pairs):
                return (2.0 / (3.0 * HBAR)) * sum(
                    c * w / (w**2 + xi**2) for c, w in pairs)

            u_n = _ref_nonresonant(z, cav, env300, alpha)
            for c, w in pairs:
                n_w = photon_number(abs(w), env300)
                weight = n_w if w > 0 else -(n_w + 1.0)
                tr = cavity_trace_realfreq(z, abs(w), cav, FAST).total.real
                u_n += MU_0 / 3.0 * w**2 * weight * c * tr
            want += p_n * u_n
        got = general_state_potential(z, scheme, populations, cav, env300,
                                      FAST)
        assert got == pytest.approx(want, rel=TOL)


# --- the hybrid sum: J0 exact terms, then an Euler-Maclaurin tail ------------

def _gap_for_terms(terms, env):
    """The gap at which J(z) = 2 + ceil(40 c / (xi_1 gap)) steps from terms
    to terms + 1."""
    return 40.0 * C / ((terms - 2) * matsubara_frequency(1, env))


def _wall_positions(cavity, env, terms):
    """Cavity positions whose J(z) is about each entry of terms."""
    gaps = np.array([_gap_for_terms(j + 0.5, env) for j in terms])
    return 0.5 * (cavity.width - gaps)


def _full_sum(monkeypatch, *args):
    """nonresonant_potential with every term summed exactly."""
    with monkeypatch.context() as m:
        m.setattr(cavitycp.potential, "_J0", 10**9)
        return nonresonant_potential(*args)


HYBRID_MIRRORS = {
    "gold": HalfSpace(GOLD_DRUDE),
    "constant_r": ConstantR(0.9),
    "sapphire": HalfSpace(SAPPHIRE_300K),
    "sapphire_stack": STACK,
}


@pytest.mark.parametrize("temperature", [10.0, 300.0])
@pytest.mark.parametrize("mirror", list(HYBRID_MIRRORS))
def test_hybrid_matches_per_term_loop(mirror, temperature):
    # positions with J(z) = J0 / 2 (exact) and about 1.3 and 3 J0 (tail)
    env = ThermalEnvironment(temperature)
    cav = CavityGeometry(width=A2, mirror=HYBRID_MIRRORS[mirror])
    zs = _wall_positions(cav, env, [_J0 // 2, 1.3 * _J0, 3 * _J0])
    got = nonresonant_potential(zs, LIH, cav, env, FAST)
    want = np.array([_ref_nonresonant(z, cav, env) for z in zs])
    assert _close(got, want)


@pytest.mark.parametrize("temperature", [10.0, 300.0])
def test_hybrid_single_plate_matches_per_term_loop(temperature):
    env = ThermalEnvironment(temperature)
    for mirror in (HalfSpace(GOLD_DRUDE), STACK):
        plate = PlateGeometry(mirror)
        ds = 0.5 * np.array([_gap_for_terms(j + 0.5, env)
                             for j in (0.5 * _J0, 1.3 * _J0, 3 * _J0)])
        got = nonresonant_potential(ds, LIH, plate, env, FAST)
        want = np.array([_ref_matsubara(
            env, lambda xi: polarizability_imag(LIH, xi),
            lambda xi, d=d: _ref_plate_trace(d, xi, mirror, FAST))
            for d in ds])
        assert _close(got, want)


def test_hybrid_matches_full_sum(monkeypatch):
    # at a tight tolerance the tail and its Gregory end correction reproduce
    # up to ~3 000 exact terms entry by entry, on tail gaps ~34x apart
    spec = QuadratureSpec(rel_tol=1e-10)
    env = ThermalEnvironment(10.0)
    for mirror in (HalfSpace(GOLD_DRUDE), STACK):
        cav = CavityGeometry(width=A2, mirror=mirror)
        zs = np.append(_wall_positions(cav, env, [1.5 * _J0, 3 * _J0,
                                                  8 * _J0]),
                       0.5 * A2 - A2 / np.array([1000.0, 3000.0]))
        got = nonresonant_potential(zs, LIH, cav, env, spec)
        want = _full_sum(monkeypatch, zs, LIH, cav, env, spec)
        assert np.all(np.abs(got - want) <= 10 * spec.rel_tol * np.abs(want))


def test_exact_sum_up_to_J0(monkeypatch):
    # a position with J(z) <= J0, the last one at J(z) = J0, takes today's
    # plain sum of J(z) terms, bit for bit
    env = ThermalEnvironment(10.0)
    cav = CavityGeometry(width=A2, mirror=HalfSpace(GOLD_DRUDE))
    zs = np.append(_wall_positions(cav, env, [3, 10, _J0 - 1]), 0.0)
    zs[2] = 0.5 * (A2 - _gap_for_terms(_J0 - 0.5, env))
    gap = A2 - 2.0 * np.abs(zs)
    need = 2 + np.ceil(40.0 * C / (matsubara_frequency(1, env) * gap))
    assert need.max() == _J0
    got = nonresonant_potential(zs, LIH, cav, env, FAST)
    assert np.array_equal(got, _full_sum(monkeypatch, zs, LIH, cav, env,
                                         FAST))


@pytest.mark.parametrize("terms", [_J0, _J0 + 1])
def test_continuous_across_J0(terms):
    # just inside and just outside the gap where J(z) steps from terms to
    # terms + 1; the exact sum meets the hybrid there
    spec = QuadratureSpec(rel_tol=1e-10)
    env = ThermalEnvironment(10.0)
    cav = CavityGeometry(width=A2, mirror=HalfSpace(GOLD_DRUDE))
    gap = _gap_for_terms(terms, env) * np.array([1.0 + 1e-12, 1.0 - 1e-12])
    u = nonresonant_potential(0.5 * (A2 - gap), LIH, cav, env, spec)
    assert abs(u[1] - u[0]) <= 10 * spec.rel_tol * abs(u[0])


def test_cost_bounded_in_temperature(reflection_evaluations):
    # (node x xi column) reflection evaluations of a 40-point gold profile:
    # J(z) at the wall grows as 1/T, the cost does not
    cav = CavityGeometry(width=A2, mirror=HalfSpace(GOLD_DRUDE))
    zs = np.array(_z_grid(A2, 40) + [0.0])
    cost = {}
    for temperature in (10.0, 0.1):
        reflection_evaluations.clear()
        nonresonant_potential(zs, LIH, cav, ThermalEnvironment(temperature),
                              QuadratureSpec(rel_tol=1e-9))
        cost[temperature] = sum(reflection_evaluations)
    assert reflection_evaluations.routes["imaginary"] > 0
    assert cost[0.1] <= 3 * cost[10.0]


def test_cold_scan_memory():
    # the tail is one more term of the wavenumber integral, so a cold scan
    # holds (node x position) blocks: 2.1 MB traced at 400 positions and
    # 1 K, where a separate tail integral over xi held (node x xi x
    # position) arrays, 27.9 MB
    cav = CavityGeometry(width=A2, mirror=HalfSpace(GOLD_DRUDE))
    zs = np.array(_z_grid(A2, 400))
    tracemalloc.start()
    try:
        nonresonant_potential(zs, LIH, cav, ThermalEnvironment(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_decays_are_floored(monkeypatch):
    # e^{-s L} per (node, position) is taken at exponents floored at
    # greens._EXP_FLOOR, as the shifts e^{-xi_j L/c} are: next to a wall
    # most of them lie below -708, where np.exp takes ~180 ns per argument.
    # U_nr moves by less than 1e-15 of its largest value
    cav = CavityGeometry(width=A2, mirror=HalfSpace(GOLD_DRUDE))
    zs = np.array(_z_grid(A2, 37))
    columns = len(np.unique(np.abs(zs)))  # the positions the fold keeps
    env = ThermalEnvironment(300.0)
    exponents = []
    exp = np.exp

    def spy(x, *args, **kwargs):
        if np.ndim(x) == 2 and np.shape(x)[1] == columns:
            exponents.append(np.min(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    floored = nonresonant_potential(zs, LIH, cav, env)
    assert exponents and min(exponents) >= greens._EXP_FLOOR
    monkeypatch.setattr(greens, "_EXP_FLOOR", -np.inf)
    unfloored = nonresonant_potential(zs, LIH, cav, env)
    assert min(exponents) < -708.0
    assert np.abs(floored - unfloored).max() \
        <= 1e-15 * np.abs(unfloored).max()


def test_tail_failure_names_a_row(monkeypatch):
    # the tail is a term of the one integral over all positions, so a spent
    # budget names one of the caller's 5 rows; a separate tail integral
    # named one of its own 75 (xi node x position) components
    cav = CavityGeometry(width=A2, mirror=HalfSpace(GOLD_DRUDE))
    monkeypatch.setattr(cavitycp.quadrature, "_MAX_SUBDIVISIONS", 5)
    with pytest.raises(QuadratureError, match=" of 5, "):
        nonresonant_potential(np.array(_z_grid(A2, 5)), LIH, cav,
                              ThermalEnvironment(1.0), QuadratureSpec(1e-14))


def test_tail_xi_failure_is_one_line_on_its_worst_node(monkeypatch, capsys):
    # the tail's inner xi integral has one component per wavenumber node,
    # not per row: its failure reports its worst node and names no
    # component, and the CLI exits 3 on that one line
    cav = CavityGeometry(width=A2, mirror=HalfSpace(GOLD_DRUDE))
    monkeypatch.setattr(cavitycp.quadrature, "_MAX_SUBDIVISIONS", 1)
    with pytest.raises(QuadratureError) as info:
        nonresonant_potential(np.array(_z_grid(A2, 5)), LIH, cav,
                              ThermalEnvironment(1.0), QuadratureSpec(1e-14))
    err, inner = info.value, info.value.__cause__
    assert np.ndim(err.estimate) == 0 and inner.estimate.size > 5
    assert err.error_ratio == np.max(inner.error / inner.tolerance) > 1.0
    code = main(["--rel-tol", "1e-14", "profile", "--mirror", "gold",
                 "--width", "resonance:2", "--points", "5",
                 "--temperature", "1K"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.count("\n") == 1 and "component" not in out.err
    assert out.err.startswith("numerical failure: quadrature failed to "
                              "converge: estimate ")


def test_zero_temperature_limit():
    # at 1 mK the sum is the T = 0 integral
    # (hbar mu0 / 2 pi) int_0^inf xi^2 alpha(i xi) Tr G(i xi) dxi, cut where
    # the wall position's integrand has decayed by e^-45
    integrate = pytest.importorskip("scipy.integrate")
    zs = np.array([0.0, 0.3 * A2, 0.5 * A2 - A2 / 1000.0])
    for mirror in (HalfSpace(GOLD_DRUDE), ConstantR(0.9)):
        cav = CavityGeometry(width=A2, mirror=mirror)
        val, _ = integrate.quad_vec(
            lambda xi: xi**2 * polarizability_imag(LIH, xi)
            * cavity_trace_imagfreq(zs, xi, cav, FAST),
            0.0, 45.0 * C / (A2 / 500.0), epsrel=FAST.rel_tol, epsabs=0.0)
        want = HBAR * MU_0 / (2.0 * math.pi) * val
        got = nonresonant_potential(zs, LIH, cav, ThermalEnvironment(1e-3),
                                    FAST)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= TOL * np.abs(want))


def test_u_nr_as_temperature_underflows():
    # the sum is taken in units of mu0 k_B T/xi_1 = mu0 hbar/2 pi, so it
    # stays finite where mu0 k_B T underflows and 1/xi_1 overflows (1e-300 K
    # printed U_nr = 0), and J > J0 is decided without forming J
    rows = {}
    for temperature in ("1e-300K", "1e-30K"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["profile", "--width", "resonance:2", "--points", "3",
                         "--temperature", temperature]) == 0
        rows[temperature] = np.loadtxt(out.getvalue().splitlines()[1:],
                                       delimiter=",")[:, 1]
    want = rows["1e-30K"]
    assert np.all(want[[0, 2]] < 0)
    assert np.all(np.abs(rows["1e-300K"] - want)
                  <= 10 * QuadratureSpec().rel_tol * np.abs(want).max())
    # a 2 nm cavity may still fail on its arch (exit 3), but no step of its
    # Matsubara sum over- or underflows into a RuntimeWarning
    with warnings.catch_warnings(record=True) as seen, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        assert main(["profile", "--width", "2e-9", "--points", "3",
                     "--temperature", "1e-300K"]) in (0, 3)
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


def test_drude_mirror_as_temperature_underflows(tmp_path):
    # eps(i xi_1) - 1 = wp^2/(xi_1 (xi_1 + gamma)) passes the largest float
    # at 1e-300 K for wp = 1e20, gamma = 1e19 rad/s: eps overflowed with a
    # RuntimeWarning, kappa_j took inf * 0 = nan, and the command exited 3
    # with "estimate nan".  The shift (eps - 1)(xi/c)^2 stays finite, eps =
    # inf reflects p perfectly, and the rows are those of 1e-30 K
    cfg = tmp_path / "drude.cfg"
    cfg.write_text("[material:hot]\nmodel = drude\nplasma_frequency = 1e20\n"
                   "damping = 1e19\n\n[mirror:hotm]\ntype = halfspace\n"
                   "material = hot\n")
    rows = {}
    for temperature in ("1e-300K", "1e-30K"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--config", str(cfg), "profile", "--mirror", "hotm",
                         "--width", "resonance:2", "--points", "3",
                         "--temperature", temperature]) == 0
        rows[temperature] = np.loadtxt(out.getvalue().splitlines()[1:],
                                       delimiter=",")
    want = rows["1e-30K"]
    assert np.any(want[:, 1] != 0)
    assert np.all(np.abs(rows["1e-300K"] - want)
                  <= 10 * QuadratureSpec().rel_tol * np.abs(want).max(axis=0))


# the cases of the Matsubara integral's first panels: 41 positions of a
# resonance:2 cavity (and of a resonance:6 one), and plates at 1 um ... 1 mm
STACKS = load_registry((Path(__file__).resolve().parent / "data"
                        / "stacks.cfg").read_text()).mirrors
A6 = resonance_width(LIH.transitions[0], 6)
Z2 = np.array(_z_grid(A2, 41))
FIRST_PANEL_CASES = {
    **{f"cavity-{name}": (CavityGeometry(A2, mirror), Z2)
       for name, mirror in [("gold", HalfSpace(GOLD_DRUDE)),
                            ("r0.3", ConstantR(0.3)), ("r0.9", ConstantR(0.9)),
                            ("r0.999", ConstantR(0.999)), *STACKS.items()]},
    "cavity6-sapphire_77K_20": (CavityGeometry(A6, STACKS["sapphire_77K_20"]),
                                np.array(_z_grid(A6, 41))),
    **{f"plate-{name}": (PlateGeometry(mirror), np.geomspace(1e-6, 1e-3, 41))
       for name, mirror in [("gold", HalfSpace(GOLD_DRUDE)),
                            ("r0.9", ConstantR(0.9)), *STACKS.items()]},
}


@pytest.mark.parametrize("case", list(FIRST_PANEL_CASES))
def test_matsubara_integral_converges_on_its_first_panels(case, monkeypatch):
    # the s ladder reaches down to 2/l, l the longest round trip (a path
    # plus twice the mirror's depth at a plate, 2a plus four times it in a
    # cavity), and in a cavity of static reflection 0 < r0 < 1 to D_sigma's
    # real zero, |ln r0^2|/l, so the s integral converges in one integrand
    # call (the tail term's inner xi integral not counted).  Stopping at
    # 1/16 of the narrowest decay, it took 2-10 calls: gold 2 (3 in a cavity
    # at 0.1 K), ConstantR(0.999) 10 in a cavity, 20-pair sapphire stacks 7;
    # stopping at |ln r0|/a, a sapphire stack's cavity at nu = 6 took 2.
    geometry, zs = FIRST_PANEL_CASES[case]
    integrate, calls, inside = cavitycp.greens.adaptive_integrate, [], []

    def outermost(f, *args, **kwargs):
        if inside:  # the tail term's inner xi integral
            return integrate(f, *args, **kwargs)
        inside.append(True)
        try:
            return integrate(lambda s: calls.append(len(s)) or f(s), *args,
                             **kwargs)
        finally:
            inside.clear()

    for temperature in (0.1, 4.0, 10.0, 300.0):
        env = ThermalEnvironment(temperature)
        monkeypatch.setattr(cavitycp.greens, "adaptive_integrate", outermost)
        got = nonresonant_potential(zs, LIH, geometry, env)
        assert len(calls) == 1, (temperature, calls)
        calls.clear()
        monkeypatch.undo()
        want = nonresonant_potential(zs, LIH, geometry, env,
                                     QuadratureSpec(1e-12))
        assert np.all(np.abs(got - want)
                      <= 10 * QuadratureSpec().rel_tol * np.abs(want).max())


# --- parity fold: a cavity sums each distinct |z| once -----------------------

@pytest.mark.parametrize("mirror", ["gold", "sapphire_stack", "constant_r"])
def test_fold_nonresonant_symmetric_positions(mirror, monkeypatch):
    # at 10 K the wall pair needs the Euler-Maclaurin tail: the head sum
    # and the tail run on one column per distinct |z|, +-z entries are
    # equal bit for bit and every entry is its scalar call's value
    env = ThermalEnvironment(10.0)
    cav = CavityGeometry(width=A2, mirror=HYBRID_MIRRORS[mirror])
    wall = _wall_positions(cav, env, [3 * _J0])[0]
    zs = np.array([wall, -1e-5, 0.0, -wall, 1e-5, 2e-4])
    fold, integrate = CavityGeometry.fold, greens.adaptive_integrate
    seen, widths, inside, tails = [], set(), [], []

    def recorded(geometry, z):
        reps = fold(geometry, z)
        seen.append(reps[0])
        return reps

    def outermost(f, *args, **kwargs):
        if inside:  # the tail term's inner xi integral
            tails.append(True)
            return integrate(f, *args, **kwargs)

        def counted(s):
            vals = f(s)
            widths.add(vals.shape[1])
            return vals
        inside.append(True)
        try:
            return integrate(counted, *args, **kwargs)
        finally:
            inside.clear()

    monkeypatch.setattr(CavityGeometry, "fold", recorded)
    monkeypatch.setattr(greens, "adaptive_integrate", outermost)
    got = nonresonant_potential(zs, LIH, cav, env, FAST)
    head = np.array([0.0, -1e-5, 2e-4, wall])
    assert len(seen) == 1 and np.array_equal(seen[0], head)
    assert widths == {len(head)} and tails
    assert np.array_equal(got[[0, 1]], got[[3, 4]])
    want = np.array([nonresonant_potential(float(z), LIH, cav, env, FAST)
                     for z in zs])
    assert np.all(np.abs(got - want) <= TOL * np.abs(want).max())
    # a scalar call at -z still sums at -z
    seen.clear()
    nonresonant_potential(-1e-5, LIH, cav, env, FAST)
    assert len(seen) == 1 and np.array_equal(seen[0], [-1e-5])
