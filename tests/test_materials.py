"""Permittivity models, Fresnel/multilayer reflection, static limits."""

import cmath
import math

import numpy as np
import pytest

from cavitycp.constants import C
from cavitycp.materials import (ConstantLossy, ConstantR, Drude, HalfSpace,
                                Layer, Stack, Vacuum, quarter_wave_stack,
                                reflection_coefficients,
                                static_limit_reflection, sqrt_upper,
                                transverse_wavenumber)
from tests.conftest import GOLD_DRUDE, SAPPHIRE_300K, SAPPHIRE_77K

W_LIH = 2.78973e12


def fresnel(material, k_perp):
    """(r_s, r_p) of vacuum / a half-space of material at W_LIH."""
    return reflection_coefficients(
        HalfSpace(material), W_LIH,
        beta=transverse_wavenumber(1.0, W_LIH, k_perp))


def test_drude_permittivity():
    eps = GOLD_DRUDE.eps(W_LIH)
    expect = 1.0 - 1.37e16**2 / (W_LIH * (W_LIH + 1j * 5.32e13))
    assert eps == pytest.approx(expect, rel=1e-14)
    assert eps.imag > 0


def test_drude_imag_axis_real():
    eps = GOLD_DRUDE.eps(1j * 2.0e14)
    assert abs(eps.imag) < 1e-10 * abs(eps.real)
    assert eps.real > 1.0


def test_constant_lossy_imag_axis_lossless():
    # real axis: the complex constant; imaginary axis: eps_real
    assert SAPPHIRE_300K.eps(W_LIH) == complex(10.0, 1e-4)
    assert SAPPHIRE_300K.eps(1j * 2.0e14) == complex(10.0, 0.0)


def test_constant_lossy_and_vacuum():
    assert SAPPHIRE_300K.eps(1e12) == 10.0 + 1e-4j
    assert Vacuum().eps(1e12) == 1.0


def test_drude_static_rejected():
    with pytest.raises(ValueError):
        GOLD_DRUDE.eps(0.0)


def test_model_validation():
    with pytest.raises(ValueError):
        Drude(plasma_frequency=-1.0, damping=1.0)
    with pytest.raises(ValueError):
        ConstantLossy(eps_real=2.0, eps_imag=-0.1)
    with pytest.raises(ValueError):
        ConstantR(r=1.0)
    with pytest.raises(ValueError):
        Layer(Vacuum(), thickness=0.0)
    for thickness in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            Layer(Vacuum(), thickness)
    with pytest.raises(ValueError):
        Stack((Layer(Vacuum(), 1e-6),))  # no semi-infinite terminator
    with pytest.raises(ValueError, match="^only the final layer may be "
                       "semi-infinite$"):
        Stack((Layer(Vacuum(), 1e-6), Layer(Vacuum(), None),
               Layer(Vacuum(), None)))


@pytest.mark.parametrize("eps_real, eps_imag", [
    (0.0, 0.0), (0.5, 0.0), (math.nan, 0.0), (math.inf, 0.0),
    (2.0, math.nan), (2.0, math.inf)])
def test_constant_lossy_requires_finite_passive_eps(eps_real, eps_imag):
    # eps_real is also eps(i xi), and a passive medium has eps(i xi) >= 1
    with pytest.raises(ValueError, match="passivity"):
        ConstantLossy(eps_real, eps_imag)


@pytest.mark.parametrize("plasma_frequency, damping", [
    (math.inf, 5.32e13), (math.nan, 5.32e13), (1.37e16, math.inf)])
def test_drude_requires_finite_positive_parameters(plasma_frequency, damping):
    with pytest.raises(ValueError, match="finite positive"):
        Drude(plasma_frequency, damping)


def test_halfspace_is_the_one_layer_stack():
    half = HalfSpace(GOLD_DRUDE)
    assert isinstance(half, Stack)
    assert half.layers == (Layer(GOLD_DRUDE, None),)
    assert half == HalfSpace(Drude(1.37e16, 5.32e13))
    assert hash(half) == hash(HalfSpace(Drude(1.37e16, 5.32e13)))
    assert (half.materials, half.media) == ((GOLD_DRUDE,), (0, 1))


def test_stack_numbers_its_media_once():
    # distinct materials in order of appearance; medium 0 is the vacuum in
    # front, so a Vacuum() layer is a medium of its own
    stack = Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 2, W_LIH))
    assert stack.materials == (SAPPHIRE_300K, Vacuum())
    assert stack.media == (0, 1, 2, 1, 2, 1)
    # it records its depth, the sum of the finite thicknesses (0 at a
    # half-space and a constant r); neither the depth nor the numbering is a
    # field, so neither takes part in equality or repr
    assert stack.depth == sum(l.thickness for l in stack.layers[:-1]) > 0
    assert HalfSpace(GOLD_DRUDE).depth == ConstantR(0.5).depth == 0.0
    assert stack._fields == ("layers",) and ConstantR._fields == ("r",)
    assert stack == Stack(stack.layers) and "media" not in repr(stack)


@pytest.mark.parametrize("mirror", [
    Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 8, W_LIH)),
    HalfSpace(GOLD_DRUDE)], ids=["sapphire_stack", "gold"])
def test_reflection_hashes_no_material(mirror, monkeypatch):
    # a Stack numbers its media when built, so a reflection call keys on
    # those numbers and never hashes a frozen material or Layer
    calls = []
    for cls in (Drude, ConstantLossy, Vacuum, Layer):
        def counted(self, _hash=cls.__hash__):
            calls.append(type(self).__name__)
            return _hash(self)
        monkeypatch.setattr(cls, "__hash__", counted)
    k = np.linspace(0.0, 2.0 * W_LIH / C, 20)
    reflection_coefficients(mirror, W_LIH,
                            beta=transverse_wavenumber(1.0, W_LIH, k))
    static_limit_reflection(mirror, k)
    assert calls == []


def test_sqrt_upper_branch(rng):
    w = rng.normal(size=200) + 1j * rng.normal(size=200)
    s = sqrt_upper(w)
    assert np.all(s.imag >= 0)
    assert np.allclose(s * s, w)


def test_transverse_wavenumber_branch(rng):
    omega = 1e13
    k = rng.uniform(0.0, 3.0 * omega / C, size=500)
    for eps in (1.0, 10.0 + 1e-4j, GOLD_DRUDE.eps(omega)):
        beta = transverse_wavenumber(eps, omega, k)
        assert np.all(beta.imag >= 0)


def test_fresnel_normal_incidence():
    # At k_perp = 0: r_s = (1 - n)/(1 + n), r_p = (n - 1)/(n + 1) with the
    # beta_t = n w/c convention used here.
    eps = 10.0 + 1e-4j
    n = cmath.sqrt(eps)
    rs, rp = fresnel(SAPPHIRE_300K, np.array([0.0]))
    assert rs[0] == pytest.approx((1.0 - n) / (1.0 + n), rel=1e-12)
    assert rp[0] == pytest.approx((eps - n) / (eps + n), rel=1e-12)


def test_fresnel_vacuum_is_transparent():
    # exact grazing incidence (k_perp = w/c) is excluded: the coefficient is
    # 0/0 there for a medium identical to vacuum
    k = np.concatenate((np.linspace(0.0, 0.99 * W_LIH / C, 5),
                        np.linspace(1.01, 2.0, 5) * W_LIH / C))
    rs, rp = fresnel(Vacuum(), k)
    assert np.allclose(rs, 0.0)
    assert np.allclose(rp, 0.0)


def test_fresnel_passivity(rng):
    # |r| <= 1 for passive media at real frequency, propagating incidence.
    k = rng.uniform(0.0, 0.999 * W_LIH / C, size=300)
    for material in (GOLD_DRUDE, SAPPHIRE_300K, ConstantLossy(2.0, 0.5)):
        rs, rp = fresnel(material, k)
        assert np.all(np.abs(rs) <= 1.0 + 1e-12)
        assert np.all(np.abs(rp) <= 1.0 + 1e-12)


def test_fresnel_grazing_incidence():
    rs, rp = fresnel(ConstantLossy(10.0), np.array([W_LIH / C]))
    assert rs[0] == pytest.approx(-1.0, abs=1e-9)
    assert rp[0] == pytest.approx(-1.0, abs=1e-9)


def test_fresnel_beta_argument_precision():
    # Passing the exact beta must agree with the k_perp route where the
    # latter is well-conditioned, and stay accurate where it is not.
    wc = W_LIH / C
    beta = 1e-3 * wc
    k = math.sqrt(wc * wc - beta * beta)
    half = HalfSpace(ConstantLossy(10.0))
    rs_a, _ = fresnel(ConstantLossy(10.0), np.array([k]))
    rs_b, _ = reflection_coefficients(half, W_LIH, beta=np.array([beta + 0j]))
    assert rs_a[0] == pytest.approx(rs_b[0], rel=1e-9)
    beta = 1e-12 * wc  # k_perp route has lost all information here
    _, rp = reflection_coefficients(half, W_LIH, beta=np.array([beta + 0j]))
    assert abs(rp[0] + 1.0) == pytest.approx(
        abs(2.0 * 10.0 * beta / (cmath.sqrt(9.0 + 0j) * wc)), rel=1e-6)


def test_multilayer_single_interface_reduces_to_fresnel():
    layers = (Layer(SAPPHIRE_300K, None),)
    k = np.linspace(0.0, 0.9 * W_LIH / C, 5)
    rs, rp = fresnel(SAPPHIRE_300K, k)
    got = reflection_coefficients(Stack(layers), W_LIH,
                                  beta=transverse_wavenumber(1.0, W_LIH, k))
    assert np.allclose(got[0], rs)
    assert np.allclose(got[1], rp)


def test_multilayer_vacuum_layer_is_phase_only():
    # A leading vacuum layer of thickness d multiplies r by e^{2 i beta d}.
    d = 3.7e-5
    layers = (Layer(Vacuum(), d), Layer(SAPPHIRE_300K, None))
    k = np.array([0.3 * W_LIH / C])
    beta = transverse_wavenumber(1.0, W_LIH, k)
    _, rp0 = fresnel(SAPPHIRE_300K, k)
    _, rp = reflection_coefficients(Stack(layers), W_LIH, beta=beta)
    assert rp[0] == pytest.approx(rp0[0] * np.exp(2j * beta[0] * d),
                                  rel=1e-12)


def test_multilayer_validation():
    with pytest.raises(ValueError):
        reflection_coefficients(Stack(()), W_LIH, beta=transverse_wavenumber(
            1.0, W_LIH, np.array([0.0])))


def test_quarter_wave_stack_geometry():
    layers = quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 2, W_LIH)
    assert len(layers) == 5
    assert layers[-1].thickness is None
    n_sap = math.sqrt(10.0)
    d_sap = math.pi * C / (2.0 * n_sap * W_LIH)
    d_vac = math.pi * C / (2.0 * W_LIH)
    assert layers[0].thickness == pytest.approx(d_sap, rel=1e-12)
    assert layers[1].thickness == pytest.approx(d_vac, rel=1e-12)


@pytest.mark.parametrize("omega0", [0.0, -W_LIH, math.nan, math.inf])
def test_quarter_wave_stack_rejects_design_frequency(omega0, recwarn):
    # checked before anything is evaluated: no layer, and no RuntimeWarning
    for n_pairs in (0, 2):
        with pytest.raises(ValueError, match="design frequency"):
            quarter_wave_stack(SAPPHIRE_300K, Vacuum(), n_pairs, omega0)
    assert not [w for w in recwarn if w.category is RuntimeWarning]


def test_quarter_wave_stack_rejects_negative_pairs():
    # zero pairs is the bare half-space; a negative count is an error, not
    # another way to write it
    assert quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 0, W_LIH) \
        == (Layer(SAPPHIRE_300K, None),)
    with pytest.raises(ValueError, match="pairs"):
        quarter_wave_stack(SAPPHIRE_300K, Vacuum(), -3, W_LIH)


SAPPHIRE_STACK_REF = [
    # (material, n_pairs, 1 - Re r_p at normal incidence, design frequency)
    (SAPPHIRE_300K, 8, 5.525524931493386e-06),
    (SAPPHIRE_77K, 8, 6.151670983722823e-08),
    (SAPPHIRE_77K, 10, 5.52554011434836e-08),
]


@pytest.mark.parametrize("mat, n_pairs, ref", SAPPHIRE_STACK_REF)
def test_sapphire_stack_reflectivity(mat, n_pairs, ref):
    layers = quarter_wave_stack(mat, Vacuum(), n_pairs, W_LIH)
    _, rp = reflection_coefficients(
        Stack(layers), W_LIH,
        beta=transverse_wavenumber(1.0, W_LIH, np.array([0.0])))
    assert 1.0 - rp[0].real == pytest.approx(ref, rel=1e-6)


def test_lossless_stack_reflectivity_grows():
    lossless = ConstantLossy(eps_real=12.96, eps_imag=0.0)
    other = ConstantLossy(eps_real=10.96, eps_imag=0.0)
    prev = 1.0
    for n in (10, 20, 30, 40):
        layers = quarter_wave_stack(lossless, other, n, W_LIH)
        one_minus = 1.0 - reflection_coefficients(
            Stack(layers), W_LIH,
            beta=transverse_wavenumber(1.0, W_LIH, np.array([0.0])))[1][0].real
        assert one_minus < prev
        prev = one_minus


def test_static_limit_halfspace():
    assert static_limit_reflection(HalfSpace(GOLD_DRUDE), 1e3) == (0.0, 1.0)
    rs, rp = static_limit_reflection(HalfSpace(SAPPHIRE_300K), 1e3)
    assert rs == 0.0
    assert rp == pytest.approx(9.0 / 11.0, rel=1e-14)
    assert static_limit_reflection(HalfSpace(Vacuum()), 1e3) == (0.0, 0.0)


def test_static_limit_constant_r():
    assert static_limit_reflection(ConstantR(0.9), 1e3) == (-0.9, 0.9)


def test_static_limit_stack_thick_layers_approach_front_interface():
    # With optically thick interior layers the static recursion collapses to
    # the vacuum/front-material interface.
    layers = (Layer(SAPPHIRE_300K, 1.0), Layer(Vacuum(), 1.0),
              Layer(GOLD_DRUDE, None))
    _, rp = static_limit_reflection(Stack(layers), 1e3)
    assert rp == pytest.approx(9.0 / 11.0, rel=1e-10)


def test_static_limit_stack_finite():
    layers = quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 8, W_LIH)
    for k in (1.0, 1e3, 1e6):
        _, rp = static_limit_reflection(Stack(layers), k)
        assert np.isfinite(rp)
        assert abs(rp) <= 1.0


@pytest.mark.parametrize("mirror", [
    HalfSpace(GOLD_DRUDE), HalfSpace(SAPPHIRE_300K), ConstantR(0.9),
    Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 8, W_LIH))],
    ids=["gold", "sapphire", "constant_r", "sapphire_stack"])
def test_static_limit_array_equals_scalar(mirror):
    k = np.geomspace(1.0, 1e7, 41)
    rs, rp = static_limit_reflection(mirror, k)
    assert rs.shape == rp.shape == k.shape
    scalar = [static_limit_reflection(mirror, float(x)) for x in k]
    assert all(isinstance(v, float) for pair in scalar for v in pair)
    np.testing.assert_array_equal(rs, [s for s, _ in scalar])
    np.testing.assert_array_equal(rp, [p for _, p in scalar])


def test_reflection_coefficients_dispatch(rng):
    k = rng.uniform(0.0, 2.0 * W_LIH / C, size=50)
    beta = transverse_wavenumber(1.0, W_LIH, k)
    rs, rp = reflection_coefficients(ConstantR(0.7), W_LIH, beta=beta)
    assert np.allclose(rs, -0.7)
    assert np.allclose(rp, 0.7)
    rs_h, rp_h = reflection_coefficients(HalfSpace(GOLD_DRUDE), W_LIH,
                                         beta=beta)
    rs_f, rp_f = reflection_per_layer(HalfSpace(GOLD_DRUDE), W_LIH, k)
    assert np.allclose(rs_h, rs_f) and np.allclose(rp_h, rp_f)


@pytest.mark.parametrize("mirror", [
    HalfSpace(GOLD_DRUDE),
    Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 8, W_LIH)),
    ConstantR(0.9)], ids=["gold", "sapphire_stack", "constant_r"])
def test_reflection_takes_beta_by_keyword_only(mirror):
    # a positional third argument raises instead of being read as beta,
    # and beta has no default
    k = np.array([0.0, 0.5 * W_LIH / C])
    with pytest.raises(TypeError):
        reflection_coefficients(mirror, W_LIH, k)
    with pytest.raises(TypeError):
        reflection_coefficients(mirror, W_LIH)


# --- reference: the per-layer recursion --------------------------------------
# The form the library used before it evaluated each distinct medium once:
# eps_j and beta_j per layer, a Fresnel pair per interface and a phase per
# finite layer.  The per-medium form does the same arithmetic on each value,
# so the two must agree bit for bit.

def _recursion_per_layer(eps, betas, thickness):
    def fresnel(i):
        b, b_t, n = betas[i], betas[i + 1], eps[i] / eps[i + 1]
        return (b - b_t) / (b + b_t), (b - n * b_t) / (b + n * b_t)

    rs, rp = fresnel(len(thickness))
    for i in range(len(thickness) - 1, -1, -1):
        phase = np.exp(2j * betas[i + 1] * thickness[i])
        us, up = fresnel(i)
        ts, tp = rs * phase, rp * phase
        rs, rp = (us + ts) / (1.0 + us * ts), (up + tp) / (1.0 + up * tp)
    return rs, rp


def _reflection_per_layer(eps, thickness, omega, k_perp, beta):
    beta = transverse_wavenumber(1.0, omega, k_perp) if beta is None \
        else np.asarray(beta, dtype=complex)
    grazing = beta == 0
    if grazing.any():
        rs, rp = _reflection_per_layer(eps, thickness, omega, k_perp,
                                       np.where(grazing, 1.0, beta))
        mirror = np.any([e != 1.0 for e in np.broadcast_arrays(*eps)], axis=0)
        limit = np.where(mirror, -1.0, 0.0)
        return np.where(grazing, limit, rs), np.where(grazing, limit, rp)
    betas = [beta] + [sqrt_upper(beta * beta + (e - 1.0) * (omega / C)**2)
                      for e in eps]
    return _recursion_per_layer([1.0] + list(eps), betas, thickness)


def _layers(mirror):
    return mirror.layers if isinstance(mirror, Stack) \
        else (Layer(mirror.material, None),)


def reflection_per_layer(mirror, omega, k_perp, beta=None):
    layers = _layers(mirror)
    return _reflection_per_layer(
        [l.material.eps(omega) for l in layers],
        [l.thickness for l in layers[:-1]], omega,
        np.asarray(k_perp, dtype=float), beta)


def static_limit_per_layer(mirror, k_perp):
    k_perp = np.asarray(k_perp, dtype=float)
    layers = _layers(mirror)
    eps = [1.0] + [math.inf if isinstance(l.material, Drude)
                   else 1.0 if isinstance(l.material, Vacuum)
                   else l.material.eps_real for l in layers]
    if math.inf in eps:
        eps = eps[:eps.index(math.inf) + 1]
    rs, rp = _recursion_per_layer(eps, [1.0] * len(eps), [
        1j * k_perp * l.thickness for l in layers[:len(eps) - 2]])
    return tuple(np.full(k_perp.shape, np.real(r)) for r in (rs, rp))


def _assert_per_medium_equals_per_layer(mirror, omega):
    # real axis from normal incidence past grazing (one exact beta = 0 row),
    # the imaginary axis for one and for an array of xi, and the static limit
    wc = omega / C
    k = np.linspace(0.0, 3.0 * wc, 61)
    beta = np.sqrt(wc**2 - k**2 + 0j)
    beta[20] = 0.0
    kappa = np.sqrt(k[:, None] ** 2 + (np.array([1.0, 30.0]) * wc) ** 2)
    cases = [(omega, k, None), (omega, k, beta), (1j * omega, k, None),
             (1j * omega * np.array([1.0, 30.0]), k[:, None], 1j * kappa)]
    for freq, k_perp, b in cases:
        got = reflection_coefficients(mirror, freq, beta=transverse_wavenumber(
            1.0, freq, k_perp) if b is None else b)
        want = reflection_per_layer(mirror, freq, k_perp, beta=b)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    for g, w in zip(static_limit_reflection(mirror, k * 1e3),
                    static_limit_per_layer(mirror, k * 1e3)):
        assert np.array_equal(g, w)


GAAS = ConstantLossy(eps_real=12.96, eps_imag=0.02)
ALAS = ConstantLossy(eps_real=10.96, eps_imag=0.02)
D = 1e-5
PER_MEDIUM_MIRRORS = {
    "sapphire_stack": Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 8,
                                               W_LIH)),
    "gaas_alas": Stack(quarter_wave_stack(GAAS, ALAS, 10, W_LIH)),
    "two_thicknesses": Stack((
        Layer(SAPPHIRE_300K, D), Layer(Vacuum(), D),
        Layer(SAPPHIRE_300K, 3 * D), Layer(Vacuum(), D),
        Layer(SAPPHIRE_300K, D), Layer(SAPPHIRE_300K, 3 * D),
        Layer(GOLD_DRUDE, None))),
    "lossy_vacuum": Stack((
        Layer(Vacuum(), D), Layer(ConstantLossy(4.0, 0.5), D),
        Layer(Vacuum(), 2 * D), Layer(ConstantLossy(4.0, 0.5), D),
        Layer(ConstantLossy(4.0), None))),
    "gold": HalfSpace(GOLD_DRUDE),
}


@pytest.mark.parametrize("mirror", PER_MEDIUM_MIRRORS.values(),
                         ids=PER_MEDIUM_MIRRORS.keys())
def test_per_medium_recursion_equals_per_layer(mirror):
    _assert_per_medium_equals_per_layer(mirror, W_LIH)


@pytest.mark.parametrize("mirror", PER_MEDIUM_MIRRORS.values(),
                         ids=PER_MEDIUM_MIRRORS.keys())
def test_tails_are_their_own_stacks(mirror):
    # one back-to-front pass gives r_p of every tail vacuum | layers[i:],
    # propagating and evanescent, bit for bit that of a Stack of its layers
    wc = W_LIH / C
    beta = sqrt_upper(wc**2 * (1.0 - np.linspace(0.1, 3.0, 7)**2))
    tails = mirror.tails(W_LIH, beta, 1)
    assert len(tails) == len(mirror.layers)
    for i, rp in zip(range(len(tails) - 1, -1, -1), tails):
        assert np.array_equal(
            rp, Stack(mirror.layers[i:]).reflection(W_LIH, beta)[1])


def test_per_medium_recursion_random_stacks():
    # stacks of 2-3 materials, each used at up to two thicknesses, in any
    # order: repeated media and layers share their evaluations bit for bit
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    material = st.one_of(
        st.builds(Drude, plasma_frequency=st.floats(1e13, 1e17),
                  damping=st.floats(1e10, 1e15)),
        st.builds(ConstantLossy, eps_real=st.floats(1.0, 100.0),
                  eps_imag=st.floats(0.0, 10.0)),
        st.just(Vacuum()))

    @hypothesis.given(st.lists(material, min_size=2, max_size=3),
                      st.lists(st.tuples(st.integers(0, 2), st.booleans()),
                               min_size=1, max_size=12),
                      st.integers(0, 2), st.floats(1e11, 1e14))
    def check(materials, picks, last, omega):
        layers = [Layer(materials[i % len(materials)], D * (1 + 2 * thick))
                  for i, thick in picks]
        layers.append(Layer(materials[last % len(materials)], None))
        _assert_per_medium_equals_per_layer(Stack(tuple(layers)), omega)

    check()


# --- the float64 imaginary axis ----------------------------------------------

IMAGINARY_AXIS_MIRRORS = {
    "gold": HalfSpace(GOLD_DRUDE),
    "sapphire_8": PER_MEDIUM_MIRRORS["sapphire_stack"],
    "sapphire_20": Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 20,
                                            W_LIH)),
    "gaas_alas": PER_MEDIUM_MIRRORS["gaas_alas"],
    "lossy_halfspace": HalfSpace(ConstantLossy(4.0, 0.5)),
    "constant_r": ConstantR(0.9),
}


@pytest.mark.parametrize("mirror", IMAGINARY_AXIS_MIRRORS.values(),
                         ids=IMAGINARY_AXIS_MIRRORS.keys())
def test_imaginary_axis_matches_the_complex_route(mirror):
    # real arithmetic (kappa_j, e^{-2 kappa_j d}) against the complex
    # recursion at omega = i xi, beta = i kappa: rows of xi from the first
    # Matsubara frequencies of 10 K to far above the LiH line, kappa from
    # xi/c (normal incidence) to 10^3 xi/c
    xi = W_LIH * np.array([0.03, 0.3, 1.0, 3.0, 30.0, 300.0])
    kappa = xi / C * np.geomspace(1.0, 1e3, 41)[:, None]
    got = mirror.imaginary_axis(xi, kappa)
    want = reflection_coefficients(mirror, 1j * xi, beta=1j * kappa)
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and g.shape == kappa.shape
        assert np.all(np.abs(g - w.real) <= 1e-14 * np.abs(w))
