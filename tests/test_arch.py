"""The propagating trace on its arch above the real beta axis.

Oracles: the contour reference of tests/reference.py, which shares no code
with the arch, and the arch itself at a second height, for cavities whose
modes the real-axis integral could not resolve.
"""

import math

import numpy as np
import pytest

import cavitycp.greens as greens
from cavitycp.constants import C
from cavitycp.greens import (CavityGeometry, PlateGeometry,
                             cavity_trace_realfreq)
from cavitycp.materials import (ConstantLossy, ConstantR, HalfSpace, Stack,
                                Vacuum, quarter_wave_stack)
from freeze_cli_corpus import run
from reference import contour_trace
from test_cli_corpus import mismatches
from tests.conftest import GOLD_DRUDE, SAPPHIRE_300K, SAPPHIRE_77K

W_LIH = 2.78973e12
LAM = 2.0 * math.pi * C / W_LIH
GOLD = HalfSpace(GOLD_DRUDE)
STACK = Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 8, W_LIH))
# the widest gold cavity whose wall-side paths, a + 2|z| <= 1.998 a, pass
# greens._check_paths at LiH: x_lo L = 1e-6 (w/c) L <= 1/4 rad
WIDEST = greens._MAX_RECTANGLE_PHASE / (1e-6 * W_LIH / C) / 1.998


@pytest.mark.parametrize("mirror, width", [
    (GOLD, LAM), (STACK, LAM), (GOLD, 0.04), (GOLD, WIDEST)],
    ids=["gold-nu2", "stack-nu2", "gold-4cm", "gold-widest"])
def test_cavity_trace_matches_contour_reference(mirror, width, quad):
    # z-differences of Tr G_pr + Tr G_ev, from the centre to a/1000 off the
    # wall, within 10 rel_tol of the largest |Tr G_pr| + |Tr G_ev|; the
    # grazing convention moves the trace by a constant in z only.  A 4 cm
    # gold cavity exhausted the subdivision budget on the real axis, and
    # the widest accepted one has the largest x_lo rectangle error (8e-12)
    cav = CavityGeometry(width, mirror)
    zs = np.array([0.0, 0.15, 0.3, 0.45, 0.499]) * width
    parts = cavity_trace_realfreq(zs, W_LIH, cav, quad)
    got = parts.propagating + parts.evanescent
    want = contour_trace(zs, W_LIH, cav)
    scale = np.max(np.abs(parts.propagating) + np.abs(parts.evanescent))
    assert np.all(np.abs((got - got[0]) - (want - want[0]))
                  <= 10.0 * quad.rel_tol * scale)


def test_wider_cavity_is_refused_at_the_door(quad):
    cav = CavityGeometry(1.01 * WIDEST, GOLD)
    with pytest.raises(ValueError, match="exceeds the 26.9 m"):
        cavity_trace_realfreq(0.499 * cav.width, W_LIH, cav, quad)


WIDTHS = (0.37, 1.0, 3.1, 7.5)  # in units of LAM


@pytest.mark.parametrize("mirror, widths", [
    (GOLD, WIDTHS),
    (Stack(quarter_wave_stack(SAPPHIRE_300K, Vacuum(), 20, W_LIH)), WIDTHS),
    (HalfSpace(ConstantLossy(eps_real=3.0, eps_imag=0.5)), WIDTHS),
    (ConstantR(0.9), WIDTHS),
    (ConstantR(0.3), WIDTHS),
    (Stack(quarter_wave_stack(SAPPHIRE_77K, Vacuum(), 8, W_LIH)),
     WIDTHS[:3])],
    ids=["gold", "sapphire-300K-20-pair", "eps-3+0.5i", "constant-r-0.9",
         "constant-r-0.3", "sapphire-77K-8-pair-item-6"])
def test_propagating_trace_does_not_depend_on_the_arch_height(
        mirror, widths, quad, monkeypatch):
    # The arch passes no pole of 1/D_sigma, and S e^{-beta a}/beta is
    # analytic off beta = 0, so by Cauchy's theorem its height cannot move
    # the trace: at heights 0.15 and 0.6 w/c it matches 0.3, in value and
    # in z-differences, within 10 rel_tol of the column's max, in cavities
    # of widths * lam and at a plate out to that width.  Item 6's case
    # leaves out the 8-pair sapphire_77K cavity of 7.5 lam: near its tuned
    # pole the heights differ by 4.7e-9 of the max, within 2x of the bound
    def trace(geometry, zs, height):
        monkeypatch.setattr(greens, "_ARCH", height)
        return cavity_trace_realfreq(zs, W_LIH, geometry, quad).propagating

    for width in np.array(widths) * LAM:
        for geometry, zs in (
                (CavityGeometry(width, mirror),
                 np.linspace(-0.45, 0.45, 7) * width),
                (PlateGeometry(mirror), np.linspace(0.05, 1.0, 7) * width)):
            want = trace(geometry, zs, 0.3)
            bound = 10.0 * quad.rel_tol * np.max(np.abs(want))
            for height in (0.15, 0.6):
                got = trace(geometry, zs, height)
                assert np.all(np.abs(got - want) <= bound)
                assert np.all(np.abs((got - got[0]) - (want - want[0]))
                              <= bound)


def _sapphire_77k_stack(tmp_path):
    path = tmp_path / "s77.cfg"
    path.write_text("[mirror:s77]\ntype = quarter_wave\n"
                    "material_a = sapphire_77K\nmaterial_b = vacuum\n"
                    "pairs = 20\ndesign_frequency = 2.78973e12\n")
    return ["--config", str(path)]


@pytest.mark.parametrize("argv", [
    ["--config", "perfbench/bragg.cfg", "profile", "--mirror", "bragg",
     "--width", "resonance:24", "--points", "11"],
    ["profile", "--width", "4cm", "--points", "3"],
    ["depth", "--mirror", "s77", "--nu", "6,10"]],
    ids=["bragg-resonance-24", "gold-4cm", "sapphire-77K-20-pair-depth"])
def test_cavities_the_mode_hunt_failed_converge(argv, tmp_path, monkeypatch):
    # each exited 3 on the real beta axis: the 12 lam Bragg cavity and the
    # 4 cm gold one at worst error/tolerance 1.16 and 3.42, the 20-pair
    # sapphire_77K stack at nu = 6 and 10 with 2.09 and 3.13.  On the arch
    # they exit 0, and heights 0.3 and 0.1 agree within 10 rel_tol of each
    # column's max
    if argv[0] == "depth":
        argv = _sapphire_77k_stack(tmp_path) + argv
    outputs = []
    for height in (0.3, 0.1):
        monkeypatch.setattr(greens, "_ARCH", height)
        code, out = run(argv)
        assert code == 0
        outputs.append(out)
    assert mismatches(argv, *outputs) == []
