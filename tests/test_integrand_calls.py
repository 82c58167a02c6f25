"""Integrand calls, reflection evaluations and trace columns per benchmark
workload: machine-independent guards on how many adaptive rounds the seed-0
commands of perfbench/workloads.py need, on how many (node, omega) pairs
their trace kernels evaluate reflection coefficients at, on how many (node,
position) path sums their propagating and evanescent traces form, and on
how many (coefficient, seed) pairs their depths' Newton steps take.  Each
call of quadrature._panels is one integrand call (one batched reflection
evaluation and its Python overhead), whatever its panel count.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import cavitycp.asymptotics as asymptotics
import cavitycp.potential as potential
import cavitycp.quadrature as quadrature
from cavitycp.cli import main
from cavitycp.materials import ConstantR, Stack
from cavitycp.molecules import LIH, ThermalEnvironment

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

# Calls with first panels on the propagating arch's uniform edges, its 2^k
# ladder toward w/c from a fraction of the tuned pole's depth (none where a
# constant r's tuned pole is subtracted in closed form), the grazing
# lattice from w/(4 c sqrt|eps|), the edges about a gold cavity's grazing TM
# pole (greens._grazing_pole) and the decay lattices: 4 + 1, 4, 1 and 5 (3
# traces, one per depth on 8 arch panels, and 2 for the asym series
# oracle's one Lerch integral per delta over every row's shifts b, on
# 2^(2k/3) edges).  With the ladder for the constant-r tuned mode (22 of 30
# arch panels) and 2^k Lerch edges (3 calls), asym-sharp made 6.
# matsubara-cold's 4 are 2 for its real-frequency trace, 1 for its one
# Matsubara integral, whose s ladder reaches down to the longest round trip
# (2/2a in a gold cavity), and 1 in it for its tail term's xi integral.
# With that ladder stopping at 1/16 of the narrowest decay, the Matsubara
# integral took 2 calls, each with its tail's, so scan-gold made 4 + 2 and
# matsubara-cold 6; with a separate adaptive xi integral for the tail, whose
# integrand was the per-term Matsubara integral at its xi nodes, they were
# 8.  Without the pole's edges they were 8 + 6, 12, 1 and 6 (the evanescent
# integral took 4 rounds, the arch 2).  With a second, seeded trace per
# depth they were 9 + 5, 12, 2 and 9; with the ladder from 1e-9 w/c and the
# grazing lattice from 4e-6 w/c they were 9 + 7, 13, 2 and 9.  With one
# Lerch integral per row, asym-sharp made 15 calls (3 x 3 for the oracle);
# with panels at the located modes of the real beta axis they were 9 + 7,
# 13, 4 and 15; with 4^k Lerch edges and one Lerch integral per b,
# asym-sharp made 54 calls; with panels at beta a = pi m and halving edges
# only, the commands made 28 + 22, 38, 22 and 74.
MAX_CALLS = {"scan-gold": 5, "matsubara-cold": 4, "depth-bragg": 1,
             "asym-sharp": 5}
# (node, omega) pairs of the trace kernels' reflection evaluations, complex
# on the real axis and float64 on the imaginary axis: 1 842 + 8 325,
# 921 + 20 925, 500 and 360.  Each depth makes one trace; a constant r's
# makes none at w/c for its tuned pole.  With that pole's ladder, asym-sharp
# took 1 368 (30 panels and an evaluation at w/c per depth).  With a separate
# xi integral for the Matsubara tail, matsubara-cold's imaginary axis took
# 22 050: its tail term's xi integral takes (xi node, wavenumber node)
# pairs of its own, but no per-term wavenumber integral at each xi node.
# Without the grazing pole's edges the real axis took 1 992, 996, 500 and
# 1 368; with the first panels from 1e-9 and 4e-6 w/c, 2 590, 1 295, 694
# and 1 665; on the real beta axis, 11 451, 23 613, 1 549 and 4 557 in all.
MAX_REFLECTION_EVALUATIONS = {"scan-gold": 10167, "matsubara-cold": 21846,
                              "depth-bragg": 500, "asym-sharp": 360}
# (node, position) products of the propagating traces' path phases
# sum_p e^{i beta L_p}.  A profile or heating scan evaluates its trace at 16
# folded Chebyshev nodes in z, not at its 101 or 21 folded positions; a
# depth evaluates it at the 16, 19 and 22 folded Chebyshev nodes of its
# edge at nu = 2, 3, 4.  The traces take 480, 480, 496 and 120 arch
# nodes, and a constant-r depth one residue node per column: 6 897 on
# asym-sharp, 25 980 with the tuned mode's ladder on 450-465 arch nodes.
# With a depth's seeds, and then its refined extrema, as the
# columns of two traces, depth-bragg and asym-sharp formed 2 480 and
# 10 035 products; with the first panels from 1e-9 and 4e-6 w/c the four
# workloads formed 24 032, 12 016, 3 455 and 12 210, and on the real axis,
# with one cos(2 beta z) per product, 29 792, 14 896, 6 980 and 32 910.
MAX_PROPAGATING_PRODUCTS = {"scan-gold": 15392, "matsubara-cold": 7696,
                            "depth-bragg": 7936, "asym-sharp": 6897}
# (node, position) products of the evanescent traces' path sums
# sum_p e^{-kappa L_p}: a profile or heating scan's 435 panel nodes and its
# [0, x_lo] rectangle's one node, times its 101 or 100 folded positions, and
# matsubara-cold's 21; a depth makes no evanescent trace.  They are real
# (node x position) arrays, which each panel contracts with its Kronrod
# rules times the complex kernel; when the integrand multiplied them out
# into a complex product with the kernel, that product had the same count.
MAX_EVANESCENT_PRODUCTS = {"scan-gold": 87636, "matsubara-cold": 9156,
                           "depth-bragg": 0, "asym-sharp": 0}
# float64 imaginary-axis reflection evaluations of a 40-point gold profile
# at 0.1 K, off the benchmark, where every row needs the Euler-Maclaurin
# tail (J(z) up to 107 953): 34 425 (node, xi) pairs, the tail term's xi
# integral included, in one Matsubara integrand call on 15 panels; with the
# s ladder stopping at 1/16 of the narrowest decay, 35 415 in 3 calls (the
# first on 13 panels); with a separate xi integral for the tail, 54 090.
MAX_COLD_IMAGINARY_AXIS = 34425
# (coefficient, seed) pairs of the Newton steps on well-depth extrema,
# summed over a workload's depths: the even Chebyshev series of a depth's
# trace has 16, 19 and 22 coefficients at nu = 2, 3, 4 (bragg.cfg and
# constant r), for 3, 5 and 7 seeds.  A scan takes no Newton steps.  As
# (rule node, seed) pairs on a quadrature rule in the arch parameter they
# were 0, 0, 129 and 820 Chebyshev-compressed, 0, 0, 2 073 and 8 325 on
# the full Kronrod rule.
MAX_NEWTON_NODES = {"scan-gold": 0, "matsubara-cold": 0, "depth-bragg": 48,
                    "asym-sharp": 297}


def _run_checked(workload):
    """Run the workload's seed-0 commands; each exits 0 and matches the
    frozen reference."""
    reference = workloads.load_reference()
    for cmd in workloads.commands(workload, 0):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(cmd.argv) == 0
        assert workloads.check(cmd, out.getvalue(), reference) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_integrand_calls_per_workload(workload, monkeypatch):
    calls = []
    panels = quadrature._panels

    def counted(f, lo, hi):
        calls.append(len(lo))
        return panels(f, lo, hi)

    monkeypatch.setattr(quadrature, "_panels", counted)
    _run_checked(workload)
    assert 0 < len(calls) <= MAX_CALLS[workload]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reflection_evaluations_per_workload(workload,
                                             reflection_evaluations):
    # both routes are counted: scan-gold and matsubara-cold run Matsubara
    # sums on the imaginary axis, the two depth workloads run none
    _run_checked(workload)
    assert 0 < sum(reflection_evaluations) \
        <= MAX_REFLECTION_EVALUATIONS[workload]
    routes = reflection_evaluations.routes
    assert routes["real"] > 0
    assert (routes["imaginary"] > 0) == (
        workload in ("scan-gold", "matsubara-cold"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_propagating_products_per_workload(workload, trace_columns):
    _run_checked(workload)
    assert 0 < sum(n * len(p) for n, p in trace_columns) \
        <= MAX_PROPAGATING_PRODUCTS[workload]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_evanescent_products_per_workload(workload, trace_columns):
    _run_checked(workload)
    products = sum(n * len(p) for n, p in trace_columns.evanescent)
    assert (products > 0) == (MAX_EVANESCENT_PRODUCTS[workload] > 0)
    assert products <= MAX_EVANESCENT_PRODUCTS[workload]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_newton_nodes_per_workload(workload, monkeypatch):
    sizes = []
    newton = potential._newton_extrema

    def counted(b, half, seeds, *args):
        sizes.append(len(b) * len(seeds))
        return newton(b, half, seeds, *args)

    monkeypatch.setattr(potential, "_newton_extrema", counted)
    _run_checked(workload)
    assert sum(sizes) <= MAX_NEWTON_NODES[workload]


@pytest.mark.parametrize("delta", [1e-5, 1e-12])
def test_constant_r_depth_trace_converges_on_its_first_panels(delta,
                                                              monkeypatch):
    # the tuned pole subtracted, a depth's trace converges on the arch's
    # uniform panels in one call, at delta = 1e-5 as at 1e-12: 8 at nu = 2,
    # 3, 4 (asym-sharp's orders), one per half turn of e^{i beta L} on the
    # longest path L ~ 2a above, 2 nu at nu = 5-10.  With 8 at every nu,
    # nu = 5-10 bisected once or twice more; with the ladder toward the
    # tuned mode, nu = 2-4 took 30-31 panels and 1e-12 exhausted the
    # subdivision budget
    calls = []
    panels = quadrature._panels

    def counted(f, lo, hi):
        calls.append(len(lo))
        return panels(f, lo, hi)

    monkeypatch.setattr(quadrature, "_panels", counted)
    for nu in range(2, 11):
        potential.potential_depth(LIH, ConstantR(1.0 - delta), nu,
                                  ThermalEnvironment(300.0),
                                  quadrature.QuadratureSpec())
    assert calls == [8, 8, 8, 10, 12, 14, 16, 18, 20]


def test_imaginary_axis_evaluations_of_a_cold_profile(monkeypatch):
    sizes = []
    evaluate = Stack.imaginary_axis

    def counted(*args):
        rs, rp = evaluate(*args)
        sizes.append(rs.size)
        return rs, rp

    monkeypatch.setattr(Stack, "imaginary_axis", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["profile", "--mirror", "gold", "--width", "resonance:2",
                     "--points", "40", "--temperature", "0.1K"]) == 0
    assert 0 < sum(sizes) <= MAX_COLD_IMAGINARY_AXIS


def test_asym_makes_one_lerch_integral_per_delta(monkeypatch):
    calls = []
    lerch_phi = asymptotics.lerch_phi

    def counted(delta, b):
        calls.append(delta)
        return lerch_phi(delta, b)

    monkeypatch.setattr(asymptotics, "lerch_phi", counted)
    deltas = ["1e-3", "1e-4"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["asym", "--nu-min", "2", "--nu-max", "4",
                     "--delta", ",".join(deltas)]) == 0
    assert calls == pytest.approx([float(d) for d in deltas], rel=1e-12)
