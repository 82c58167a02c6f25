"""Tests of the benchmark's tracer and output checks.

    python3 -m pytest perfbench/test_tracer.py

They run real workload iterations (about two minutes in all, most of it
depth-bragg), so they are kept apart from the program's own test suite.
"""

from __future__ import annotations

import json
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

import cavitycp  # noqa: E402


def _traced(workload, seed=0):
    tally = {"attempted": 0, "failed": 0}
    # untraced_wall = 0, so trace.overhead_s is the traced iteration's time
    metrics = run.traced_metrics(workloads.commands(workload, seed),
                                 workloads.load_reference(), tally,
                                 run.ScaledClock(), 0.0)
    assert tally == {"attempted": len(workloads.commands(workload, seed)),
                     "failed": 0}
    return {name: m["value"] for name, m in metrics.items()}


@pytest.fixture(scope="module")
def traced():
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = _traced(workload)
        return cache[workload]
    return get


def _counts(metrics):
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_pattern(traced, workload):
    m = traced(workload)
    assert set(m) == set(tracer.PER_LAYER)
    sums = workload in ("scan-gold", "matsubara-cold")
    assert (m["potential.matsubara_terms"] > 0) == sums
    assert (m["asymptotics.series_calls"] > 0) == (workload == "asym-sharp")
    assert (m["potential.extremum_evals"] > 0) == \
        (workload in ("depth-bragg", "asym-sharp"))
    assert m["quadrature.failures"] == 0
    assert m["potential.matsubara_truncated"] == 0
    assert 0.5 <= m["quadrature.kept_frac"] < 1.0


def test_materials_share_larger_on_bragg(traced):
    def share(m):
        return m["materials.self_s"] / m["trace.overhead_s"]
    assert share(traced("depth-bragg")) > share(traced("asym-sharp"))


def test_counts_repeat(traced):
    first = traced("matsubara-cold")
    assert _counts(_traced("matsubara-cold")) == _counts(first)


def test_missing_name_leaves_metric_out(monkeypatch):
    monkeypatch.delattr(cavitycp.asymptotics, "I_phi_series")
    monkeypatch.delattr(cavitycp.quadrature, "golden_section_minimize")
    m = _traced("matsubara-cold", seed=1)
    assert "asymptotics.series_calls" not in m
    assert "asymptotics.series_s" not in m
    assert m["quadrature.panels"] > 0


def test_benchmark_json_matches():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == tracer.PER_LAYER


def _edit_cell(text, row, col, func):
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(func(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_checks_accept_reference_and_catch_errors():
    reference = workloads.load_reference()
    profile, = workloads.commands("matsubara-cold", 0)
    text = reference[profile.name]
    assert workloads.check(profile, text, reference) == []
    # a 1e-6 relative error in one U_pr value, away from the parity partner
    bad = _edit_cell(text, 3, 2, lambda u: u * (1 + 1e-6))
    assert workloads.check(profile, bad, reference)
    assert workloads.check(profile, "z_m\n", reference)


def test_checks_scale_thermal_columns_for_other_seeds():
    reference = workloads.load_reference()
    depth, = workloads.commands("depth-bragg", 7)
    assert depth.temperature != depth.reference_temperature
    ratio = workloads.photon_number(depth.temperature) \
        / workloads.photon_number(depth.reference_temperature)
    text = _edit_cell(reference[depth.name], 0, 2, lambda d: d * ratio)
    assert workloads.check(depth, text, reference) == []
    assert workloads.check(depth, reference[depth.name], reference)
