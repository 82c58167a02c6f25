"""Benchmark workloads: cavitycp CLI argument lists made from a seed, and the
checks every command's CSV output must pass.

Seed 0 runs the nominal inputs and compares every output column with the
values frozen in reference.json.  Any other seed perturbs the temperature
(and, for asym-sharp, delta = 1 - r) by up to +-2 %; columns that do not depend
on the perturbed inputs, or that scale exactly with the photon number
n(omega, T) of the LiH line, are still compared with the reference, and the
invariants below are checked on every seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
BRAGG_CONFIG = HERE / "bragg.cfg"

REL_TOL = 1e-9          # quadrature tolerance every command runs at
JITTER = 0.02           # largest relative perturbation a seed applies

# Relative tolerance of each output column against the reference, and of
# profile parity, as a share of the column's largest magnitude.  10 x REL_TOL
# where the column is one controlled integral.  Wider where it is a small part
# of what the quadrature controls: U_total is the near-cancellation of U_nr and
# U_ev (each ~30x larger), and Im Tr G in the heating rate is controlled only
# relative to |Tr G|, whose real part next to the wall is ~1e5x larger.  Both
# wider values are 10x the change seen at this commit between rel_tol 1e-9 and
# 1e-11.
VALUE_RTOL = 10 * REL_TOL
COLUMN_RTOL = {"U_total_J": 1e-6, "gamma_per_s": 1e-5}
# Extremum positions, as a share of the cavity width: 10x the refinement
# tolerance xtol = 1e-6 a of potential_depth.
POSITION_RTOL = 1e-5
# The quadrature depth and the exact constant-r series differ by < 0.2 % at
# delta = 1e-5 for nu = 2..4.
ORACLE_RTOL = 1e-2

HBAR = 1.054571817e-34   # J s (CODATA 2018)
K_B = 1.380649e-23       # J/K
LIH_OMEGA = 2.78973e12   # rad/s, the built-in LiH transition

# How each column follows the seed's perturbation: FIXED columns do not depend
# on T or delta, THERMAL ones scale exactly with n(omega, T) because every
# real-frequency trace is temperature independent, SEED0 ones are compared
# with the reference only at seed 0.  POSITION columns are T independent
# extremum positions; TEXT columns must match exactly.
FIXED, THERMAL, SEED0, POSITION, TEXT = "fixed", "thermal", "seed0", \
    "position", "text"
COLUMNS = {
    "profile": {"z_m": FIXED, "U_nr_J": SEED0, "U_pr_J": THERMAL,
                "U_ev_J": THERMAL, "U_total_J": SEED0},
    "heating": {"z_m": FIXED, "gamma_per_s": THERMAL,
                "gamma_free_per_s": THERMAL},
    "depth": {"nu": FIXED, "a_m": FIXED, "depth_J": THERMAL,
              "z_min_m": POSITION, "z_maxima_m": POSITION, "kind": TEXT},
    "asym": {"nu": FIXED, "delta": SEED0, "depth_quadrature_J": SEED0,
             "depth_series_J": SEED0, "depth_scaling_J": SEED0,
             "phi_nu": FIXED, "phi_asymptote": FIXED},
}

# Why each workload is in the benchmark; BENCHMARK.json carries the same lines.
WHY = {
    "scan-gold": "README headline scan: 200-point gold profile plus heating at "
                 "300 K; one real-frequency trace per z and ~3 Matsubara terms "
                 "per point",
    "matsubara-cold": "gold profile at 10 K: ~33 Matsubara terms per point, "
                      "so imaginary-frequency traces take most of the time",
    "depth-bragg": "well depth for an 8-pair sapphire/vacuum Bragg mirror: "
                   "the multilayer reflection recursion takes ~2/3 of the time",
    "asym-sharp": "constant-r depths at delta = 1e-5: bypasses the reflection "
                  "kernel, stresses quadrature panels and the series oracle",
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload."""
    name: str          # key into reference.json
    kind: str          # key into COLUMNS: the subcommand
    argv: List[str]
    temperature: float
    reference_temperature: float
    nominal: bool      # seed 0: every column is compared with the reference


def _jitter(rng: random.Random, seed: int) -> float:
    return 1.0 if seed == 0 else 1.0 + rng.uniform(-JITTER, JITTER)


def commands(workload: str, seed: int) -> List[Command]:
    """The workload's commands for this seed; the same seed gives the same
    commands."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    t_ref = 10.0 if workload == "matsubara-cold" else 300.0
    temp = t_ref * _jitter(rng, seed)
    head = ["--rel-tol", repr(REL_TOL)]
    tail = ["--temperature", f"{temp!r}K"]
    cavity = ["--mirror", "gold", "--width", "resonance:2"]

    def cmd(name, kind, argv):
        return Command(f"{workload}/{name}", kind, argv, temp, t_ref,
                       seed == 0)

    if workload == "scan-gold":
        return [cmd("profile", "profile",
                    head + ["profile"] + cavity + ["--points", "200"] + tail),
                cmd("heating", "heating",
                    head + ["heating"] + cavity + ["--points", "200"] + tail)]
    if workload == "matsubara-cold":
        return [cmd("profile", "profile",
                    head + ["profile"] + cavity + ["--points", "40"] + tail)]
    if workload == "depth-bragg":
        return [cmd("depth", "depth",
                    head + ["--config", str(BRAGG_CONFIG), "depth",
                            "--mirror", "bragg", "--nu", "2"] + tail)]
    delta = 1e-5 * _jitter(rng, seed)
    return [cmd("asym", "asym",
                head + ["asym", "--nu-min", "2", "--nu-max", "4",
                        "--delta", repr(delta)] + tail)]


def photon_number(temperature: float) -> float:
    return 1.0 / math.expm1(HBAR * LIH_OMEGA / (K_B * temperature))


def load_reference() -> Dict[str, str]:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _parse(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty output")
    header, body = rows[0], rows[1:]
    if any(len(r) != len(header) for r in body):
        raise ValueError("ragged CSV output")
    return header, [dict(zip(header, r)) for r in body]


def _numbers(cell: str) -> List[float]:
    return [float(v) for v in cell.split(";") if v]


def _column(rows, col) -> List[float]:
    return [x for r in rows for x in _numbers(r[col])]


def _rtol(col: str) -> float:
    return COLUMN_RTOL.get(col, VALUE_RTOL)


def _compare(cmd: Command, rows, ref_rows) -> List[str]:
    problems = []
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    factor = photon_number(cmd.temperature) \
        / photon_number(cmd.reference_temperature)
    for col, rule in COLUMNS[cmd.kind].items():
        if rule == SEED0 and not cmd.nominal:
            continue
        if rule == TEXT:
            bad = [i for i, (r, q) in enumerate(zip(rows, ref_rows))
                   if r[col] != q[col]]
            if bad:
                problems.append(f"{col} differs from reference in rows {bad}")
            continue
        scale = _rtol(col) * max(abs(x) for x in _column(ref_rows, col))
        for i, (r, q) in enumerate(zip(rows, ref_rows)):
            got, want = _numbers(r[col]), _numbers(q[col])
            if rule == POSITION:
                tol = POSITION_RTOL * float(q["a_m"])
            elif rule == THERMAL:
                want = [w * factor for w in want]
                tol = scale * factor
            else:
                tol = scale
            if len(got) != len(want) or any(
                    abs(g - w) > tol for g, w in zip(got, want)):
                problems.append(f"{col} row {i}: {r[col]} vs reference "
                                f"{';'.join(repr(w) for w in want)} "
                                f"(tol {tol:.3g})")
                break
    return problems


def _invariants(cmd: Command, rows) -> List[str]:
    problems = []
    for col, rule in COLUMNS[cmd.kind].items():
        if rule != TEXT and not all(math.isfinite(x)
                                    for x in _column(rows, col)):
            problems.append(f"{col} has non-finite values")
    if problems:
        return problems
    if cmd.kind == "profile":
        z = _column(rows, "z_m")
        if any(abs(a + b) > VALUE_RTOL * max(map(abs, z))
               for a, b in zip(z, reversed(z))):
            problems.append("z grid is not symmetric")
        for col in ("U_nr_J", "U_pr_J", "U_ev_J", "U_total_J"):
            u = _column(rows, col)
            tol = _rtol(col) * max(map(abs, u))
            if any(abs(a - b) > tol for a, b in zip(u, reversed(u))):
                problems.append(f"{col} breaks parity U(z) = U(-z)")
    elif cmd.kind == "heating":
        if not all(g > 0 for g in _column(rows, "gamma_per_s")
                   + _column(rows, "gamma_free_per_s")):
            problems.append("heating rate is not positive")
    elif cmd.kind == "depth":
        for r in rows:
            if int(r["nu"]) >= 2 and not (r["kind"] == "well_depth"
                                          and float(r["depth_J"]) > 0):
                problems.append(f"nu = {r['nu']}: no positive well depth")
    elif cmd.kind == "asym":
        for r in rows:
            quad, series = float(r["depth_quadrature_J"]), \
                float(r["depth_series_J"])
            if not (quad > 0 and series > 0):
                problems.append(f"nu = {r['nu']}: depth is not positive")
            elif abs(quad / series - 1.0) > ORACLE_RTOL:
                problems.append(f"nu = {r['nu']}: quadrature depth {quad} "
                                f"disagrees with series {series}")
    return problems


def check(cmd: Command, output: str,
          reference: Optional[Dict[str, str]]) -> List[str]:
    """Problems found in one command's CSV output; empty when it is correct."""
    try:
        header, rows = _parse(output)
        if header != list(COLUMNS[cmd.kind]):
            return [f"unexpected columns {header}"]
        if not rows:
            return ["no rows"]
        problems = _invariants(cmd, rows)
        if reference is not None:
            _, ref_rows = _parse(reference[cmd.name])
            problems += _compare(cmd, rows, ref_rows)
    except (ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    return problems
