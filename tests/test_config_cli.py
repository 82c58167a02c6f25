"""Config parsing and the command-line front end."""

import csv
import io
import itertools
import json
import math
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cavitycp import LIH, ThermalEnvironment
from cavitycp.cli import _csv, _quantity, _z_grid, build_parser, main
from cavitycp.config import (ConfigError, builtin_materials, builtin_mirrors,
                             load_registry)
from cavitycp.constants import C
from cavitycp.greens import CavityGeometry
from cavitycp.materials import ConstantR, Drude, HalfSpace, Stack, Vacuum, \
    quarter_wave_stack, reflection_coefficients, transverse_wavenumber
from cavitycp.molecules import Molecule, Transition
from cavitycp.potential import resonant_potential
from cavitycp.quadrature import QuadratureSpec

ROOT = Path(__file__).resolve().parents[1]

# --- config -----------------------------------------------------------------

LENGTHS = ("nm", "um", "mm", "cm", "m")


def test_parse_quantity_suffixes():
    # the CLI's one reader of flag values: every length suffix scales, and
    # K is a unit of --temperature only
    for text, value in (("500um", 500 * 1e-6), ("1.5mm", 1.5 * 1e-3),
                        ("2cm", 2 * 1e-2), ("3m", 3.0), ("250nm", 250 * 1e-9),
                        (" 6.7526e-4 ", 6.7526e-4), (" 7um\n", 7 * 1e-6)):
        assert _quantity(text, "--width", LENGTHS) == value
    assert _quantity(" 300K ", "--temperature", ("K",)) == 300.0
    with pytest.raises(ConfigError, match=r"^--width takes nm/um/mm/cm/m, "
                       r"not 'K'$"):
        _quantity("300K", "--width", LENGTHS)
    with pytest.raises(ConfigError,
                       match=r"^--temperature takes K, not 'um'$"):
        _quantity("300um", "--temperature", ("K",))
    for garbage in ("five", "mm", "e5m", "1.2.3"):
        with pytest.raises(ConfigError,
                           match=f"^--width takes a number, not '{garbage}'$"):
            _quantity(garbage, "--width", LENGTHS)


def test_builtin_registry_contents():
    reg = load_registry("")
    assert "LiH" in reg.molecules
    for name in ("vacuum", "gold", "sapphire_300K", "sapphire_77K",
                 "GaAs", "AlAs"):
        assert name in reg.materials
    assert isinstance(reg.mirrors["gold"], HalfSpace)
    assert builtin_materials()["gold"] == Drude(plasma_frequency=1.37e16,
                                                damping=5.32e13)
    assert "gold" in builtin_mirrors()


def test_registry_full_roundtrip():
    reg = load_registry("""
# comment-only line
[material:mymetal]
model = drude
plasma_frequency = 2e16
damping = 1e13

[mirror:mywall]
type = halfspace
material = mymetal

[mirror:ideal]
type = constant_r
r = 0.97

[mirror:bragg]
type = quarter_wave
material_a = sapphire_300K
material_b = vacuum
pairs = 4
design_frequency = 2.78973e12
""")
    assert reg.materials["mymetal"] == Drude(plasma_frequency=2e16,
                                             damping=1e13)
    assert reg.mirrors["mywall"] == HalfSpace(reg.materials["mymetal"])
    assert reg.mirrors["ideal"] == ConstantR(0.97)
    stack = reg.mirrors["bragg"]
    assert isinstance(stack, Stack)
    assert len(stack.layers) == 2 * 4 + 1


def test_config_error_line_context():
    with pytest.raises(ConfigError, match="line 2"):
        load_registry("[material:x]\nnot a key value line\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_registry("key = value\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_registry("[widget:x]\n")
    with pytest.raises(ConfigError, match="missing required key"):
        load_registry("[material:x]\nmodel = drude\n")
    with pytest.raises(ConfigError, match="unknown material"):
        load_registry("[mirror:m]\ntype = halfspace\nmaterial = nope\n")
    # a section's error names the section once, and the line at fault: the
    # line of a value that does not convert, else the section header
    for text, message in [
        ("[material:m]\nmodel = drude\nplasma_frequency = 1e16\n",
         "[material:m] (line 1): missing required key 'damping'"),
        ("[mirror:w]\ntype = constant_r\n",
         "[mirror:w] (line 1): missing required key 'r'"),
        ("[mirror:w]\ntype = halfspace\nmaterial = nope\n",
         "[mirror:w] (line 3): unknown material 'nope'; available: AlAs, "
         "GaAs, gold, sapphire_300K, sapphire_77K, vacuum"),
        ("[material:m]\nmodel = plastic\n",
         "[material:m] (line 1): unknown model 'plastic'"),
        ("[mirror:w]\ntype = curved\n",
         "[mirror:w] (line 1): unknown type 'curved'"),
        ("[material:m]\nmodel = constant\neps_real = 0.5\n",
         "[material:m] (line 1): ConstantLossy requires finite eps_real >= 1 "
         "and eps_imag >= 0 (passivity)"),
        ("[material:m]\nmodel = constant\neps_real = abc\n",
         "[material:m] (line 3): could not convert string to float: 'abc'"),
        ("[molecule:x]\ntransition = 1e12 1e-58\nomega = 5\n",
         "[molecule:x] (line 3): key 'omega' not read (reads transition)"),
        ("[molecule:x]\ntransition = 1e12 1e-58\ntransition = 2e12\n",
         "[molecule:x] (line 3): transition needs exactly 'omega d_squared'"),
        ("[molecule:x]\n",
         "[molecule:x] (line 1): molecule needs at least one transition"),
        ("[mirror:x\n", "line 1: section header must look like [kind:NAME], "
         "got '[mirror:x'"),
        ("[mirror: ]\n", "line 1: empty section name")]:
        with pytest.raises(ConfigError) as exc:
            load_registry(text)
        assert str(exc.value) == message


@pytest.mark.parametrize("text, where", [
    ("[material:s]\nmodel = constant\neps_real = 10\neps_imga = 1e-4\n",
     "[material:s] (line 4): key 'eps_imga' not read"),
    ("[material:s]\nmodel = constant\neps_real = 10\n"
     "transition = 2.78973e12 3.847e-58\n",
     "[material:s] (line 4): key 'transition' not read"),
    ("[material:s]\nmodel = constant\neps_real = 10\neps_real = 12\n",
     "[material:s] (line 4): key 'eps_real' repeated"),
    ("[molecule:x]\ntransition = 2.78973e12 3.847e-58\nomega = 5\n",
     "[molecule:x] (line 3): key 'omega' not read")],
    ids=["misspelt", "other_kind", "repeated", "molecule_key"])
def test_config_line_no_builder_reads_exits_2(text, where, capsys,
                                              tmp_path):
    # eps_imga = 1e-4 loaded as a lossless ConstantLossy(10.0, 0.0), and a
    # second eps_real silently replaced the first
    cfg = tmp_path / "unread.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(["--config", str(cfg), "depth", "--nu", "2"],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {where}") and err.count("\n") == 1


def test_config_molecule_reads_every_transition_line():
    reg = load_registry("[molecule:x]\ntransition = 2e12 1e-58\n"
                        "transition = 1e12 3e-58\n")
    assert reg.molecules["x"] == Molecule("x", (Transition(1e12, 3e-58),
                                                Transition(2e12, 1e-58)))


README_INI = re.findall(r"^```ini\n(.*?)^```",
                        (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)


@pytest.mark.parametrize("text", [
    (ROOT / "perfbench" / "bragg.cfg").read_text(),
    (ROOT / "tests" / "data" / "stacks.cfg").read_text(), *README_INI],
    ids=["perfbench_bragg", "tests_stacks"] + [
        f"readme_ini{i}" for i in range(len(README_INI))])
def test_shipped_configs_load(text):
    # the configs the benchmark, the CLI corpus and the README use load
    # without a warning, each section under its name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reg = load_registry(text)
    sections = re.findall(r"^\[(\w+):(\S+)\]", text, re.MULTILINE)
    assert sections
    assert all(name in getattr(reg, kind + "s") for kind, name in sections)


def test_config_override_warns():
    with pytest.warns(UserWarning, match="overrides built-in"):
        reg = load_registry("[material:gold]\nmodel = vacuum\n")
    assert reg.materials["gold"].__class__.__name__ == "Vacuum"


# --- CLI --------------------------------------------------------------------

def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_depth_csv(capsys):
    code, out, err = run_cli(
        ["--rel-tol", "1e-7", "depth", "--mirror", "gold", "--nu", "1,2"],
        capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["nu"] for r in rows] == ["1", "2"]
    assert rows[0]["kind"] == "peak_height"
    assert rows[1]["kind"] == "well_depth"
    assert float(rows[1]["depth_J"]) == pytest.approx(5.605e-35, rel=1e-3)
    assert float(rows[1]["a_m"]) == pytest.approx(6.7521e-4, rel=1e-4)
    # nu = 1 has no minimum
    assert math.isnan(float(rows[0]["z_min_m"]))


def test_cli_depth_of_a_zero_mirror_is_zero(capsys, tmp_path):
    # r = 0 gives a trace of exact zeros: a flat potential whose depth and
    # peak height are 0, as at r = 1e-300, with no 0/0 in the Newton steps
    # (a RuntimeWarning fails the test)
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("[mirror:zero]\ntype = constant_r\nr = 0\n")
    code, out, err = run_cli(["--config", str(cfg), "depth", "--mirror",
                              "zero", "--nu", "1,2"], capsys)
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["nu"], r["depth_J"]) for r in rows] == [("1", "0"), ("2", "0")]


def test_cli_depth_nu3_minimum_is_the_depth_minimum(capsys):
    # z_min_m is the minimum depth_J is measured from: the one nearest
    # (nu - 2) lam/4 = +lam/4, with depth_J = U(z_max) - U(z_min) for the
    # maximum nearest (nu - 3) lam/4 = 0
    lam = 2.0 * math.pi * C / LIH.transitions[0].omega
    code, out, _ = run_cli(
        ["--rel-tol", "1e-9", "depth", "--mirror", "gold", "--nu", "3"],
        capsys)
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    z_min = float(row["z_min_m"])
    z_max = min((float(z) for z in row["z_maxima_m"].split(";")), key=abs)
    assert abs(z_min - lam / 4.0) <= lam / 8.0
    cavity = CavityGeometry(width=float(row["a_m"]), mirror=HalfSpace(
        builtin_materials()["gold"]))
    u_pr, _ = resonant_potential(np.array([z_max, z_min]), LIH, cavity,
                                 ThermalEnvironment(300.0), QuadratureSpec())
    depth = float(row["depth_J"])
    assert abs(depth - (u_pr[0] - u_pr[1])) <= 1e-7 * depth


def test_cli_depth_deterministic_17_digits(capsys, tmp_path):
    argv = ["--rel-tol", "1e-7", "depth", "--mirror", "gold", "--nu", "2"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "\r" not in out1
    # floats carry 17 significant digits
    depth = out1.splitlines()[1].split(",")[2]
    digits = depth.replace("-", "").replace(".", "").split("e")[0]
    assert len(digits) == 17


def test_cli_out_file_and_json(capsys, tmp_path):
    path = tmp_path / "depth.json"
    code, out, _ = run_cli(
        ["--format", "json", "--out", str(path), "--rel-tol", "1e-7",
         "depth", "--mirror", "gold", "--nu", "2"],
        capsys)
    assert code == 0
    assert out == ""
    data = json.loads(path.read_text())
    assert isinstance(data, list) and data[0]["nu"] == 2
    assert data[0]["kind"] == "well_depth"


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_cli_json_is_strict(capsys):
    # non-finite columns (nu = 1 has no minimum; asym without --delta has no
    # depths) are null, so strict RFC 8259 parsers read the output
    for argv, column, nulls in (
            (["depth", "--mirror", "gold", "--nu", "1"], "z_min_m", 1),
            (["asym", "--nu-max", "3"], "depth_series_J", 2)):
        code, out, _ = run_cli(["--format", "json", "--rel-tol", "1e-7"]
                               + argv, capsys)
        assert code == 0
        rows = json.loads(out, parse_constant=_no_constant)
        assert sum(r[column] is None for r in rows) == nulls


def test_cli_global_flags_after_subcommand(capsys, tmp_path):
    cfg = tmp_path / "mirror.cfg"
    cfg.write_text("[mirror:half_gold]\ntype = constant_r\nr = 0.5\n")
    flags = ["--config", str(cfg), "--rel-tol", "1e-6", "--format", "json"]
    cmd = ["profile", "--width", "resonance:2", "--mirror", "half_gold",
           "--points", "3"]
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert run_cli(flags + ["--out", str(before)] + cmd, capsys)[0] == 0
    assert run_cli(cmd + flags + ["--out", str(after)], capsys)[0] == 0
    assert after.read_bytes() == before.read_bytes()
    assert json.loads(after.read_text())[0]["z_m"] < 0


def _joined(value):
    """One CSV cell as written by format(value, ".17g") per float."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def test_csv_templates_match_per_value_format(rng):
    # one %-template per row prints what one format() call per value did:
    # non-finite floats, signed zero, subnormals, numpy floats, bools, ints
    # (bools first: a bool is an int) and strings
    rows = [(math.nan, math.inf, -math.inf, -0.0, 5e-324),
            (True, False, 3, -7, "peak_height"),
            (0.1, 1.0, 1e300, -2.5e-17, "1e-05;2"),
            (np.float64(0.1), 2**70, 0.0, "100%", None)]
    rows += [tuple(x) for x in rng.normal(size=(20, 5)) * 1e-30]
    header = ["a", "b", "c", "d", "e"]
    want = "".join(",".join(map(_joined, row)) + "\n"
                   for row in [header] + rows)
    assert _csv(rows, header) == want


@pytest.mark.parametrize("points", [2, 3, 40, 200, 201])
def test_z_grid_is_antisymmetric(points):
    # mirror positions are exact negatives, so a cavity folds them onto one
    # evaluation
    a = 6.752092737680181e-4
    z = np.array(_z_grid(a, points))
    assert len(z) == points
    assert np.all(np.diff(z) > 0)
    assert np.array_equal(z, -z[::-1])
    if points % 2:
        assert z[points // 2] == 0.0
    edge = a / 2.0 - a / 1000.0
    assert abs(z[0] + edge) <= 1e-15 * a
    assert abs(z[-1] - edge) <= 1e-15 * a


def _rounds(trace_columns):
    """(nodes, columns) per run of greens._paths calls with equal node
    counts: one run per integrand call of a propagating trace, split into
    position blocks (consecutive calls of equal size merge)."""
    return [(n, sum(len(p) for _, p in calls))
            for n, calls in itertools.groupby(trace_columns,
                                              key=lambda c: c[0])]


@pytest.mark.parametrize("command", ["profile", "heating"])
def test_cli_grid_folds_the_chebyshev_nodes_in_half(command, capsys,
                                                    monkeypatch,
                                                    trace_columns):
    # scan-gold's 200-point grids (the profile adds its centre): the
    # propagating trace runs at the grid span's 31 Chebyshev nodes in z, and
    # the fold takes them to 16 columns, centre included.  The same rounds
    # on the same beta nodes as without the fold, and the same output within
    # a few ulp of each column's max
    folded, unfolded = 16, 31
    argv = [command, "--mirror", "gold", "--width", "resonance:2",
            "--points", "200"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    rounds = _rounds(trace_columns)
    trace_columns.clear()
    monkeypatch.setattr(CavityGeometry, "fold",
                        lambda self, zs: (zs, slice(None)))
    code, out_unfolded, _ = run_cli(argv, capsys)
    assert code == 0
    rounds_unfolded = _rounds(trace_columns)
    assert all(c % folded == 0 for _, c in rounds)
    assert all(c % unfolded == 0 for _, c in rounds_unfolded)
    assert [(n, c // folded) for n, c in rounds] \
        == [(n, c // unfolded) for n, c in rounds_unfolded]
    got, want = (np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
                 for text in (out, out_unfolded))
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).max(axis=0))


def test_cli_profile_resonance_width(capsys):
    code, out, _ = run_cli(
        ["--rel-tol", "1e-6", "profile", "--width", "resonance:2",
         "--mirror", "gold", "--points", "5"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    edge = 6.752092737680181e-4 * (0.5 - 1e-3)
    assert float(rows[0]["z_m"]) == pytest.approx(-edge, rel=1e-9)
    assert float(rows[-1]["z_m"]) == pytest.approx(edge, rel=1e-9)
    for r in rows:
        total = (float(r["U_nr_J"]) + float(r["U_pr_J"])
                 + float(r["U_ev_J"]))
        assert float(r["U_total_J"]) == pytest.approx(total, abs=1e-45)


def test_cli_profile_shift_vs_raw(capsys):
    common = ["--rel-tol", "1e-6", "profile", "--width", "resonance:2",
              "--mirror", "gold", "--points", "3"]
    _, shifted, _ = run_cli(common, capsys)
    _, raw, _ = run_cli(common + ["--raw"], capsys)
    srow = list(csv.DictReader(io.StringIO(shifted)))[1]
    rrow = list(csv.DictReader(io.StringIO(raw)))[1]
    # the shifted middle row differs from raw by the center offset
    assert float(srow["U_pr_J"]) != float(rrow["U_pr_J"])


def test_cli_bragg(capsys):
    code, out, _ = run_cli(
        ["bragg", "--material-a", "sapphire_300K", "--material-b", "vacuum",
         "--n-max", "8", "--design-frequency", "2.78973e12"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    vals = [float(r["one_minus_re_r"]) for r in rows]
    assert vals[8] == pytest.approx(5.525524931493386e-06, rel=1e-6)
    assert all(a > b for a, b in zip(vals[1:], vals[2:]))
    assert rows[0]["saturated"] == "false"
    # each row is, bit for bit, the normal-incidence r_p of the one
    # reflectivity entry
    sapphire = load_registry("").materials["sapphire_300K"]
    for n, row in enumerate(rows):
        _, rp = reflection_coefficients(
            Stack(quarter_wave_stack(sapphire, Vacuum(), n, 2.78973e12)),
            2.78973e12,
            beta=transverse_wavenumber(1.0, 2.78973e12, np.array([0.0])))
        r = complex(rp[0])
        assert float(row["one_minus_re_r"]) == 1.0 - r.real
        assert float(row["abs_r"]) == abs(r)


def test_cli_shared_flags_keep_their_defaults():
    parser = build_parser()
    need = {"profile": ["--width", "1mm"], "depth": ["--nu", "2"],
            "heating": ["--width", "1mm"], "asym": ["--nu-max", "3"]}
    for command, argv in need.items():
        args = parser.parse_args([command] + argv)
        assert (args.molecule, args.temperature) == ("LiH", "300K")
        assert vars(args).get("mirror") == \
            (None if command == "asym" else "gold")


def test_cli_reused_parser_prints_what_separate_parses_print(tmp_path,
                                                             capsys):
    """build_parser() runs once per process; consecutive main() calls that
    set and then drop a flag print what each prints on a fresh parser."""
    out = tmp_path / "out.csv"
    base = ["--rel-tol", "1e-6"]
    profile = ["profile", "--width", "resonance:1", "--points", "3"]
    heating = ["heating", "--width", "resonance:1", "--points", "3"]
    runs = [base + profile + ["--raw"], base + profile,
            base + ["--out", str(out)] + profile, base + profile,
            base + ["--format", "json"] + profile, base + profile,
            base + heating + ["--single-plate"], base + heating]

    def run(argv):
        code, text, err = run_cli(argv, capsys)
        if out.exists():
            text += out.read_text()
            out.unlink()
        return code, text, err

    reused = [run(argv) for argv in runs]
    separate = []
    for argv in runs:
        build_parser.cache_clear()
        separate.append(run(argv))
    assert reused == separate
    assert all(code == 0 for code, _, _ in reused)
    # each flag changes the output, and --out writes what stdout gets
    texts = [text for _, text, _ in reused]
    assert texts[2] == texts[1] and len(set(texts)) == 5


def test_cli_heating(capsys):
    code, out, _ = run_cli(
        ["--rel-tol", "1e-6", "heating", "--width", "resonance:1",
         "--mirror", "gold", "--points", "3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    gamma_free = float(rows[0]["gamma_free_per_s"])
    assert gamma_free == pytest.approx(0.4785218883737936, rel=1e-6)
    mid = float(rows[1]["gamma_per_s"])
    assert mid / gamma_free == pytest.approx(2.0059, rel=1e-3)


def test_cli_heating_single_plate(capsys):
    code, out, _ = run_cli(
        ["--rel-tol", "1e-6", "heating", "--width", "500um",
         "--mirror", "gold", "--points", "3", "--single-plate"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["z_m"]) == pytest.approx(6.7526e-4 / 100.0, rel=1e-3)
    assert float(rows[-1]["z_m"]) == pytest.approx(5e-4, rel=1e-12)


@pytest.mark.parametrize("argv, message", [
    (["--points", "1"], "--points needs at least 2, got 1"),
    (["--points", "0"], "--points needs at least 2, got 0"),
    (["--width", "5um"], "--width must exceed lam/100 = "
     "6.752092737680181e-06 m, the plate grid's floor"),
    (["--width", "6.752092737680181e-06"], "--width must exceed lam/100 = "
     "6.752092737680181e-06 m, the plate grid's floor")],
    ids=["one_point", "no_points", "width_below_lam_over_100",
         "width_at_lam_over_100"])
def test_cli_heating_single_plate_bad_grid(argv, message, capsys):
    # the distance grid runs from lam/100 (6.75 um for LiH) to the width and
    # needs two points, as the cavity grid does; a width at or below the
    # floor is named at the door, in one line
    argv = ["heating", "--width", "500um", "--single-plate"] + argv
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["depth", "--nu", "0"], "--nu must be positive and finite, got '0'"),
    (["depth", "--nu", ","],
     "--nu needs a comma-separated list of integers >= 1"),
    (["bragg", "--n-min", "3", "--n-max", "2"],
     "--n-min 3 is not in [0, n-max]"),
    (["bragg", "--n-min", "-1", "--n-max", "2"],
     "--n-min -1 is not in [0, n-max]")],
    ids=["nu_zero", "nu_empty", "n_min_above_n_max", "n_min_negative"])
def test_cli_refuses_an_empty_or_inverted_range(argv, message, capsys):
    # each exits 2 with its one line, before any integral
    if argv[0] == "bragg":
        argv = argv + ["--material-a", "sapphire_300K", "--material-b",
                       "vacuum", "--design-frequency", "2.78973e12"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_cli_asym(capsys):
    code, out, _ = run_cli(
        ["--rel-tol", "1e-7", "asym", "--nu-max", "3", "--delta", "1e-2"],
        capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["nu"] for r in rows] == ["2", "3"]
    for r in rows:
        assert float(r["depth_quadrature_J"]) == pytest.approx(
            float(r["depth_series_J"]), rel=0.05)
    assert float(rows[0]["phi_nu"]) == pytest.approx(-0.1134423724, abs=1e-8)


def test_cli_asym_sharp_cavity(capsys):
    # delta = 1e-8 needs ~1.8e9 terms of the plain series; the Lerch form
    # of I(phi) answers in milliseconds.  The trace subtracts the tuned
    # mode's pole, 1e-8/a below w/c, in closed form
    code, out, _ = run_cli(
        ["asym", "--nu-min", "2", "--nu-max", "6", "--delta", "1e-8"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["nu"] for r in rows] == ["2", "3", "4", "5", "6"]
    for r in rows:
        assert float(r["depth_quadrature_J"]) == pytest.approx(
            float(r["depth_series_J"]), rel=0.01)


def test_cli_asym_delta_floor(capsys):
    # with its tuned pole subtracted, a constant-r trace carries no 2 delta
    # cancellation in D_sigma and no tolerance floor ~1e-17/delta; delta =
    # 1e-10 converges at a loose 1e-7 as at the default (see the test below)
    code, out, _ = run_cli(
        ["--rel-tol", "1e-7", "asym", "--nu-min", "2", "--nu-max", "4",
         "--delta", "1e-10"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["nu"] for r in rows] == ["2", "3", "4"]
    for r in rows:
        assert float(r["depth_quadrature_J"]) == pytest.approx(
            float(r["depth_series_J"]), rel=0.01)


def test_cli_asym_has_no_delta_floor(capsys):
    # at the default rel_tol, deltas below the old ~1e-8 floor exit 0, and
    # each depth is within 1 % of the series at the seeded extrema
    code, out, _ = run_cli(["asym", "--nu-min", "2", "--nu-max", "10",
                            "--delta", "1e-8,1e-12"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 18
    for r in rows:
        assert float(r["depth_quadrature_J"]) == pytest.approx(
            float(r["depth_series_J"]), rel=0.01)


def test_cli_config_file(capsys, tmp_path):
    cfg = tmp_path / "reg.cfg"
    cfg.write_text("[mirror:ideal]\ntype = constant_r\nr = 0.9\n")
    code, out, _ = run_cli(
        ["--config", str(cfg), "--rel-tol", "1e-7",
         "depth", "--mirror", "ideal", "--nu", "2"], capsys)
    assert code == 0
    assert "well_depth" in out


def test_cli_exit_config_errors(capsys):
    # unknown mirror
    code, _, err = run_cli(["depth", "--mirror", "nope", "--nu", "2"], capsys)
    assert code == 2 and "unknown mirror" in err
    # missing config file
    code, _, _ = run_cli(["--config", "/does/not/exist",
                          "depth", "--nu", "2"], capsys)
    assert code == 2
    # bad usage (argparse)
    assert main(["depth"]) == 2
    assert main(["no-such-command"]) == 2
    # empty nu range
    code, _, _ = run_cli(["asym", "--nu-min", "5", "--nu-max", "4"], capsys)
    assert code == 2
    # nu < 2 for asym
    code, _, _ = run_cli(["asym", "--nu-min", "1", "--nu-max", "2"], capsys)
    assert code == 2
    # bad width
    code, _, _ = run_cli(["profile", "--width", "-3um"], capsys)
    assert code == 2
    # delta = 1 - r outside (0, 1), with or without "=": argparse read a
    # value -1e-3 as a flag, and the others failed on r, not on --delta
    for delta in (["--delta", "-1e-3"], ["--delta=-1e-3"], ["--delta", "0"],
                  ["--delta", "1.5"], ["--delta", "1e-3,-1e-4"]):
        code, out, err = run_cli(["asym", "--nu-max", "3", *delta], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--delta" in err and "(0, 1)" in err


@pytest.mark.parametrize("flag", ["--config", "--out"])
def test_cli_unusable_path_is_a_config_error(flag, capsys, tmp_path):
    # a directory where a file belongs exited 1 with an IsADirectoryError
    # traceback
    code, out, err = run_cli(
        [flag, str(tmp_path), "bragg", "--material-a", "sapphire_300K",
         "--material-b", "vacuum", "--n-max", "1", "--design-frequency",
         "2.78973e12"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("width", ["1e10m", "1e30m"])
def test_cli_mode_scan_too_large_is_a_config_error(width, capsys):
    # 1e10 m asked numpy for a 1.68 PiB mode-scan grid (exit 1,
    # MemoryError), 1e30 m exited 2 with numpy's "Maximum allowed size
    # exceeded"; the arch returned numbers for both.  Their paths are longer
    # than the phase of e^{i beta L} resolves, so both are refused before
    # any integral
    code, out, err = run_cli(["heating", "--width", width, "--points", "3"],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: a path of {2 * float(width[:-1]):g} m ")
    assert "exceeds the 26.9 m the real-frequency trace resolves" in err
    assert err.endswith("\n") and err.count("\n") == 1


def test_cli_wide_gold_cavity_fails_fast(capsys):
    # a 1 m gold cavity has 5921 sharp modes, more than the subdivision
    # budget, so the mode hunt refused it with exit 3; the arch above the
    # real beta axis passes them all and the profile converges
    start = time.perf_counter()
    code, out, err = run_cli(["profile", "--width", "1m", "--points", "3"],
                             capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize("argv, flag", [
    (["profile", "--width", "1e400"], "--width"),
    (["heating", "--single-plate", "--width", "1e400"], "--width"),
    (["profile", "--width", "inf"], "--width"),
    (["profile", "--width", "1e400um"], "--width"),
    (["profile", "--width", "nan"], "--width"),
    (["asym", "--nu-max", "3", "--temperature", "inf"], "--temperature")],
    ids=["width_overflow", "plate_width_overflow", "width_inf",
         "width_overflow_um", "width_nan", "temperature_inf"])
def test_cli_non_finite_quantity_names_its_flag(argv, flag, capsys):
    # 1e400 became a nan grid ("grid must ascend ... nan m") or a nan plate
    # distance, and inf was reported as a unit 'inf'
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be positive and finite, got " \
        f"{argv[argv.index(flag) + 1]!r}\n"


@pytest.mark.parametrize("argv, unit", [
    (["profile", "--width", "0.0007K", "--temperature", "300"], "'K'"),
    (["profile", "--width", "0.7mm", "--temperature", "300m"], "'m'"),
    (["heating", "--width", "resonance:2", "--temperature", "300um"],
     "'um'"),
    (["heating", "--single-plate", "--width", "1K"], "'K'")])
def test_cli_rejects_units_of_the_wrong_dimension(argv, unit, capsys):
    # --width takes a length or resonance:N, --temperature kelvin; a bare
    # number is accepted by both
    code, out, err = run_cli(argv + ["--points", "3"], capsys)
    assert code == 2 and out == ""
    assert unit in err and err.count("\n") == 1


BRAGG = ["bragg", "--material-a", "sapphire_300K", "--material-b", "vacuum",
         "--n-max", "2"]


@pytest.mark.parametrize("argv, flag", [
    (["profile", "--width", "resonance:x"], "--width"),
    (["profile", "--width", "resonance:2.5"], "--width"),
    (["profile", "--width", "resonance:0"], "--width"),
    (["depth", "--nu", "2,x"], "--nu"),
    (["depth", "--nu", "2.0"], "--nu"),
    (["asym", "--nu-max", "3", "--delta", "1e-3,abc"], "--delta"),
    (["asym", "--nu-max", "2", "--delta", "1e-300"], "--delta"),
    (["asym", "--nu-max", "2", "--delta", "5e-17"], "--delta"),
    (BRAGG + ["--design-frequency", "abc"], "--design-frequency"),
    (BRAGG + ["--design-frequency", "0"], "--design-frequency"),
    (BRAGG + ["--design-frequency", "1e300"], "--design-frequency"),
    (BRAGG + ["--design-frequency", "1.3e162"], "--design-frequency"),
    (BRAGG + ["--design-frequency", "4e162"], "--design-frequency"),
    (BRAGG + ["--design-frequency", "1e-300"], "--design-frequency"),
    (["profile", "--width", "mm"], "--width"),
    (["profile", "--width", "e5m"], "--width"),
    (["--rel-tol", "nan", "depth", "--nu", "2"], "--rel-tol"),
    (["--rel-tol", "abc", "depth", "--nu", "2"], "--rel-tol"),
    (["asym", "--nu-min", "1", "--nu-max", "2"], "--nu-min"),
    (["asym", "--nu-min", "5", "--nu-max", "4"], "--nu-min")],
    ids=["resonance_x", "resonance_2.5", "resonance_0", "nu_x", "nu_2.0",
         "delta_abc", "delta_1e-300", "delta_5e-17", "design_frequency_abc",
         "design_frequency_0", "design_frequency_1e300",
         "design_frequency_1.3e162", "design_frequency_4e162",
         "design_frequency_1e-300", "width_unit_only", "width_e5m",
         "rel_tol_nan", "rel_tol_abc", "nu_min_1", "nu_min_above_nu_max"])
def test_cli_every_value_flag_is_refused_in_one_line_naming_it(argv, flag,
                                                               capsys):
    # each printed Python's own ValueError text, or a line naming no flag
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}") and err.count("\n") == 1


@pytest.mark.parametrize("argv, edge", [
    (["asym", "--nu-max", "2", "--delta"], ("6e-17", "5.551115123125783e-17")),
    (["bragg", "--material-a", "gold", "--material-b", "vacuum", "--n-max",
      "1", "--design-frequency"],
     (repr(C * 1.3407807929942596e154), repr(C * 1.3407807929942597e154)))],
    ids=["delta", "design_frequency"])
def test_cli_value_doors_sit_at_the_double_precision_edge(argv, edge,
                                                          capsys):
    # a delta that 1 - delta rounds to 1 named r, not --delta (exit 2), and
    # a design frequency whose (omega/c)^2 overflows exited 3 with a bare
    # OverflowError; the largest values that leave both finite still run
    accepted, refused = edge
    code, out, err = run_cli(argv + [accepted], capsys)
    assert code == 0 and err == "" and "nan" not in out
    code, out, err = run_cli(argv + [refused], capsys)
    assert code == 2 and out == "" and err.startswith(f"error: {argv[-1]}")


def test_cli_accepts_units_of_the_right_dimension(capsys):
    for width, temperature in (("0.0007", "300K"), ("700um", "300"),
                               ("0.07cm", "300.K")):
        code, out, _ = run_cli(["--rel-tol", "1e-6", "profile", "--width",
                                width, "--temperature", temperature,
                                "--points", "3"], capsys)
        assert code == 0 and out.count("\n") == 4


def test_cli_negative_stack_pairs_is_a_config_error(capsys, tmp_path):
    cfg = tmp_path / "mirror.cfg"
    cfg.write_text("[mirror:neg]\ntype = quarter_wave\n"
                   "material_a = sapphire_300K\nmaterial_b = vacuum\n"
                   "pairs = -3\ndesign_frequency = 2.78973e12\n")
    code, out, err = run_cli(["--config", str(cfg), "depth", "--mirror",
                              "neg", "--nu", "2"], capsys)
    assert code == 2 and out == ""
    assert "[mirror:neg]" in err and "pairs" in err


def test_cli_bragg_rejects_zero_design_frequency(capsys, recwarn):
    code, out, err = run_cli(
        ["bragg", "--material-a", "sapphire_300K", "--material-b", "vacuum",
         "--n-max", "2", "--design-frequency", "0"], capsys)
    assert code == 2 and out == ""
    assert err == "error: --design-frequency must be positive and finite, " \
        "got '0'\n"
    assert not [w for w in recwarn if w.category is RuntimeWarning]


@pytest.mark.parametrize("omega0", ["0", "nan", "inf", "1e-300"])
def test_cli_stack_design_frequency_is_a_config_error(omega0, capsys,
                                                      tmp_path, recwarn):
    # 0 gave a nan estimate (exit 3); nan, inf and 1e-300 (whose vacuum
    # quarter-wave layer overflows) exited 2 only after RuntimeWarnings,
    # blaming the layer thickness
    cfg = tmp_path / "mirror.cfg"
    cfg.write_text("[mirror:qw]\ntype = quarter_wave\n"
                   "material_a = sapphire_300K\nmaterial_b = vacuum\n"
                   f"pairs = 2\ndesign_frequency = {omega0}\n")
    code, out, err = run_cli(["--config", str(cfg), "depth", "--mirror",
                              "qw", "--nu", "2"], capsys)
    assert code == 2 and out == ""
    assert "[mirror:qw]" in err and "design frequency" in err
    assert not [w for w in recwarn if w.category is RuntimeWarning]


@pytest.mark.parametrize("transition, what", [
    ("2.78973e12 inf", "d_squared"),          # printed depth_J = inf
    ("inf 3.847e-58", "transition frequency"),  # blamed the cavity width
    ("nan 3.847e-58", "transition frequency")],  # no line context
    ids=["d2_inf", "omega_inf", "omega_nan"])
def test_cli_non_finite_molecule_is_a_config_error(transition, what, capsys,
                                                   tmp_path):
    cfg = tmp_path / "molecule.cfg"
    cfg.write_text(f"[molecule:X]\ntransition = {transition}\n")
    code, out, err = run_cli(["--config", str(cfg), "depth", "--molecule",
                              "X", "--nu", "2"], capsys)
    assert code == 2 and out == ""
    assert "line 2" in err and what in err


@pytest.mark.parametrize("rel_tol", ["inf", "1e300", "2"])
def test_cli_rejects_meaningless_rel_tol(rel_tol, capsys):
    # inf, 1e300 and 2 printed depths from unrefined panels
    code, out, err = run_cli(["--rel-tol", rel_tol, "depth", "--nu", "2"],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: --rel-tol")


def test_cli_checks_rel_tol_without_integrating(capsys):
    # bragg builds no quadrature, and took --rel-tol inf with exit 0
    code, out, err = run_cli(
        ["--rel-tol", "inf", "bragg", "--material-a", "sapphire_300K",
         "--material-b", "vacuum", "--n-max", "2",
         "--design-frequency", "2.78973e12"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: --rel-tol")


BRAGG_CFG = str(ROOT / "perfbench" / "bragg.cfg")


@pytest.mark.parametrize("argv", [
    ["profile", "--width", "resonance:2", "--points", "3"],
    ["profile", "--mirror", "gold", "--width", "resonance:1",
     "--points", "21"],
    ["--config", BRAGG_CFG, "profile", "--mirror", "bragg", "--width",
     "resonance:2", "--points", "21"],
    ["depth", "--mirror", "gold", "--nu", "1,2,3,4,5,6,7,8,9,10"]],
    ids=["resonance2", "gold_nu1", "bragg_nu2", "gold_depths"])
def test_cli_converges_at_the_tightest_reachable_rel_tol(argv, capsys):
    # the README's claim for dispersive mirrors: at --rel-tol 1e-11 these
    # commands converge on first panels sized from the mirror (the tuned
    # pole's depth, the grazing scale w/(c sqrt|eps|)); at 1e-12 the first
    # three exit 3
    code, out, err = run_cli(["--rel-tol", "1e-11", *argv], capsys)
    assert code == 0, err
    assert out


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15: a gold cavity "
                   "narrower than ~3 um fails at the default --rel-tol")
def test_cli_narrow_gold_cavity_converges_at_the_default_rel_tol(capsys):
    # the propagating arch spends its budget: worst error/tolerance 2.12
    # at 2 um (7.66 at 1 um, 316 at 0.1 um); at --rel-tol 1e-8 2 um exits 0
    code, out, err = run_cli(["profile", "--width", "2e-6", "--points", "3"],
                             capsys)
    assert code == 0, err
    assert out


@pytest.mark.parametrize("temperature, expected", [("1e300K", 2),
                                                   ("1e30K", 0)])
def test_cli_temperature_past_float_range(temperature, expected, capsys):
    # at 1e300 K the first Matsubara frequency overflowed: RuntimeWarnings
    # and exit 3 on a nan estimate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["profile", "--width", "resonance:2",
                                  "--temperature", temperature,
                                  "--points", "5"], capsys)
    assert code == expected
    if expected:
        assert out == "" and "temperature 1e+300 K" in err
    else:
        assert err == "" and len(out.splitlines()) == 6


@pytest.mark.parametrize("fields", [
    "model = constant\neps_real = 0",      # complex division by zero
    "model = constant\neps_real = 0.5",    # active: quadrature budget spent
    "model = constant\neps_real = nan",    # nan estimate
    "model = drude\nplasma_frequency = inf\ndamping = 5.32e13"],
    ids=["eps_real_0", "eps_real_half", "eps_real_nan", "plasma_inf"])
def test_cli_non_passive_material_is_a_config_error(fields, capsys,
                                                    tmp_path):
    cfg = tmp_path / "material.cfg"
    cfg.write_text(f"[material:bad]\n{fields}\n"
                   "[mirror:wall]\ntype = halfspace\nmaterial = bad\n")
    code, out, err = run_cli(["--config", str(cfg), "depth", "--mirror",
                              "wall", "--nu", "2"], capsys)
    assert code == 2 and out == ""
    assert "[material:bad]" in err


def test_cli_exit_numerical(capsys, monkeypatch):
    # an impossible tolerance exhausts a budget of two subdivisions
    import cavitycp.cli as climod
    import cavitycp.quadrature
    monkeypatch.setattr(climod, "QuadratureSpec",
                        lambda rel_tol: QuadratureSpec(rel_tol=1e-15))
    monkeypatch.setattr(cavitycp.quadrature, "_MAX_SUBDIVISIONS", 2)
    # a grid's worst component names a row of the caller's grid: 200 rows
    # plus the z = 0 offset for profile, 200 for heating, though each
    # cavity trace evaluates only the distinct |z|
    for argv, rows in (
            (["depth", "--mirror", "gold", "--nu", "2"], None),
            (["profile", "--width", "resonance:2", "--points", "200"], 201),
            (["heating", "--width", "resonance:2", "--points", "200"], 200)):
        code, _, err = run_cli(argv, capsys)
        assert code == 3
        assert err.startswith("numerical failure: quadrature failed to "
                              "converge")
        # one line on the worst component, however many the integral has
        assert len(err.splitlines()) == 1, err
        if rows is not None:
            assert f" of {rows}, " in err, err
        # where the budget went: bisections used of the budget, and the
        # worst component's error over its tolerance
        budget = re.search(r"(\d+) of (\d+) subdivisions used, worst "
                           r"error/tolerance (\S+)$", err.strip())
        assert budget is not None, err
        assert int(budget[1]) == int(budget[2]) == 2
        assert float(budget[3]) > 1.0


def test_cli_threads_env(capsys, monkeypatch):
    monkeypatch.setenv("CAVITYCP_THREADS", "2")
    code, out, _ = run_cli(
        ["--rel-tol", "1e-6", "profile", "--width", "resonance:2",
         "--mirror", "gold", "--points", "4", "--raw"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 5


def test_cli_depth_at_zero_temperature(capsys):
    # n(w) underflows to 0 instead of overflowing: exit 0, zero depth, and
    # the extrema are still found on the unweighted trace
    code, out, _ = run_cli(
        ["--rel-tol", "1e-7", "depth", "--nu", "2", "--temperature",
         "0.02K"], capsys)
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert float(row["depth_J"]) == 0.0
    assert abs(float(row["z_min_m"])) <= 1e-9 * float(row["a_m"])


def test_cli_profile_millikelvin_finite(capsys):
    # at 1 mK the wall-adjacent grid points would need ~1e7 Matsubara terms;
    # J0 exact terms and the Euler-Maclaurin tail give a finite U_nr fast
    start = time.perf_counter()
    code, out, err = run_cli(
        ["profile", "--width", "resonance:2", "--points", "3",
         "--temperature", "0.001K"], capsys)
    assert code == 0
    assert err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert all(math.isfinite(float(r["U_nr_J"])) for r in rows)
    assert time.perf_counter() - start < 5.0


def test_cli_profile_lossy_bragg_mirror(capsys, tmp_path):
    cfg = tmp_path / "bragg.cfg"
    cfg.write_text("[mirror:bragg]\ntype = quarter_wave\n"
                   "material_a = sapphire_300K\nmaterial_b = vacuum\n"
                   "pairs = 8\ndesign_frequency = 2.78973e12\n")
    code, out, _ = run_cli(
        ["--config", str(cfg), "--rel-tol", "1e-7", "profile", "--mirror",
         "bragg", "--width", "resonance:2", "--points", "4"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert all(math.isfinite(float(r["U_nr_J"])) for r in rows)
