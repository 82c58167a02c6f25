"""Config parsing and the command-line front end."""

import csv
import io
import json
import math

import pytest

from cavitycp.cli import main
from cavitycp.config import (ConfigError, builtin_materials, builtin_mirrors,
                             load_registry, parse_quantity)
from cavitycp.materials import ConstantR, Drude, HalfSpace, Stack


# --- config -----------------------------------------------------------------

def test_parse_quantity_suffixes():
    assert parse_quantity("500um") == pytest.approx(5e-4)
    assert parse_quantity("1.5mm") == pytest.approx(1.5e-3)
    assert parse_quantity("2cm") == pytest.approx(0.02)
    assert parse_quantity("3m") == 3.0
    assert parse_quantity("250nm") == pytest.approx(2.5e-7)
    assert parse_quantity("300K") == 300.0
    assert parse_quantity(" 6.7526e-4 ") == pytest.approx(6.7526e-4)
    with pytest.raises(ValueError):
        parse_quantity("five")


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


def test_cli_exit_numerical(capsys, monkeypatch):
    # an impossible tolerance exhausts the subdivision budget
    import cavitycp.cli as climod
    monkeypatch.setattr(
        climod, "_quad_spec",
        lambda args: climod.QuadratureSpec(rel_tol=1e-15,
                                           max_subdivisions=2))
    code, _, err = run_cli(
        ["depth", "--mirror", "gold", "--nu", "2"], capsys)
    assert code == 3
    assert "numerical failure" in err


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
