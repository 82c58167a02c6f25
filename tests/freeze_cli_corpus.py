"""Freeze entries of tests/data/cli_corpus.json: the output of a fixed set of
cavitycp commands, which tests/test_cli_corpus.py checks every later build
against.

    PYTHONPATH=src python tests/freeze_cli_corpus.py NAME [NAME ...]

Run from the root of a source checkout.  Only the named entries are run and
written, each with the commit it was frozen at; every other entry stays
byte-identical.  The set is the four benchmark workloads' seed-0 commands,
heavier scans over nu, N and z, and 20-pair stack scans (tests/data/
stacks.cfg) that run a stack's evanescent integral, Matsubara sum and
heating rate.  A --config path is stored relative to the checkout root.
Re-freeze an entry only when its output is meant to move, and record which
columns moved, by how much, and which independent oracle confirmed the new
values.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

from cavitycp.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "cli_corpus.json"
BRAGG = ["--config", "perfbench/bragg.cfg"]
STACKS = ["--config", "tests/data/stacks.cfg"]
NU_1_10 = ",".join(str(nu) for nu in range(1, 11))
SEED0 = ["--rel-tol", "1e-09"]
GOLD2 = ["--mirror", "gold", "--width", "resonance:2"]

COMMANDS = {
    "scan-gold/profile": SEED0 + ["profile"] + GOLD2
    + ["--points", "200", "--temperature", "300.0K"],
    "scan-gold/heating": SEED0 + ["heating"] + GOLD2
    + ["--points", "200", "--temperature", "300.0K"],
    "matsubara-cold/profile": SEED0 + ["profile"] + GOLD2
    + ["--points", "40", "--temperature", "10.0K"],
    "depth-bragg/depth": SEED0 + BRAGG + ["depth", "--mirror", "bragg",
                                          "--nu", "2", "--temperature",
                                          "300.0K"],
    "asym-sharp/asym": SEED0 + ["asym", "--nu-min", "2", "--nu-max", "4",
                                "--delta", "1e-05", "--temperature",
                                "300.0K"],
    "depth-gold-1-10": ["depth", "--mirror", "gold", "--nu", NU_1_10],
    "depth-bragg-1-10": BRAGG + ["depth", "--mirror", "bragg",
                                 "--nu", NU_1_10],
    "asym-2-10": ["asym", "--nu-min", "2", "--nu-max", "10",
                  "--delta", "1e-6,1e-7"],
    "heating-resonance-6": ["heating", "--width", "resonance:6",
                            "--points", "40"],
    "profile-1mm-4K": ["profile", "--width", "1mm", "--points", "21",
                       "--temperature", "4K"],
    "profile-resonance-16-4K": ["profile", "--width", "resonance:16",
                                "--points", "100", "--temperature", "4K"],
    "heating-plate-1mm": ["heating", "--single-plate", "--width", "1mm",
                          "--points", "400"],
    "bragg-0-40": ["bragg", "--material-a", "sapphire_300K", "--material-b",
                   "vacuum", "--n-min", "0", "--n-max", "40",
                   "--design-frequency", "2.78973e12"],
    "stack-heating-resonance-6": STACKS + [
        "heating", "--mirror", "sapphire_300K_20", "--width", "resonance:6",
        "--points", "40"],
    "stack-profile-resonance-2-4K": STACKS + [
        "profile", "--mirror", "sapphire_300K_20", "--width", "resonance:2",
        "--points", "40", "--temperature", "4K"],
    "stack-77K-heating-plate-1mm": STACKS + [
        "heating", "--single-plate", "--mirror", "sapphire_77K_20",
        "--width", "1mm", "--points", "40"],
    "gaas-alas-profile-resonance-2": STACKS + [
        "profile", "--mirror", "gaas_alas_20", "--width", "resonance:2",
        "--points", "40"],
}


def resolve(argv):
    """argv with its --config path made absolute under the checkout root."""
    return [str(ROOT / a) if i and argv[i - 1] == "--config" else a
            for i, a in enumerate(argv)]


def run(argv):
    """(exit code, stdout) of one in-process cavitycp run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(resolve(argv))
    return code, out.getvalue()


def freeze(names):
    """Run the named commands and write their entries; the others keep
    theirs, in COMMANDS order."""
    unknown = [n for n in names if n not in COMMANDS]
    if not names or unknown:
        raise SystemExit(f"name entries to freeze, from: {', '.join(COMMANDS)}"
                         + (f"; unknown: {', '.join(unknown)}" if unknown
                            else ""))
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                cwd=ROOT, capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    entries = {e["name"]: e for e in json.loads(CORPUS.read_text())[
        "commands"]} if CORPUS.exists() else {}
    for name in names:
        code, stdout = run(COMMANDS[name])
        if code != 0:
            raise SystemExit(f"{name} exited {code}; nothing written")
        entries[name] = {"name": name, "argv": COMMANDS[name],
                         "frozen_at": commit, "stdout": stdout}
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps({"commands": [
        entries[n] for n in COMMANDS if n in entries]}, indent=1) + "\n")
    print(f"wrote {len(names)} of {len(entries)} commands to "
          f"{CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    freeze(sys.argv[1:])
