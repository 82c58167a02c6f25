"""Write tests/data/cli_corpus.json: the output of a fixed set of cavitycp
commands, which tests/test_cli_corpus.py checks every later build against.

    PYTHONPATH=src python tests/freeze_cli_corpus.py

Run from the root of a source checkout.  The set is the four benchmark
workloads' seed-0 commands plus heavier scans over nu, N and z.  A --config
path is stored relative to the checkout root.  Regenerate the corpus only
when an output is meant to move, and record which columns moved, by how
much, and which independent oracle confirmed the new values.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
from pathlib import Path

from cavitycp.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "cli_corpus.json"
BRAGG = ["--config", "perfbench/bragg.cfg"]
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


def freeze():
    entries = []
    for name, argv in COMMANDS.items():
        code, stdout = run(argv)
        if code != 0:
            raise SystemExit(f"{name} exited {code}; nothing written")
        entries.append({"name": name, "argv": argv, "stdout": stdout})
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                cwd=ROOT, capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps({"frozen_at": commit, "commands": entries},
                                 indent=1) + "\n")
    print(f"wrote {len(entries)} commands to {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    freeze()
