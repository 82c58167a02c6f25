"""Regenerate reference.json: the seed-0 output of every workload command.

    python3 perfbench/freeze_reference.py

Only a change that is meant to change the program's numbers should need this.
"""

import contextlib
import io
import json
import sys

import workloads
from run import SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    from cavitycp import cli
    reference = {}
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, 0):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(cmd.argv)
            if code != 0:
                print(f"{cmd.name} exited {code}", file=sys.stderr)
                return 1
            reference[cmd.name] = out.getvalue()
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
