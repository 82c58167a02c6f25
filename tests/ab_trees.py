"""In-process A/B timing of one cavitycp command on two source trees.

    python tests/ab_trees.py PARENT CHANGE --rounds N -- <argv>

PARENT and CHANGE are checkouts (each with src/cavitycp).  Both packages
are imported into one process, under their own package names, and each
round runs cli.main(argv) once on each, alternating which goes first, so
both see the same machine state and neither pays its own interpreter's
start.  The script checks that every run exits 0, prints the largest
difference per output column between the two trees (absolute, and relative
to the column's largest magnitude in the parent), and then the median wall
time of each tree, the median of the per-round ratios CHANGE/PARENT and in
how many rounds CHANGE was faster.  It exits 1 if a run fails.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import math
import statistics
import sys
import time
from pathlib import Path


def load(tree, name):
    """tree's src/cavitycp imported as the package name, and its cli."""
    package = Path(tree).resolve() / "src" / "cavitycp"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[
            str(package)])
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run(cli, argv):
    """(exit code, stdout, wall seconds) of cli.main(argv)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue(), time.perf_counter() - start


def numbers(cell):
    """The floats of a CSV cell, ';'-separated lists included."""
    return [float(x) for x in cell.split(";")] if cell else []


def difference(x, y):
    """|x - y|: 0 if both are equal or both nan, inf if only one is nan."""
    if x == y or math.isnan(x) and math.isnan(y):
        return 0.0
    gap = abs(x - y)
    return math.inf if math.isnan(gap) else gap


def column_differences(parent, change):
    """[(column, max |a - b|, that over max |a|)] of two CSV tables, cells
    compared as numbers; a column that does not read as numbers gives 0 if
    its text is the same in both, else inf."""
    rows = [list(csv.reader(io.StringIO(text))) for text in (parent, change)]
    if len(rows[0]) != len(rows[1]) or rows[0][:1] != rows[1][:1]:
        return [("(shape or header)", math.inf, math.inf)]
    diffs = []
    for j, column in enumerate(rows[0][0]):
        cells = [[row[j] for row in table[1:]] for table in rows]
        try:
            a, b = ([x for cell in side for x in numbers(cell)]
                    for side in cells)
        except ValueError:
            gap = 0.0 if cells[0] == cells[1] else math.inf
            diffs.append((column, gap, gap))
            continue
        if len(a) != len(b):
            diffs.append((column, math.inf, math.inf))
            continue
        gap = max(map(difference, a, b), default=0.0)
        scale = max((abs(x) for x in a if math.isfinite(x)), default=0.0)
        diffs.append((column, gap, gap / scale if scale else gap))
    return diffs


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s PARENT CHANGE [--rounds N] -- <cavitycp argv>")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rounds", type=int, default=20)
    args, command = parser.parse_args(argv[:split]), argv[split + 1:]
    if not command:
        parser.error("give the cavitycp argv after --")
    clis = [load(args.parent, "ab_parent"), load(args.change, "ab_change")]
    times, outputs = ([], []), [None, None]
    for k in range(args.rounds):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            code, out, wall = run(clis[side], command)
            if code != 0:
                print(f"{'parent change'.split()[side]} exited {code}")
                return 1
            times[side].append(wall)
            outputs[side] = out
    for column, gap, relative in column_differences(*outputs):
        print(f"{column}: max |diff| {gap:.3g}, {relative:.3g} of its max")
    ratios = [c / p for p, c in zip(*times)]
    print(f"parent median {statistics.median(times[0]) * 1e3:.4g} ms, "
          f"change median {statistics.median(times[1]) * 1e3:.4g} ms")
    print(f"median ratio change/parent {statistics.median(ratios):.4f}, "
          f"change faster in {sum(r < 1 for r in ratios)}/{len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
