"""The CLI corpus: every command frozen in tests/data/cli_corpus.json (see
tests/freeze_cli_corpus.py), run in-process, exits 0 and reproduces its
frozen CSV.  Text columns match exactly.  Numeric columns (a cell may hold
several numbers joined by ';') match within 10 rel_tol of the column's
largest magnitude, rel_tol being the command's --rel-tol.  A heating
table's gamma_per_s is checked as Gamma - Gamma_0 (gamma_per_s -
gamma_free_per_s), to rel_tol of that difference's largest magnitude, so
that a small error in the trace shows even where Gamma - Gamma_0 is a small
part of Gamma, and where the propagating part is a small part of Gamma -
Gamma_0 (the evanescent peak at a wall sets the maximum).  Between --rel-tol
1e-9 and 1e-11 the heating entries drift by at most 5e-11 of that maximum.
U_total_J gets perfbench's wider bound: U_total is the near-cancellation of
U_nr and U_ev.
"""

import csv
import io
import json
import math

import pytest

from freeze_cli_corpus import CORPUS, run

ENTRIES = json.loads(CORPUS.read_text())["commands"]


def _table(text):
    """{column: [cells]} of a CSV table."""
    header, *rows = list(csv.reader(io.StringIO(text)))
    assert all(len(r) == len(header) for r in rows)
    return {col: [r[i] for r in rows] for i, col in enumerate(header)}


def _numbers(cells):
    """Each cell's ';'-joined floats, or None if a cell is text."""
    try:
        return [[float(v) for v in cell.split(";") if v] for cell in cells]
    except ValueError:
        return None


def _values(table, col):
    """Column col's numbers as _numbers gives them, gamma_per_s less
    gamma_free_per_s row by row."""
    values = _numbers(table[col])
    if col == "gamma_per_s" and values is not None:
        free = _numbers(table["gamma_free_per_s"])
        values = [[g - f for g, f in zip(row, row_free)]
                  for row, row_free in zip(values, free)]
    return values


def mismatches(argv, got_text, want_text):
    """'column row i: got vs frozen' lines where got_text leaves the frozen
    output's bounds; an empty list when it matches."""
    got, want = _table(got_text), _table(want_text)
    if list(got) != list(want):
        return [f"header {list(got)} vs frozen {list(want)}"]
    rel_tol = float(argv[argv.index("--rel-tol") + 1]) \
        if "--rel-tol" in argv else 1e-9
    column_rtol = {"U_total_J": 1e-6, "gamma_per_s": rel_tol}
    problems = []
    for col, cells in want.items():
        if len(got[col]) != len(cells):
            return [f"{len(got[col])} rows vs frozen {len(cells)}"]
        frozen, new = _values(want, col), _values(got, col)
        if frozen is None or new is None:
            bad = [i for i, (g, w) in enumerate(zip(got[col], cells))
                   if g != w]
            problems += [f"{col} row {i}: {got[col][i]} vs frozen {cells[i]}"
                         for i in bad[:1]]
            continue
        tol = column_rtol.get(col, 10.0 * rel_tol) * max(
            (abs(x) for row in frozen for x in row if math.isfinite(x)),
            default=0.0)
        for i, (g, w) in enumerate(zip(new, frozen)):
            if len(g) != len(w) or not all(
                    abs(a - b) <= tol or (math.isnan(a) and math.isnan(b))
                    for a, b in zip(g, w)):
                problems.append(f"{col} row {i}: {got[col][i]} vs frozen "
                                f"{cells[i]} (tol {tol:.3g})")
                break
    return problems


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_cli_output_matches_frozen_corpus(entry):
    code, out = run(entry["argv"])
    assert code == 0
    assert mismatches(entry["argv"], out, entry["stdout"]) == []


def test_corpus_check_flags_a_shift_and_a_changed_text_cell():
    # one value moved by 20 rel_tol of its column's max fails, one moved by
    # a tenth of that passes, and a changed text cell fails
    entry = next(e for e in ENTRIES if e["name"] == "depth-gold-1-10")
    table = list(csv.reader(io.StringIO(entry["stdout"])))
    depth = table[0].index("depth_J")
    top = max(abs(float(r[depth])) for r in table[1:])

    def shifted(by, col=depth, value=None):
        rows = [list(r) for r in table]
        rows[3][col] = value or repr(float(rows[3][col]) + by * top)
        return "".join(",".join(r) + "\n" for r in rows)

    assert mismatches(entry["argv"], shifted(2e-8), entry["stdout"])
    assert mismatches(entry["argv"], shifted(1e-9), entry["stdout"]) == []
    kind = table[0].index("kind")
    assert mismatches(entry["argv"], shifted(0, kind, "peak_height"),
                      entry["stdout"])


def test_corpus_check_holds_heating_to_rel_tol_of_the_change():
    # a trace scaled by 1 + 1e-7 in its propagating part alone moves
    # scan-gold/heating by 4.4e-9 of its Gamma - Gamma_0 maximum, which
    # 10 rel_tol let through: 3 rel_tol of that maximum now fails, 0.3
    # rel_tol passes
    entry = next(e for e in ENTRIES if e["name"] == "scan-gold/heating")
    table = list(csv.reader(io.StringIO(entry["stdout"])))
    top = max(abs(float(r[1]) - float(r[2])) for r in table[1:])

    def shifted(by):
        rows = [list(r) for r in table]
        rows[100][1] = repr(float(rows[100][1]) + by * top)
        return "".join(",".join(r) + "\n" for r in rows)

    assert mismatches(entry["argv"], shifted(3e-9), entry["stdout"])
    assert mismatches(entry["argv"], shifted(3e-10), entry["stdout"]) == []
