"""The default study tables, byte for byte, against the files in tests/golden.

A golden file changes only together with a CHANGES.md line that says which
numbers moved and why; rewrite it with the same command line and --out.
"""

import math
import pathlib
import re

import pytest

from gegenspec import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

# each command line, run with --out <file>; fig3 also writes <file>.summary.json
COMMANDS = {
    "fig3.csv": ["fig3"],
    "fig2.csv": ["fig2"],
    "expansion-decay.csv": ["expansion-decay"],
    "nodes.csv": ["nodes", "--lambda", "0.5", "--n", "8", "--family", "gauss-lobatto"],
}


def first_difference(name, got, want):
    """The first line at which got and want differ, named for the message."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"{name} line {i}: got {g!r}, golden {w!r}"
    return f"{name}: got {len(got_lines)} lines, golden {len(want_lines)}"


def numeric_changes(got, want):
    """(count, rel, line, column) over the cells, split at ',' or ':', that
    differ in text and both read as numbers: how many there are and the
    largest relative change |got - want| / |want|, at its 1-based line and
    column (the header's name for it where the first line has one).
    (0, 0.0, None, None) when no numeric cell differs."""
    header = re.split(r"[,:]", want.splitlines()[0]) if want else []
    count, rel, line, column = 0, 0.0, None, None
    for i, (g_line, w_line) in enumerate(zip(got.splitlines(), want.splitlines()), start=1):
        for j, (g, w) in enumerate(zip(re.split(r"[,:]", g_line), re.split(r"[,:]", w_line))):
            if g == w:
                continue
            try:
                x, y = float(g), float(w)
            except ValueError:
                continue
            count += 1
            change = abs(x - y) / abs(y) if y else math.inf
            if not change <= rel:
                rel, line = change, i
                column = header[j] if j < len(header) else j + 1
    return count, rel, line, column


def test_numeric_changes_counts_cells_and_finds_the_largest():
    want = "n,error,flags\n8,1.5,c set to 1\n12,2.0e-05,float64\n"
    got = "n,error,flags\n8,1.5000000000000002,c set to 1\n12,2.0000000000001e-05,hermite\n"
    count, rel, line, column = numeric_changes(got, want)
    assert (count, line, column) == (2, 3, "error")
    assert rel == pytest.approx(5e-14, rel=1e-3)
    assert numeric_changes(want, want) == (0, 0.0, None, None)
    assert numeric_changes('{\n  "slope": -0.5,\n}', '{\n  "slope": -0.25,\n}') == (1, 1.0, 2, 2)


@pytest.mark.parametrize("name", COMMANDS)
def test_matches_golden(name, tmp_path):
    assert cli.main([*COMMANDS[name], "--out", str(tmp_path / name)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted([name, f"{name}.summary.json"] if name == "fig3.csv" else [name])
    for file in written:
        got, want = (tmp_path / file).read_bytes(), (GOLDEN / file).read_bytes()
        if got != want:
            count, rel, line, column = numeric_changes(got.decode(), want.decode())
            pytest.fail(f"{first_difference(file, got.decode(), want.decode())}; {count} "
                        f"numeric cells differ, the largest by {rel:.2g} relative at line "
                        f"{line}, column {column}")
