"""The default study tables, byte for byte, against the files in tests/golden.

A golden file changes only together with a CHANGES.md line that says which
numbers moved and why; rewrite it with the same command line and --out.
"""

import pathlib

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


@pytest.mark.parametrize("name", COMMANDS)
def test_matches_golden(name, tmp_path):
    assert cli.main([*COMMANDS[name], "--out", str(tmp_path / name)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted([name, f"{name}.summary.json"] if name == "fig3.csv" else [name])
    for file in written:
        got, want = (tmp_path / file).read_bytes(), (GOLDEN / file).read_bytes()
        if got != want:
            pytest.fail(first_difference(file, got.decode(), want.decode()))
