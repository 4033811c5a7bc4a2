"""The README's examples run: every `gegenspec` line of its "Command line"
block through cli.main (with --out moved into a temporary directory), and
its "Library sketch" block as a script."""

import pathlib
import re
import shlex

import pytest

from gegenspec import cli

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading, language):
    """The first ```language block after the line '## heading'."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


COMMANDS = [shlex.split(line, comments=True)[1:]
            for line in fenced_block("Command line", "bash").splitlines()
            if line.startswith("gegenspec ")]


def test_commands_found():
    assert {argv[0] for argv in COMMANDS} == {
        "nodes", "fig2", "fig3", "bounds", "expansion-decay"}


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_command_line_example_runs(argv, tmp_path, capsys):
    argv = list(argv)
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    assert cli.main(argv) == 0, capsys.readouterr().err
    if "--out" in argv:
        assert pathlib.Path(argv[argv.index("--out") + 1]).stat().st_size > 0
    else:
        assert capsys.readouterr().out


def test_library_sketch_runs(capsys):
    exec(compile(fenced_block("Library sketch", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out
