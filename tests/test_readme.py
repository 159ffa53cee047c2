"""The README's examples: the Quick start session and the Command line block."""

import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

from beckpart import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def block(heading):
    """The first fenced block after the heading, as text."""
    text = README.read_text(encoding="utf-8")
    return re.search(rf"^## {heading}\n.*?^```\w*\n(.*?)^```", text, re.S | re.M).group(1)


def test_quick_start_session():
    session = block("Quick start")
    test = doctest.DocTestParser().get_doctest(session, {}, "Quick start", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.failures == 0 and runner.tries >= 7


def test_command_line_examples():
    commands = block("Command line").replace("\\\n", " ").splitlines()
    assert len(commands) >= 8
    for line in commands:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "beckpart", line
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv[1:]) == 0, line
        if comment.strip().startswith("->"):  # the output the README gives
            assert out.getvalue().strip() == comment.strip()[2:].strip(), line
