"""The README's library example runs and prints what its comments say,
and every command in its "Command line" block succeeds."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from jacograph.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_its_comments():
    block = re.search(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S).group(1)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert prints and all("  # " in line for line in prints), prints
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == [line.split("  # ", 1)[1] for line in prints]


def test_readme_command_lines_exit_zero():
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", README.read_text(),
                      re.M | re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(argv[0] == "jaco" for argv in commands), commands
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv[1:]) == 0, argv
