"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_its_comments():
    block = re.search(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S).group(1)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert prints and all("  # " in line for line in prints), prints
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == [line.split("  # ", 1)[1] for line in prints]
