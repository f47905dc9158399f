"""The repository's tools: the line counter, on a sample whose counts are
known, and the CLI byte check, against its own checkout."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "src_lines.py"
SAMPLE = '"""One docstring."""\n# one comment\n\nanswer = "# not a comment"\n'


def _load():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_leaves_out_docstrings_comments_and_blank_lines(tmp_path, capsys, monkeypatch):
    src_lines = _load()
    assert src_lines.count(SAMPLE) == (4, 1)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "sample.py").write_text(SAMPLE)
    assert src_lines.count_tree(tmp_path) == (4, 1)
    monkeypatch.setattr(src_lines, "SRC", tmp_path)
    src_lines.main()
    assert capsys.readouterr().out == "4 lines, 1 code lines\n"


def test_cli_bytes_finds_no_difference_with_its_own_checkout():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_bytes.py"), str(ROOT)],
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 of 23 command lines differ\n", "")
