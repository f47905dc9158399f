"""The repository's line counter, on a sample whose counts are known."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
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
