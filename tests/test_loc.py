"""tools/loc.py's counting rules, on a small synthetic source."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_SPEC = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

SOURCE = '''"""A module docstring

with a blank line inside.
"""
# a comment

x = 1  # code with a trailing comment


def f():
    """A function docstring."""
    y = 2
    "a string that is not the first statement"
    return y
'''


def test_each_line_gets_one_kind():
    assert loc.count(SOURCE) == {"code": 5, "docstring": 5, "comment": 1,
                                 "blank": 3, "wc": 14}


def test_main_prints_totals_then_one_row_per_module(tmp_path, monkeypatch,
                                                   capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("# one comment\n",
                                           encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["loc.py", str(tmp_path)])
    loc.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["wc -l: 15", "code 5, docstring 5, comment 2, blank 3"]
    assert lines[2].split() == ["module", "wc", *loc.KINDS]
    assert [line.split() for line in lines[3:]] == [
        ["pkg/a.py", "14", "5", "5", "1", "3"],
        ["pkg/b.py", "1", "0", "0", "1", "0"]]
