"""The README's examples stay true: the "Library use" block runs, and every
`mrpsim` command of "Quick start" parses."""

import re
import shlex
from pathlib import Path

from mrpsim.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(title: str, language: str = "") -> str:
    """The first fenced block of the README section `title`."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs(capsys):
    exec(compile(_block("Library use", "python"), "README.md", "exec"), {})
    cost, service = map(float, capsys.readouterr().out.split())
    assert cost > 0
    assert 0 <= service <= 1


def test_quick_start_commands_parse():
    lines = _block("Quick start").replace("\\\n", " ").splitlines()
    commands = [line for line in lines if line.startswith("mrpsim ")]
    assert len(commands) == 5
    parser = build_parser()
    for command in commands:
        args = parser.parse_args(shlex.split(command)[1:])
        assert args.command == command.split()[1]
