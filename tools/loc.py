"""Count the lines of mrpsim's source, as `wc -l` does and split by kind.

    python3 tools/loc.py [ROOT]

ROOT defaults to the `src/` directory beside `tools/`.  The first line is
the total of newlines in every `.py` file under ROOT, which is what
`wc -l` prints.  The next gives each line one kind, and a table follows
with the same counts for each module, by its path under ROOT:

- docstring: any line of a module's, class's or function's docstring,
  blank lines inside it included;
- blank: an empty or whitespace-only line outside a docstring;
- comment: a line whose first non-blank character is `#`;
- code: every other line, including a line of code with a trailing comment.

Docstrings are found with `ast`, so a string that is not the first
statement of its body counts as code.  Standard library only.
"""

import argparse
import ast
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The lines of one source file by kind, and its newlines as `wc`."""
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    counts["wc"] = text.count("\n")
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args()
    columns = ("wc", *KINDS)
    modules = {path.relative_to(args.root).as_posix():
               count(path.read_text(encoding="utf-8"))
               for path in sorted(args.root.rglob("*.py"))}
    totals = {kind: sum(m[kind] for m in modules.values()) for kind in columns}
    print(f"wc -l: {totals['wc']:,}")
    print(", ".join(f"{kind} {totals[kind]:,}" for kind in KINDS))
    width = max(map(len, ("module", *modules)))
    print("module".ljust(width), *(f"{kind:>9}" for kind in columns))
    for name, counts in modules.items():
        print(name.ljust(width), *(f"{counts[kind]:>9,}" for kind in columns))


if __name__ == "__main__":
    main()
