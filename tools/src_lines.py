"""Count the lines of each module of ``src/oscquad`` as code, docstring, comment and blank.

Run from the root of the repository:

    python3 tools/src_lines.py [--root DIR]

``--root`` names another checkout (for example a ``git archive`` of a
parent commit) whose ``src/oscquad`` is counted instead.  Every line of a
module falls in exactly one class:

- docstring: a line of the docstring of the module, a class or a function
  (the string that is the first statement of its body), blank lines
  inside it included;
- comment: any other line whose first non-blank character is ``#``;
- blank: any other line that holds only whitespace;
- code: every other line, so a code line that ends in a comment is code.

The tool prints one row per module in name order, then the total.  Its
output depends only on the files.
"""

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLASSES = ("code", "docstring", "comment", "blank")
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The 1-based numbers of the lines that docstrings in ``tree`` cover."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """{class: lines} of one module's source."""
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(CLASSES, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        elif not text:
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/oscquad is counted (default: this one)")
    args = parser.parse_args(argv)
    rows = [(path.stem, count(path.read_text(encoding="utf-8")))
            for path in sorted((args.root / "src" / "oscquad").glob("*.py"))]
    total = {name: sum(counts[name] for _, counts in rows) for name in CLASSES}
    print(f"{'module':<12}{'lines':>7}" + "".join(f"{name:>11}" for name in CLASSES))
    for module, counts in rows + [("total", total)]:
        print(f"{module:<12}{sum(counts.values()):>7}"
              + "".join(f"{counts[name]:>11}" for name in CLASSES))


if __name__ == "__main__":
    main()
