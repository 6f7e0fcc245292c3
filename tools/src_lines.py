"""Count the lines of each module of ``src/oscquad`` as code, docstring, comment and blank.

Run from the root of the repository:

    python3 tools/src_lines.py [--parent COMMIT]

Every line of a module falls in exactly one class:

- docstring: a line of the docstring of the module, a class or a function
  (the string that is the first statement of its body), blank lines
  inside it included;
- comment: any other line whose first non-blank character is ``#``;
- blank: any other line that holds only whitespace;
- code: every other line, so a code line that ends in a comment is code.

The tool prints one row per module in name order, then the total.  With
``--parent``, the ``src/oscquad`` of that commit is read from
``git archive`` (nothing is written), and each row also gives the
commit's code lines and the change from them to the work tree's; a module
on one side only counts 0 lines on the other.  Its output depends only on
the files.
"""

import argparse
import ast
import io
import subprocess
import tarfile
from pathlib import Path, PurePosixPath

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


def committed_sources(commit):
    """{module: source} of the ``src/oscquad`` of ``commit``, from ``git archive``."""
    archive = subprocess.run(["git", "archive", commit, "src/oscquad"], cwd=ROOT,
                             capture_output=True)
    if archive.returncode:
        raise SystemExit(archive.stderr.decode(errors="replace").strip())
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        paths = {PurePosixPath(member.name): member for member in tar.getmembers()}
        return {path.stem: tar.extractfile(member).read().decode("utf-8")
                for path, member in paths.items()
                if path.parent == PurePosixPath("src/oscquad") and path.suffix == ".py"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="commit whose code lines each row is compared with")
    args = parser.parse_args(argv)
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in (ROOT / "src" / "oscquad").glob("*.py")}
    before = committed_sources(args.parent) if args.parent else {}
    rows = [(module, count(sources.get(module, "")), count(before.get(module, "")))
            for module in sorted(sources.keys() | before.keys())]
    total = tuple({name: sum(row[side][name] for row in rows) for name in CLASSES}
                  for side in (1, 2))
    print(f"{'module':<12}{'lines':>7}" + "".join(f"{name:>11}" for name in CLASSES)
          + (f"{'parent code':>13}{'change':>8}" if args.parent else ""))
    for module, counts, old in rows + [("total", *total)]:
        print(f"{module:<12}{sum(counts.values()):>7}"
              + "".join(f"{counts[name]:>11}" for name in CLASSES)
              + (f"{old['code']:>13}{counts['code'] - old['code']:>+8}" if args.parent else ""))


if __name__ == "__main__":
    main()
