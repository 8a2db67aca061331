"""Count the code lines of the package under ``src/``, per module and in total.

    python3 tools/count_lines.py [SRC_DIR]

A code line is a physical line that holds at least one token other than a
comment or layout (newlines, indentation, the end marker).  Docstrings do
not count: a string literal that forms a whole statement is skipped.  A
token that spans several lines counts every line it spans.  Standard
library only.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    lines: set[int] = set()
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    statement_start = True
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            if tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
                statement_start = True
            continue
        docstring = (
            statement_start
            and tok.type == tokenize.STRING
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        statement_start = False
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: "list[str]") -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
