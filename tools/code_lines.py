"""Count the lines of Python code outside docstrings and comments.

A line counts when it holds part of a token other than a comment, a
docstring, or layout (newlines, indents and dedents). A docstring here is
any statement that is one string alone. Usage::

    python tools/code_lines.py src/reranklab   # the total, then each file's count
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type in _UNCOUNTED:
                continue
            if tok.type != tokenize.NEWLINE:
                statement.append(tok)
                continue
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    counts = {p: code_lines(p) for p in sorted(Path(argv[1]).rglob("*.py"))}
    print(sum(counts.values()))
    for path, n in counts.items():
        print(f"{n:6d}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
