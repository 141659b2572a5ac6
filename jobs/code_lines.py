"""Count the code lines of ``src/``: lines holding a token that is not a
blank, a comment or a docstring, found with ``tokenize``.

A docstring here is any string that stands alone as a statement. Prints the
count per module, then the total. Run as ``python jobs/code_lines.py``.
"""
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in SKIP:
            # a statement ends at NEWLINE; one that is a lone string is a docstring
            if tok.type == tokenize.NEWLINE and statement:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(SRC)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
