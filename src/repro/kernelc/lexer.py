"""Tokeniser for the kernel-C language (an OpenCL-C subset).

Preprocessor-style lines (``#pragma acc ...``) are not tokens: they are
collected into :attr:`Lexer.directives` with their line numbers so the
OpenACC front end can associate pragmas with the statement that follows,
while plain kernel-C consumers simply ignore them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import LexError

KEYWORDS = frozenset(
    {
        "int",
        "float",
        "bool",
        "void",
        "if",
        "else",
        "for",
        "while",
        "break",
        "continue",
        "return",
        "true",
        "false",
        "__kernel",
        "__global",
        "__local",
        "__constant",
        "__private",
        "barrier",
    }
)

# Longest first so the scanner is greedy.
OPERATORS = (
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "++",
    "--",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "~",
    "&",
    "|",
    "^",
    "?",
    ":",
    ";",
    ",",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
)

#: (width, operators of that width), widest first: a lookup per width
#: finds the longest operator at a position, as scanning OPERATORS does.
_OPERATORS_BY_WIDTH = tuple(
    (width, frozenset(op for op in OPERATORS if len(op) == width))
    for width in sorted({len(op) for op in OPERATORS}, reverse=True)
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'id', 'int', 'float', 'kw', 'op', 'eof'
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


@dataclass(frozen=True)
class Directive:
    """A ``#...`` line with the source line it occupies."""

    text: str
    line: int


class Lexer:
    """Single-pass scanner producing a token list plus directives."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens: list[Token] = []
        self.directives: list[Directive] = []
        self._scan()

    def _scan(self) -> None:
        src = self.source
        i = 0
        line = 1
        line_start = 0
        n = len(src)
        while i < n:
            ch = src[i]
            if ch == "\n":
                line += 1
                i += 1
                line_start = i
                continue
            if ch in " \t\r":
                i += 1
                continue
            col = i - line_start + 1
            if ch == "#":
                end = src.find("\n", i)
                if end == -1:
                    end = n
                self.directives.append(Directive(src[i:end].strip(), line))
                i = end
                continue
            if src.startswith("//", i):
                end = src.find("\n", i)
                i = n if end == -1 else end
                continue
            if src.startswith("/*", i):
                end = src.find("*/", i + 2)
                if end == -1:
                    raise LexError("unterminated block comment", line, col)
                line += src.count("\n", i, end)
                i = end + 2
                # line_start is stale after multi-line comments; recompute.
                nl = src.rfind("\n", 0, i)
                line_start = nl + 1 if nl != -1 else 0
                continue
            if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
                i = self._number(i, line, col)
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                word = src[i:j]
                kind = "kw" if word in KEYWORDS else "id"
                self.tokens.append(Token(kind, word, line, col))
                i = j
                continue
            for width, ops in _OPERATORS_BY_WIDTH:
                op = src[i:i + width]
                if op in ops:
                    self.tokens.append(Token("op", op, line, col))
                    i += width
                    break
            else:
                raise LexError(f"unexpected character {ch!r}", line, col)
        self.tokens.append(Token("eof", "", line, 1))

    def _number(self, i: int, line: int, col: int) -> int:
        src = self.source
        n = len(src)
        j = i
        is_float = False
        while j < n and src[j].isdigit():
            j += 1
        if j < n and src[j] == ".":
            is_float = True
            j += 1
            while j < n and src[j].isdigit():
                j += 1
        if j < n and src[j] in "eE":
            k = j + 1
            if k < n and src[k] in "+-":
                k += 1
            if k < n and src[k].isdigit():
                is_float = True
                j = k
                while j < n and src[j].isdigit():
                    j += 1
        if j < n and src[j] in "fF":
            is_float = True
            text = src[i:j]
            j += 1
        else:
            text = src[i:j]
        kind = "float" if is_float else "int"
        self.tokens.append(Token(kind, text, line, col))
        return j


def tokenize(source: str) -> list[Token]:
    """Tokenise *source*, discarding directives."""
    return Lexer(source).tokens
