"""Tokeniser for Ensemble source text.

Comments: ``//`` to end of line and ``/* ... */`` blocks.
String literals use double quotes with ``\\n``/``\\t``/``\\"`` escapes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import LexError

KEYWORDS = frozenset(
    {
        "type",
        "is",
        "struct",
        "interface",
        "opencl",
        "stage",
        "actor",
        "presents",
        "constructor",
        "behaviour",
        "boot",
        "function",
        "in",
        "out",
        "mov",
        "send",
        "on",
        "receive",
        "from",
        "connect",
        "to",
        "if",
        "then",
        "else",
        "for",
        "do",
        "while",
        "stop",
        "return",
        "new",
        "of",
        "local",
        "global",
        "private",
        "constant",
        "and",
        "or",
        "not",
        "true",
        "false",
        "integer",
        "real",
        "boolean",
        "string",
    }
)

OPERATORS = (
    ":=",
    ":",
    "..",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    ";",
    ",",
    ".",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
)

#: (width, operators of that width), widest first: a lookup per width
#: finds the longest operator at a position, as scanning OPERATORS does
#: (every operator precedes its own prefixes there).
_OPERATORS_BY_WIDTH = tuple(
    (width, frozenset(op for op in OPERATORS if len(op) == width))
    for width in sorted({len(op) for op in OPERATORS}, reverse=True)
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


@dataclass(frozen=True)
class Token:
    kind: str  # 'id', 'kw', 'int', 'real', 'string', 'op', 'eof'
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        col = i - line_start + 1
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end == -1 else end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise LexError("unterminated block comment", line, col)
            line += source.count("\n", i, end)
            i = end + 2
            nl = source.rfind("\n", 0, i)
            line_start = nl + 1 if nl != -1 else 0
            continue
        if ch == '"':
            j = i + 1
            out: list[str] = []
            while j < n and source[j] != '"':
                if source[j] == "\\":
                    j += 1
                    if j >= n:
                        break
                    out.append(_ESCAPES.get(source[j], source[j]))
                elif source[j] == "\n":
                    raise LexError("newline in string literal", line, col)
                else:
                    out.append(source[j])
                j += 1
            if j >= n:
                raise LexError("unterminated string literal", line, col)
            tokens.append(Token("string", "".join(out), line, col))
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            # Careful: `0 .. 9` uses '..' — only a real if a single '.'
            # is followed by a digit.
            if (
                j < n
                and source[j] == "."
                and j + 1 < n
                and source[j + 1].isdigit()
            ):
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
                if j < n and source[j] in "eE":
                    k = j + 1
                    if k < n and source[k] in "+-":
                        k += 1
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
                tokens.append(Token("real", source[i:j], line, col))
            else:
                tokens.append(Token("int", source[i:j], line, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "kw" if word in KEYWORDS else "id"
            tokens.append(Token(kind, word, line, col))
            i = j
            continue
        for width, ops in _OPERATORS_BY_WIDTH:
            op = source[i:i + width]
            if op in ops:
                tokens.append(Token("op", op, line, col))
                i += width
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, 1))
    return tokens
