"""Reference lexer used to cross-check ``paircheck.toylang._lex``.

The character-by-character loop the toy-language lexer was first written
with: one ``advance`` call per character, line and column updated on
every character, and each token stored with its line and column.  It is
slow and plain, which is what a reference needs; the differential test in
``test_toylang.py`` requires the module's token-pattern pass to give the
same tokens, and the same error message and position, on every input.
The one difference is where this loop lets ``int()`` raise ``ValueError``
(a run of ``str.isdigit`` characters that are not all decimal, or a
literal over the interpreter's digit limit): there the module raises
``ParseError``.
"""

from __future__ import annotations

from dataclasses import dataclass

from paircheck.toylang import ParseError

@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "int", "string", "punct", "eof"
    value: str | int
    line: int
    col: int


_PUNCT = frozenset("{}();=+-*")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def _lex(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(source)

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                advance()
            continue
        start_line, start_col = line, col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            advance(j - i)
            tokens.append(_Token("ident", word, start_line, start_col))
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(_Token("int", int(source[i:j]), start_line, start_col))
            advance(j - i)
            continue
        if ch == '"':
            advance()
            chars: list[str] = []
            while True:
                if i >= n or source[i] == "\n":
                    raise ParseError("unterminated string literal", start_line, start_col)
                c = source[i]
                if c == '"':
                    advance()
                    break
                if c == "\\":
                    advance()
                    if i >= n:
                        raise ParseError("unterminated string literal", start_line, start_col)
                    esc = source[i]
                    if esc not in _ESCAPES:
                        raise ParseError(f"bad escape \\{esc}", line, col)
                    chars.append(_ESCAPES[esc])
                    advance()
                else:
                    chars.append(c)
                    advance()
            tokens.append(_Token("string", "".join(chars), start_line, start_col))
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, start_line, start_col))
            advance()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens
