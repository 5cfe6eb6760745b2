"""Token-level hook insertion for C-like source text.

Inserts a hook marker before each statement inside function bodies so
that an external scheduler gets control at every statement boundary.
The transformation is deliberately naive: it tracks string and character
literals, comments, brace depth, and parenthesis depth, and nothing
else.  No AST is built.  Imperfect placement (an occasional redundant
hook) only adds overhead; placements that would break compilation are
avoided with small token filters:

* nothing is inserted at top level (between declarations),
* nothing is inserted inside literals, comments, or ``(...)`` groups
  (which also keeps ``for(;;)`` headers clean),
* statements starting with a declaration keyword (``int x;``) are left
  alone, as are ``else``/``while`` continuations after a ``}``,
* the runtime's own ``done()`` terminator is never hooked, and with
  ``skip_redundant`` a statement already covered by a hook is skipped.

The text is read as the tokens of ``_TOKEN`` below, in one pass.  Input
bytes are preserved, line endings included, except for the inserted
tokens and one space after each.  Unbalanced braces abort the run: the
tool refuses rather than guessing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["InstrumentError", "InstrumentOptions", "instrument", "strip"]

_DECL_KEYWORDS = frozenset(
    {
        "auto", "char", "const", "double", "enum", "extern", "float", "inline",
        "int", "long", "register", "short", "signed", "static", "struct",
        "typedef", "union", "unsigned", "void", "volatile",
    }
)

_CONTINUATIONS = frozenset({"else", "while"})  # after a closing brace

_RUNTIME_TERMINATOR = "done"

# The token grammar, matched left to right, each token whole:
#
# * a whitespace run, ``[ \t\r\n]+``;
# * an inert run: one or more comments or literals back to back, copied
#   verbatim.  ``//`` runs to the next ``\n``; ``/*`` runs to ``*/`` or
#   the end of input (``/*/`` does not close).  A ``"`` or ``'`` literal
#   ends at its own quote, before a ``\n``, or at the end of input, and a
#   backslash in it takes the next character, whatever it is;
# * a word, ``\w+`` (letters, digits and ``_``; an identifier is a word
#   minus any leading ``str.isdigit`` characters, which are punctuation);
# * any other single character.
_INERT = r"""(?://[^\n]*|/\*(?:.*?\*/|.*)|"(?:[^"\\\n]|\\.?)*"?|'(?:[^'\\\n]|\\.?)*'?)+"""
_TOKEN = re.compile(rf"[ \t\r\n]+|({_INERT})|(\w+)|(.)", re.S)
_KIND_INERT, _KIND_WORD = 1, 2


class InstrumentError(Exception):
    """Input the tool refuses to transform (unbalanced braces)."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class InstrumentOptions:
    hook_token: str = "hook();"
    skip_redundant: bool = False

    def __post_init__(self) -> None:
        # a token that opens a brace, literal or comment, or spans lines,
        # would change the code it is inserted into and not strip back
        token = self.hook_token
        if not (token[:1].isalpha() or token[:1] == "_") or any(
            ch in token for ch in '{}"\'/\n\r'
        ):
            raise ValueError(
                f"hook token {token!r} must start with a letter or '_' and contain"
                " no braces, quotes, '/' or line breaks"
            )


def _hook_name(token: str) -> str:
    """Leading identifier of the hook token (``hook();`` -> ``hook``)."""
    return re.match(r"\w*", token).group()


def _position(source: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``; a ``\\r`` counts as a column."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def instrument(source: str, opts: InstrumentOptions | None = None) -> str:
    """Insert the hook token before statements inside brace bodies."""
    opts = opts or InstrumentOptions()
    hook = opts.hook_token + " "
    hook_name = _hook_name(opts.hook_token)
    skip_redundant = opts.skip_redundant

    out: list[str] = []
    copied = 0  # source[:copied] is already in out
    depth = 0  # braces outside parentheses: the bodies hooks go into
    pdepth = 0
    balance = 0  # every brace outside inert text, for the refusal check
    armed = False  # the next token may start a hookable statement
    armed_by_close = False
    armed_after_hook = False
    stmt_first_word: str | None = None

    for match in _TOKEN.finditer(source):
        kind = match.lastindex
        if kind is None:
            continue
        text = match.group(kind)
        if kind == _KIND_WORD:
            if text[0].isdigit():  # leading digits are punctuation
                armed = False
                if text.isdigit():
                    continue
                k = 1
                while text[k].isdigit():
                    k += 1
                text = text[k:]
            if stmt_first_word is None:
                stmt_first_word = text
            if not armed:
                continue
            armed = False
            if (
                (skip_redundant and (armed_after_hook or text == hook_name))
                or (armed_by_close and text in _CONTINUATIONS)
                or text in _DECL_KEYWORDS
                or text == _RUNTIME_TERMINATOR
            ):
                continue
            at = match.end() - len(text)
            out.append(source[copied:at])
            out.append(hook)
            copied = at
        elif kind == _KIND_INERT:
            if text[0] in "\"'":
                armed = False  # a literal is not a hookable statement start
        else:
            armed = False
            if text == "(":
                pdepth += 1
            elif text == ")":
                if pdepth:
                    pdepth -= 1
            elif text == "{":
                balance += 1
                if not pdepth:
                    depth += 1
                    if depth >= 1:
                        armed, armed_by_close, armed_after_hook = True, False, False
                        stmt_first_word = None
            elif text == "}":
                balance -= 1
                if balance < 0:
                    raise InstrumentError("unbalanced '}'", *_position(source, match.start()))
                if not pdepth:
                    depth -= 1
                    if depth >= 1:
                        armed, armed_by_close, armed_after_hook = True, True, False
                        stmt_first_word = None
            elif text == ";" and not pdepth and depth >= 1:
                armed, armed_by_close = True, False
                armed_after_hook = stmt_first_word == hook_name
                stmt_first_word = None
    if balance:
        raise InstrumentError(f"{balance} unclosed '{{'", *_position(source, len(source)))
    out.append(source[copied:])
    return "".join(out)


def strip(source: str, opts: InstrumentOptions | None = None) -> str:
    """Remove standalone hook tokens outside literals and comments."""
    opts = opts or InstrumentOptions()
    pattern = re.compile(f"{_INERT}|{re.escape(opts.hook_token)} ?", re.S)
    out: list[str] = []
    pos = 0
    while match := pattern.search(source, pos):
        start = match.start()
        if start > pos:
            out.append(source[pos:start])
        if source[start] in "/\"'":
            out.append(match.group())
            pos = match.end()
            continue
        # the token starts with an identifier character, so it must not
        # continue the identifier last written (``myhook();``)
        prev = out[-1][-1] if out else ""
        if prev.isalnum() or prev == "_":
            out.append(source[start])
            pos = start + 1
        else:
            pos = match.end()
    out.append(source[pos:])
    return "".join(out)
