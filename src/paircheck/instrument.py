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

The text is read in one pass as the tokens of the grammar below, and
Python work is spent only where the state can change.  While a statement
start is armed, or the statement's first word is still unknown, one
regex match skips whitespace, comments and literals and stops at the
next word or other character.  Otherwise one match skips to the next
brace, parenthesis or ``;`` outside comments and literals.  ``strip``
skips in one match to the next hook token outside comments and literals.
Input bytes are preserved, line endings included, except for the
inserted tokens and one space after each.  Unbalanced braces abort the
run: the tool refuses rather than guessing.
"""

from __future__ import annotations

import re

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
#
# ``_NEXT`` and ``_TO_PUNCT`` each skip, in one match, the tokens that
# cannot change the state they are used in (see the module docstring),
# then read the token they stop at into the named group ``word`` or
# ``other``; neither matches only at the end of input.  A skip has no
# required suffix, so the regex engine never backtracks into a literal or
# comment to make a later part match.  In ``_NEXT`` group 1 matches if a
# skipped inert run opens with a quote: a literal is not a hookable
# statement start, so it disarms.
_INERT = r"""(?://[^\n]*|/\*(?:.*?\*/|.*)|"(?:[^"\\\n]|\\.?)*"?|'(?:[^'\\\n]|\\.?)*'?)+"""
_NEXT = re.compile(
    rf"(?:[ \t\r\n]+|(?:(?=[\"'])())?{_INERT})*(?:(?P<word>\w+)|(?P<other>.))?", re.S
)
_TO_PUNCT = re.compile(rf"(?:[^(){{}};\"'/]+|{_INERT}|/)*(?P<other>[(){{}};])?", re.S)


class InstrumentError(Exception):
    """Input the tool refuses to transform (unbalanced braces)."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class InstrumentOptions:
    """The hook token to insert, and whether to skip already-hooked statements.

    A plain slotted class whose ``__init__`` validates the token, and frozen
    as ``state.Record`` is, which this module does not load: setting or
    deleting a field raises ``AttributeError``.
    """

    __slots__ = ("hook_token", "skip_redundant")

    def __init__(self, hook_token: str = "hook();", skip_redundant: bool = False):
        # a token that opens a brace, literal or comment, or spans lines,
        # would change the code it is inserted into and not strip back
        if not (hook_token[:1].isalpha() or hook_token[:1] == "_") or any(
            ch in hook_token for ch in '{}"\'/\n\r'
        ):
            raise ValueError(
                f"hook token {hook_token!r} must start with a letter or '_' and contain"
                " no braces, quotes, '/' or line breaks"
            )
        object.__setattr__(self, "hook_token", hook_token)
        object.__setattr__(self, "skip_redundant", skip_redundant)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"InstrumentOptions is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


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

    pos = 0
    while True:
        if armed or stmt_first_word is None:
            match = _NEXT.match(source, pos)
            if match.start(1) >= 0:
                armed = False  # a literal is not a hookable statement start
        else:
            match = _TO_PUNCT.match(source, pos)
        kind = match.lastgroup
        if kind is None:
            break
        pos = match.end()
        text = match.group(kind)
        if kind == "word":
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
                    raise InstrumentError("unbalanced '}'", *_position(source, pos - 1))
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
    token = opts.hook_token
    first = re.escape(token[0])
    # skip to the next hook token outside inert runs: any other text, an
    # inert run, a lone '/', or the token's first character not followed by
    # the rest of it
    pattern = re.compile(
        rf"(?:[^{first}\"'/]+|{_INERT}|/|{first}(?!{re.escape(token[1:])}))*"
        rf"({re.escape(token)} ?)?",
        re.S,
    )
    out: list[str] = []
    pos = 0
    while True:
        match = pattern.match(source, pos)
        start = match.start(1)
        if start < 0:
            break
        if start > pos:
            out.append(source[pos:start])
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
