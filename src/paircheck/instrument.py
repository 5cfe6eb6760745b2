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
brace, parenthesis or ``;`` outside comments and literals, passing over
whole parenthesis groups that hold no brace and nest at most one level
deep (their ``;`` cannot arm and their depth nets to zero); a ``;``,
``{`` or ``}`` it stops at also takes the whitespace, comments and word
after it, if a word follows.  ``strip`` skips in one match to the next
hook token outside comments and literals.  Each direction yields its
output as pieces, source slices and hook tokens, which ``instrument``
and ``strip`` join and the command line writes in blocks.
Input bytes are preserved, line endings included, except for the
inserted tokens and one space after each.  Unbalanced braces abort the
run with an :class:`InstrumentError` at their line and column: the tool
refuses rather than guessing.

:class:`InstrumentOptions` is a frozen record, and :class:`InstrumentError`
the located error, both on the package root's bases; the module loads
nothing else of the package.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from . import Record, _LocatedError, _position, _require

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
# ``other``; only at the end of input does neither group match.  After a
# ``;``, ``{`` or ``}``, ``_TO_PUNCT`` also reads the next word into
# ``word`` if only whitespace and comments come before it: all or
# nothing, so a literal still reaches ``_NEXT`` and disarms.  A skip has
# no required suffix, so the regex engine never backtracks into a literal
# or comment to make a later part match.  The parenthesis group
# (``_GROUP``) and the word after a ``;`` or brace (``_WORD_AFTER``) do
# have one, a ``)`` or a word, so each reads its inner tokens once inside
# a lookahead and matches the capture again, ``(?=(?P<g>...))(?P=g)``:
# the lookahead is atomic, which Python 3.10's ``re`` has no other way to
# write.  In ``_NEXT`` group 1 matches if a skipped inert run opens with
# a quote: a literal is not a hookable statement start, so it disarms.
_INERT = r"""(?://[^\n]*|/\*(?:.*?\*/|.*)|"(?:[^"\\\n]|\\.?)*"?|'(?:[^'\\\n]|\\.?)*'?)+"""
_NEXT = re.compile(
    rf"(?:[ \t\r\n]+|(?:(?=[\"'])())?{_INERT})*(?:(?P<word>\w+)|(?P<other>.))?", re.S
)
_FLAT = rf"[^(){{}}\"'/]+|{_INERT}|/"  # a token in a parenthesis group: no brace or parenthesis
_GROUP = rf"\((?=(?P<g>(?:{_FLAT}|\((?=(?P<h>(?:{_FLAT})*))(?P=h)\))*))(?P=g)\)"
_WORD_AFTER = r"(?<=[;{}])(?=(?P<w>(?:[ \t\r\n]+|//[^\n]*|/\*(?:.*?\*/|.*))*))(?P=w)(?P<word>\w+)"
_TO_PUNCT = re.compile(
    rf"(?:[^(){{}};\"'/]+|{_INERT}|/|{_GROUP})*(?:(?P<other>[(){{}};])(?:{_WORD_AFTER})?)?", re.S
)


class InstrumentError(_LocatedError):
    """Input the tool refuses to transform (unbalanced braces)."""


class InstrumentOptions(Record):
    """The hook token to insert, and whether to skip already-hooked statements.

    A record whose ``__init__`` gives both fields defaults and validates
    them; like every record it is frozen and compares, hashes and shows
    field-wise.
    """

    __slots__ = __match_args__ = ("hook_token", "skip_redundant")

    def __init__(self, hook_token: str = "hook();", skip_redundant: bool = False):
        _require("hook_token", hook_token, str)
        _require("skip_redundant", skip_redundant, bool)
        # a token that opens a brace, literal or comment, or spans lines,
        # would change the code it is inserted into and not strip back
        if not (hook_token[:1].isalpha() or hook_token[:1] == "_") or any(
            ch in hook_token for ch in '{}"\'/\n\r'
        ):
            raise ValueError(
                f"hook token {hook_token!r} must start with a letter or '_' and contain"
                " no braces, quotes, '/' or line breaks"
            )
        super().__init__(hook_token, skip_redundant)


def _hook_name(token: str) -> str:
    """Leading identifier of the hook token (``hook();`` -> ``hook``)."""
    return re.match(r"\w*", token).group()


def instrument(source: str, opts: InstrumentOptions | None = None) -> str:
    """Insert the hook token before statements inside brace bodies."""
    return "".join(_instrument_pieces(source, opts or InstrumentOptions()))


def strip(source: str, opts: InstrumentOptions | None = None) -> str:
    """Remove standalone hook tokens outside literals and comments."""
    return "".join(_strip_pieces(source, opts or InstrumentOptions()))


def _instrument_pieces(source: str, opts: InstrumentOptions) -> Iterator[str]:
    """The output of :func:`instrument` as source slices and hook tokens, in order."""
    hook = opts.hook_token + " "
    hook_name = _hook_name(opts.hook_token)
    skip_redundant = opts.skip_redundant

    copied = 0  # source[:copied] is already yielded
    depth = 0  # braces outside parentheses: the bodies hooks go into
    pdepth = 0
    balance = 0  # every brace outside inert text, for the refusal check
    # what armed the next token to start a hookable statement: "{", "}",
    # ";", "hook" (a ";" that ended a hook statement), or None if nothing
    armed: str | None = None
    stmt_first_word: str | None = None

    pos = 0
    while True:
        if armed or stmt_first_word is None:
            match = _NEXT.match(source, pos)
            if match.start(1) >= 0:
                armed = None  # a literal is not a hookable statement start
        else:
            match = _TO_PUNCT.match(source, pos)
        pos = match.end()
        other, text = match.group("other", "word")
        if other is not None:
            armed = None
            if other == "(":
                pdepth += 1
            elif other == ")":
                if pdepth:
                    pdepth -= 1
            elif other == "{" or other == "}":
                change = 1 if other == "{" else -1
                balance += change
                if balance < 0:
                    at = match.start("other")
                    raise InstrumentError("unbalanced '}'", *_position(source, at))
                if not pdepth:
                    depth += change
                    if depth >= 1:
                        armed, stmt_first_word = other, None
            elif other == ";" and not pdepth and depth >= 1:
                armed = "hook" if stmt_first_word == hook_name else ";"
                stmt_first_word = None
            if text is None:
                continue
        elif text is None:
            break
        if text[0].isdigit():  # leading digits are punctuation
            armed = None
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
        if not (
            (skip_redundant and (armed == "hook" or text == hook_name))
            or (armed == "}" and text in _CONTINUATIONS)
            or text in _DECL_KEYWORDS
            or text == _RUNTIME_TERMINATOR
        ):
            at = pos - len(text)
            yield source[copied:at]
            yield hook
            copied = at
        armed = None
    if balance:
        raise InstrumentError(f"{balance} unclosed '{{'", *_position(source, len(source)))
    yield source[copied:]


def _strip_pieces(source: str, opts: InstrumentOptions) -> Iterator[str]:
    """The output of :func:`strip` as source slices, in order."""
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
    pos = 0
    last = ""  # the last character yielded
    while True:
        match = pattern.match(source, pos)
        start = match.start(1)
        if start < 0:
            break
        if start > pos:
            yield source[pos:start]
            last = source[start - 1]
        # the token starts with an identifier character, so it must not
        # continue the identifier last written (``myhook();``)
        if last.isalnum() or last == "_":
            last = source[start]
            yield last
            pos = start + 1
        else:
            pos = match.end()
    yield source[pos:]
