"""Reference hook inserter used to cross-check ``paircheck.instrument``.

The character-by-character scanner the instrumenter was first written
with: one method call per character peeked or taken, line and column
updated on every character, and a separate pass that checks brace
balance before any hook is placed.  It is slow and plain, which is what
a reference needs; the differential test in ``test_instrument.py``
requires the module's token-pattern pass to give the same bytes, and the
same error message and position, on every input.
"""

from __future__ import annotations

from paircheck.instrument import InstrumentError, InstrumentOptions

_DECL_KEYWORDS = frozenset(
    {
        "auto", "char", "const", "double", "enum", "extern", "float", "inline",
        "int", "long", "register", "short", "signed", "static", "struct",
        "typedef", "union", "unsigned", "void", "volatile",
    }
)

_CONTINUATIONS = frozenset({"else", "while"})  # after a closing brace

_RUNTIME_TERMINATOR = "done"


def _hook_name(token: str) -> str:
    """Leading identifier of the hook token (``hook();`` -> ``hook``)."""
    end = 0
    while end < len(token) and (token[end].isalnum() or token[end] == "_"):
        end += 1
    return token[:end]


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


class _Scanner:
    """Walks C-like text, reporting events only outside literals/comments."""

    def __init__(self, source: str):
        self.src = source
        self.i = 0
        self.line = 1
        self.col = 1

    def eof(self) -> bool:
        return self.i >= len(self.src)

    def peek(self, offset: int = 0) -> str:
        j = self.i + offset
        return self.src[j] if j < len(self.src) else ""

    def take(self, count: int = 1) -> str:
        start = self.i
        for _ in range(count):
            if self.i < len(self.src):
                if self.src[self.i] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.i += 1
        return self.src[start : self.i]

    def skip_inert(self, out: list[str] | None) -> None:
        """Consume comments and literals, copying them verbatim."""
        while not self.eof():
            ch = self.peek()
            if ch == "/" and self.peek(1) == "/":
                while not self.eof() and self.peek() != "\n":
                    _append(out, self.take())
            elif ch == "/" and self.peek(1) == "*":
                _append(out, self.take(2))
                while not self.eof() and not (self.peek() == "*" and self.peek(1) == "/"):
                    _append(out, self.take())
                _append(out, self.take(2))
            elif ch in ('"', "'"):
                quote = ch
                _append(out, self.take())
                while not self.eof() and self.peek() not in (quote, "\n"):
                    if self.peek() == "\\":
                        _append(out, self.take())
                    _append(out, self.take())
                if self.peek() == quote:
                    _append(out, self.take())
            else:
                return


def _append(out: list[str] | None, text: str) -> None:
    if out is not None and text:
        out.append(text)


def _check_braces(source: str) -> None:
    scanner = _Scanner(source)
    depth = 0
    while not scanner.eof():
        scanner.skip_inert(None)
        if scanner.eof():
            break
        line, col = scanner.line, scanner.col
        ch = scanner.take()
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise InstrumentError("unbalanced '}'", line, col)
    if depth != 0:
        raise InstrumentError(f"{depth} unclosed '{{'", scanner.line, scanner.col)


def instrument(source: str, opts: InstrumentOptions | None = None) -> str:
    """Insert the hook token before statements inside brace bodies."""
    opts = opts or InstrumentOptions()
    _check_braces(source)
    hook_name = _hook_name(opts.hook_token)

    scanner = _Scanner(source)
    out: list[str] = []
    depth = 0
    pdepth = 0
    armed = False
    armed_by_close = False
    armed_after_hook = False
    stmt_first_ident: str | None = None

    def arm(by_close: bool, after_hook: bool = False) -> None:
        nonlocal armed, armed_by_close, armed_after_hook, stmt_first_ident
        armed = True
        armed_by_close = by_close
        armed_after_hook = after_hook
        stmt_first_ident = None

    def disarm() -> None:
        nonlocal armed
        armed = False

    def resolve(word: str | None) -> None:
        """Decide whether the armed insertion lands before this token."""
        nonlocal armed
        if not armed:
            return
        armed = False
        if word is None:
            return
        if opts.skip_redundant and armed_after_hook:
            return
        if armed_by_close and word in _CONTINUATIONS:
            return
        if word in _DECL_KEYWORDS:
            return
        if word == _RUNTIME_TERMINATOR:
            return
        if opts.skip_redundant and word == hook_name:
            return
        out.append(opts.hook_token + " ")

    while not scanner.eof():
        ch = scanner.peek()
        if ch in " \t\r\n":
            out.append(scanner.take())
            continue
        if (ch == "/" and scanner.peek(1) in ("/", "*")) or ch in ('"', "'"):
            if ch in ('"', "'"):
                resolve(None)  # a literal is not a hookable statement start
            scanner.skip_inert(out)
            continue
        if _is_ident_char(ch) and not ch.isdigit():
            word_chars = []
            while not scanner.eof() and _is_ident_char(scanner.peek()):
                word_chars.append(scanner.take())
            word = "".join(word_chars)
            resolve(word)
            if stmt_first_ident is None:
                stmt_first_ident = word
            out.append(word)
            continue
        # punctuation and anything else
        resolve(None)
        if ch == "(":
            pdepth += 1
        elif ch == ")":
            pdepth = max(0, pdepth - 1)
        elif pdepth == 0:
            if ch == "{":
                depth += 1
                out.append(scanner.take())
                if depth >= 1:
                    arm(by_close=False)
                continue
            if ch == "}":
                depth -= 1
                out.append(scanner.take())
                if depth >= 1:
                    arm(by_close=True)
                else:
                    disarm()
                continue
            if ch == ";" and depth >= 1:
                was_hook = stmt_first_ident is not None and stmt_first_ident == hook_name
                out.append(scanner.take())
                arm(by_close=False, after_hook=was_hook)
                continue
        out.append(scanner.take())
    return "".join(out)


def strip(source: str, opts: InstrumentOptions | None = None) -> str:
    """Remove standalone hook tokens outside literals and comments."""
    opts = opts or InstrumentOptions()
    token = opts.hook_token
    scanner = _Scanner(source)
    out: list[str] = []
    while not scanner.eof():
        scanner.skip_inert(out)
        if scanner.eof():
            break
        if scanner.src.startswith(token, scanner.i):
            # the token starts with an identifier character, so it must not
            # continue an identifier (``myhook();``)
            prev = out[-1][-1] if out and out[-1] else ""
            if not _is_ident_char(prev):
                scanner.take(len(token))
                if scanner.peek() == " ":
                    scanner.take()
                continue
        out.append(scanner.take())
    return "".join(out)
