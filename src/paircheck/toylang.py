"""Syntax of the two-thread toy language: AST, lexer and parser.

Programs are a pair of straight-line statement lists over shared
variables, an append-only output string, and a bank of semaphores.
``repeat`` loops are unrolled at parse time so that every statement in a
:class:`ThreadProgram` is one atomic execution step, which keeps a
thread's execution counter a plain statement index.

Grammar (UTF-8 text, ``#`` line comments)::

    program   := decls? "thread0" block "thread1" block
    decls     := ("var" IDENT ("=" INT)? ";")* ("semaphores" INT ";")?
    block     := "{" stmt* "}"
    stmt      := IDENT "=" expr ";" | "emit" STRING ";"
               | "up" "(" INT ")" ";" | "down" "(" INT ")" ";"
               | "repeat" INT block
    expr      := term (("+"|"-") term)*
    term      := factor ("*" factor)*
    factor    := INT | IDENT | "(" expr ")"

Defaults: zero semaphores; declared variables start at 0.  ``repeat``
blocks, parentheses, and the operator tree of one expression may each nest
at most :data:`MAX_NESTING` levels deep.

This module only describes programs; running them is the engine's job.
The nodes and programs are frozen slotted records (the package root's
``Record``), and :class:`ParseError` is the root's located error.
Building a :class:`ProgramPair` hands it to ``engine.compile_program``,
which checks it as the parser does, the types of its leaves and its
size limits included, and compiles its expressions and statements for
stepping.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import Record, _LocatedError, _position, _set
from .state import _thread_index, wrap64

__all__ = [
    "Assign",
    "BinOp",
    "Emit",
    "Expr",
    "IntLit",
    "ParseError",
    "ProgramPair",
    "SemDown",
    "SemUp",
    "Statement",
    "ThreadProgram",
    "Var",
    "parse",
]

UNROLL_LIMIT = 1024  # most statements a thread unrolls to, and most semaphores

# Deepest nesting the parser accepts, separately for ``repeat`` blocks,
# parentheses, and the operator tree of one expression.  It keeps parsing,
# and the engine's compiling and evaluating of expressions, well inside the
# interpreter's default recursion limit.
MAX_NESTING = 100

_KEYWORDS = frozenset(
    {"thread0", "thread1", "var", "semaphores", "emit", "up", "down", "repeat"}
)

# How tightly each binary operator binds; a higher number binds tighter.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class IntLit(Record):
    __slots__ = __match_args__ = ("value",)


class Var(Record):
    __slots__ = __match_args__ = ("name",)


class BinOp(Record):
    __slots__ = __match_args__ = ("op", "left", "right")  # op is one of "+", "-", "*"


Expr = IntLit | Var | BinOp


class Assign(Record):
    __slots__ = __match_args__ = ("target", "expr")


class Emit(Record):
    __slots__ = __match_args__ = ("text",)  # 1+ characters, appended atomically


class SemUp(Record):
    __slots__ = __match_args__ = ("index",)


class SemDown(Record):
    __slots__ = __match_args__ = ("index",)


Statement = Assign | Emit | SemUp | SemDown


class ThreadProgram(Record):
    __slots__ = __match_args__ = ("statements",)


class ProgramPair(Record):
    __match_args__ = ("thread0", "thread1", "num_semaphores", "variables")
    # Derived once per program and left out of ==, hash and repr: the variable
    # names in sorted order (slot k holds names[k]), and the program compiled
    # for the engine, which checks it as the parser does (ValueError if not).
    __slots__ = (*__match_args__, "names", "compiled")

    def __init__(self, thread0: ThreadProgram, thread1: ThreadProgram, num_semaphores: int,
                 variables: tuple[tuple[str, int], ...]):  # (name, initial value) in order
        from .engine import compile_program  # the engine imports this module

        super().__init__(thread0, thread1, num_semaphores, variables)
        _set(self, "names", tuple(sorted(name for name, _ in variables)))
        _set(self, "compiled", compile_program(self))

    def thread(self, tid: int) -> ThreadProgram:
        return (self.thread0, self.thread1)[_thread_index(tid)]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


class ParseError(_LocatedError):
    """Syntax or semantic error, with 1-based source position."""


class _Token(NamedTuple):
    kind: str  # "ident", "int", "string", "punct", "eof"
    value: str | int
    offset: int  # of the token's first character in the source


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_ESCAPE = re.compile(r'\\([ntr"\\])')

# One token per match: a skipped whitespace run or comment, an int, a word,
# a string (up to its closing quote, or else to the first line break, bad
# escape or the end of input), a punctuation character or any other one.
_TOKEN = re.compile(
    r'[ \t\r\n]+|#[^\n]*|(?P<int>\d+)|(?P<word>[^\W\d]\w*)'
    r'|"(?P<text>(?:[^"\\\n]|\\[ntr"\\])*)(?P<string>"?)|(?P<punct>[{}();=+\-*])|(?P<other>.)'
)


def _lex(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(source):
        kind, start = match.lastgroup, match.start()
        if kind == "word" and (source[start].isalpha() or source[start] == "_"):
            tokens.append(_Token("ident", match[kind], start))
        elif kind == "int":
            digits = match[kind]
            try:
                tokens.append(_Token("int", int(digits), start))
            except ValueError:  # more digits than the interpreter converts
                message = f"integer literal too long ({len(digits)} digits)"
                raise ParseError(message, *_position(source, start)) from None
        elif kind == "string":
            if not match[kind]:
                end = match.end()
                if source.startswith("\\", end) and end + 1 < len(source):
                    raise ParseError(f"bad escape \\{source[end + 1]}", *_position(source, end + 1))
                raise ParseError("unterminated string literal", *_position(source, start))
            text = _ESCAPE.sub(lambda escape: _ESCAPES[escape[1]], match["text"])
            tokens.append(_Token("string", text, start))
        elif kind == "punct":
            tokens.append(_Token("punct", match[kind], start))
        elif kind is not None:  # any other character, or a word not starting with a letter or _
            raise ParseError(f"unexpected character {source[start]!r}", *_position(source, start))
    tokens.append(_Token("eof", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _lex(source)
        self.pos = 0
        self.variables: dict[str, int] = {}
        self.num_semaphores = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def error(self, message: str, tok: _Token | None = None) -> ParseError:
        return ParseError(message, *_position(self.source, (tok or self.cur).offset))

    def advance(self) -> _Token:
        tok = self.cur
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect_punct(self, ch: str) -> _Token:
        if self.cur.kind != "punct" or self.cur.value != ch:
            raise self.error(f"expected {ch!r}, found {self._describe(self.cur)}")
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        return self.cur.kind == "ident" and self.cur.value == word

    @staticmethod
    def _describe(tok: _Token) -> str:
        if tok.kind == "eof":
            return "end of input"
        return repr(tok.value)

    # --- integers with optional sign (declarations and counts only) ---

    def signed_int(self) -> int:
        sign = 1
        if self.cur.kind == "punct" and self.cur.value == "-":
            self.advance()
            sign = -1
        if self.cur.kind != "int":
            raise self.error(f"expected integer, found {self._describe(self.cur)}")
        return sign * int(self.advance().value)

    # --- top level ---

    def program(self) -> ProgramPair:
        self.decls()
        threads: list[list[Statement]] = [[], []]
        for label, statements in zip(("thread0", "thread1"), threads):
            if not self.at_keyword(label):
                raise self.error(f"expected {label!r}")
            self.advance()
            self.block_into(statements)
        if self.cur.kind != "eof":
            raise self.error(f"trailing input: {self._describe(self.cur)}")
        return ProgramPair(
            thread0=ThreadProgram(tuple(threads[0])),
            thread1=ThreadProgram(tuple(threads[1])),
            num_semaphores=self.num_semaphores,
            variables=tuple(self.variables.items()),
        )

    def decls(self) -> None:
        while self.at_keyword("var"):
            self.advance()
            tok = self.cur
            if tok.kind != "ident" or tok.value in _KEYWORDS:
                raise self.error("expected variable name after 'var'")
            name = str(self.advance().value)
            if name in self.variables:
                raise self.error(f"variable {name!r} declared twice", tok)
            init = 0
            if self.cur.kind == "punct" and self.cur.value == "=":
                self.advance()
                init = wrap64(self.signed_int())
            self.expect_punct(";")
            self.variables[name] = init
        if self.at_keyword("semaphores"):
            tok = self.advance()
            count = self.signed_int()
            if count < 0:
                raise self.error("semaphore count must be non-negative", tok)
            if count > UNROLL_LIMIT:
                raise self.error(f"semaphore count {count} over the limit of {UNROLL_LIMIT}", tok)
            self.expect_punct(";")
            self.num_semaphores = count

    def nested(self, depth: int, tok: _Token) -> int:
        if depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", tok)
        return depth

    def statement(self, out: list[Statement], depth: int) -> None:
        tok = self.cur
        if self.at_keyword("emit"):
            self.advance()
            if self.cur.kind != "string":
                raise self.error("expected string literal after 'emit'")
            text = str(self.advance().value)
            if not text:
                raise self.error("emit string must have at least one character", tok)
            self.expect_punct(";")
            out.append(Emit(text))
            return
        if self.at_keyword("up") or self.at_keyword("down"):
            word = str(self.advance().value)
            self.expect_punct("(")
            index = self.signed_int()
            self.expect_punct(")")
            self.expect_punct(";")
            if not 0 <= index < self.num_semaphores:
                raise self.error(
                    f"semaphore index {index} out of range "
                    f"(program declares {self.num_semaphores})",
                    tok,
                )
            out.append(SemUp(index) if word == "up" else SemDown(index))
            return
        if self.at_keyword("repeat"):
            self.advance()
            count = self.signed_int()
            if count < 0:
                raise self.error("repeat count must be non-negative", tok)
            body: list[Statement] = []
            self.block_into(body, self.nested(depth + 1, tok))
            size = count * len(body)
            if size > UNROLL_LIMIT:
                try:
                    unrolled = f"{size} statements"
                except ValueError:  # the product has too many digits to print
                    unrolled = f"{count} x {len(body)} statements"
                raise self.error(
                    f"repeat unrolls to {unrolled}, over the limit of {UNROLL_LIMIT}", tok
                )
            if body:  # an empty body may carry any count
                out.extend(body * count)
            return
        name = self.variable()
        if name is None:
            raise self.error(f"expected statement, found {self._describe(tok)}")
        self.expect_punct("=")
        expr, _ = self.expr(0)
        self.expect_punct(";")
        out.append(Assign(name, expr))

    def block_into(self, out: list[Statement], depth: int = 0) -> None:
        self.expect_punct("{")
        while not (self.cur.kind == "punct" and self.cur.value == "}"):
            if self.cur.kind == "eof":
                raise self.error("expected '}'")
            self.statement(out, depth)
            if len(out) > UNROLL_LIMIT:
                raise self.error(f"thread exceeds unroll limit of {UNROLL_LIMIT} statements")
        self.expect_punct("}")

    def variable(self) -> str | None:  # a declared name; None, reading nothing, at a non-name
        tok = self.cur
        if tok.kind != "ident" or tok.value in _KEYWORDS:
            return None
        name = str(self.advance().value)
        if name not in self.variables:
            raise self.error(f"undeclared variable {name!r}", tok)
        return name

    # --- expressions ---
    # Each method takes the number of enclosing parentheses and returns the
    # expression with the height of its operator tree.

    def expr(self, parens: int, precedence: int = 1) -> tuple[Expr, int]:
        # operators binding at least as tight as precedence; each right operand
        # binds tighter than its operator, so equal operators associate left
        left, height = self.factor(parens)
        while self.cur.kind == "punct" and _PRECEDENCE.get(self.cur.value, 0) >= precedence:
            tok = self.advance()
            right, right_height = self.expr(parens, _PRECEDENCE[tok.value] + 1)
            left = BinOp(str(tok.value), left, right)
            height = self.nested(max(height, right_height) + 1, tok)
        return left, height

    def factor(self, parens: int) -> tuple[Expr, int]:
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.value)), 0
        if tok.kind == "punct" and tok.value == "(":
            self.advance()
            inner = self.expr(self.nested(parens + 1, tok))
            self.expect_punct(")")
            return inner
        name = self.variable()
        if name is None:
            raise self.error(f"expected expression, found {self._describe(tok)}")
        return Var(name), 0


def parse(source: str) -> ProgramPair:
    """Parse source text into a :class:`ProgramPair` with loops unrolled.

    Raises :class:`ParseError` with line/column on syntax errors,
    undeclared variables, out-of-range semaphore indices, negative repeat
    counts, unrolled thread sizes or a semaphore count over
    :data:`UNROLL_LIMIT`, and nesting deeper than :data:`MAX_NESTING`.
    """
    return _Parser(source).program()
