import pickle

import pytest
from hypothesis import given, settings, strategies as st

import lexer_oracle
from paircheck import _position
from paircheck.analysis import render
from paircheck.engine import _start, initial_interleaving, replay
from paircheck.toylang import (
    Assign,
    BinOp,
    Emit,
    IntLit,
    ParseError,
    ProgramPair,
    SemDown,
    SemUp,
    ThreadProgram,
    MAX_NESTING,
    UNROLL_LIMIT,
    Var,
    _lex,
    parse,
    wrap64,
)


def assigned_value(expr, variables: dict[str, int]) -> int:
    """What ``r = expr;`` stores, run as a one-statement program from ``variables``."""
    pair = ProgramPair(
        ThreadProgram((Assign("r", expr),)),
        ThreadProgram(()),
        0,
        (*variables.items(), ("r", 0)),
    )
    return replay(pair, "0").snapshot.variable("r")


class TestParse:
    def test_two_emitting_threads(self):
        pair = parse('thread0 { emit "a"; emit "b"; } thread1 { emit "1"; emit "2"; }')
        assert pair.thread0.statements == (Emit("a"), Emit("b"))
        assert pair.thread1.statements == (Emit("1"), Emit("2"))
        assert pair.num_semaphores == 0
        assert pair.variables == ()

    def test_empty_threads(self):
        pair = parse("thread0 { } thread1 { }")
        assert pair.thread0.statements == ()
        assert pair.thread1.statements == ()

    def test_repeat_unrolls(self):
        pair = parse('thread0 { repeat 2 { emit "x"; } } thread1 { }')
        assert pair.thread0.statements == (Emit("x"), Emit("x"))

    def test_nested_repeat_multiplies(self):
        pair = parse('thread0 { repeat 3 { repeat 2 { emit "x"; } emit "y"; } } thread1 { }')
        assert len(pair.thread0.statements) == 9
        assert pair.thread0.statements.count(Emit("x")) == 6
        assert pair.thread0.statements.count(Emit("y")) == 3

    def test_repeat_zero(self):
        pair = parse('thread0 { repeat 0 { emit "x"; } emit "y"; } thread1 { }')
        assert pair.thread0.statements == (Emit("y"),)

    def test_declarations(self):
        pair = parse("var x; var y = -7; semaphores 2; thread0 { up(1); } thread1 { down(0); }")
        assert pair.variables == (("x", 0), ("y", -7))
        assert pair.num_semaphores == 2
        assert pair.thread0.statements == (SemUp(1),)
        assert pair.thread1.statements == (SemDown(0),)

    def test_expression_precedence(self):
        pair = parse("var x; thread0 { x = 1 + 2 * 3 - 4; } thread1 { }")
        stmt = pair.thread0.statements[0]
        assert stmt == Assign(
            "x",
            BinOp("-", BinOp("+", IntLit(1), BinOp("*", IntLit(2), IntLit(3))), IntLit(4)),
        )

    def test_parenthesized_expression(self):
        pair = parse("var x; thread0 { x = (1 + 2) * 3; } thread1 { }")
        assert pair.thread0.statements[0] == Assign(
            "x", BinOp("*", BinOp("+", IntLit(1), IntLit(2)), IntLit(3))
        )

    def test_comments_ignored(self):
        pair = parse('# header\nthread0 { emit "a"; # tail\n } thread1 { }')
        assert pair.thread0.statements == (Emit("a"),)

    def test_string_escapes(self):
        pair = parse('thread0 { emit "a\\"b\\\\c\\n"; } thread1 { }')
        assert pair.thread0.statements == (Emit('a"b\\c\n'),)

    def test_deterministic(self):
        src = 'var x = 3; semaphores 1; thread0 { x = x + 1; up(0); } thread1 { emit "q"; }'
        assert parse(src) == parse(src)


class TestNestingBound:
    PREFIX = "var x; thread0 { x = "

    def parse_expr(self, expr: str):
        return parse(f"{self.PREFIX}{expr}; }} thread1 {{ }}")

    def test_parentheses_at_and_past_the_bound(self):
        depth = MAX_NESTING
        assert self.parse_expr("(" * depth + "1" + ")" * depth).thread0.statements == (
            Assign("x", IntLit(1)),
        )
        with pytest.raises(ParseError, match="nesting deeper") as exc:
            self.parse_expr("(" * (depth + 1) + "1" + ")" * (depth + 1))
        # reported at the first parenthesis past the bound
        assert (exc.value.line, exc.value.col) == (1, len(self.PREFIX) + depth + 1)

    def test_operator_chain_at_and_past_the_bound(self):
        pair = self.parse_expr(" + ".join(["x"] * (MAX_NESTING + 1)))
        assert assigned_value(pair.thread0.statements[0].expr, {"x": 1}) == MAX_NESTING + 1
        with pytest.raises(ParseError, match="nesting deeper") as exc:
            self.parse_expr(" * ".join(["x"] * (MAX_NESTING + 2)))
        # reported at the operator that makes the tree too deep: the chain
        # is "x * x * ...", so operator k sits 4k - 1 columns in
        assert exc.value.col == len(self.PREFIX) + 4 * (MAX_NESTING + 1) - 1

    def test_parentheses_do_not_deepen_the_operator_tree(self):
        # render() parenthesizes every operator; the result must parse again
        pair = self.parse_expr("-".join(["x"] * (MAX_NESTING + 1)))
        assert parse(render(pair)) == pair

    def test_repeat_nesting(self):
        def source(levels):
            body = "x = 1;"
            for _ in range(levels):
                body = f"repeat 1 {{ {body} }}"
            return f"var x; thread0 {{ {body} }} thread1 {{ }}"

        assert len(parse(source(MAX_NESTING)).thread0.statements) == 1
        with pytest.raises(ParseError, match="nesting deeper") as exc:
            parse(source(MAX_NESTING + 1))
        # reported at the innermost repeat, the first one past the bound
        assert exc.value.col == len("var x; thread0 { ") + len("repeat 1 { ") * MAX_NESTING + 1


class TestParseErrors:
    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse("thread0 { emit }")
        assert exc.value.line == 1
        assert exc.value.col == 16

    def test_missing_thread1(self):
        with pytest.raises(ParseError):
            parse("thread0 { }")

    def test_undeclared_variable_assign(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse("thread0 { x = 1; } thread1 { }")

    def test_error_survives_pickling(self):
        with pytest.raises(ParseError) as exc:
            parse("thread0 { x = 1; } thread1 { }")
        copied = pickle.loads(pickle.dumps(exc.value))
        assert type(copied) is ParseError
        assert (str(copied), copied.line, copied.col) == ("1:11: undeclared variable 'x'", 1, 11)

    def test_undeclared_variable_in_expr(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse("var x; thread0 { x = y + 1; } thread1 { }")

    def test_semaphore_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("semaphores 1; thread0 { up(1); } thread1 { }")

    def test_semaphore_use_without_declaration(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("thread0 { down(0); } thread1 { }")

    def test_negative_repeat_count(self):
        with pytest.raises(ParseError, match="repeat count"):
            parse('thread0 { repeat -1 { emit "x"; } } thread1 { }')

    def test_unroll_limit(self):
        pair = parse('thread0 { repeat 1024 { emit "x"; } } thread1 { }')
        assert len(pair.thread0.statements) == 1024
        with pytest.raises(ParseError) as caught:
            parse('thread0 { repeat 1025 { emit "x"; } } thread1 { }')
        message = "1:11: repeat unrolls to 1025 statements, over the limit of 1024"
        assert (str(caught.value), caught.value.line, caught.value.col) == (message, 1, 11)

    def test_unroll_limit_with_a_product_too_long_to_print(self):
        with pytest.raises(ParseError) as caught:
            parse('thread0 { repeat 513 { emit "a"; emit "b"; } } thread1 { }')
        message = "1:11: repeat unrolls to 1026 statements, over the limit of 1024"
        assert str(caught.value) == message
        nines = "9" * 4300  # the longest literal int() converts; the product has 4301 digits
        with pytest.raises(ParseError) as caught:
            parse(f'thread0 {{ repeat {nines} {{ emit "a"; emit "b"; }} }} thread1 {{ }}')
        message = f"1:11: repeat unrolls to {nines} x 2 statements, over the limit of 1024"
        assert str(caught.value) == message

    def test_repeat_of_an_empty_block_takes_any_count(self):
        pair = parse("thread0 { repeat 99999999999999999999 { } } thread1 { }")
        assert pair.thread0.statements == ()

    @pytest.mark.parametrize("count", [10**20, UNROLL_LIMIT + 1])
    def test_semaphore_count_over_the_limit(self, count):
        with pytest.raises(ParseError) as exc:
            parse(f"var x;\nsemaphores {count}; thread0 {{ }} thread1 {{ }}")
        message = f"semaphore count {count} over the limit of {UNROLL_LIMIT}"
        assert (str(exc.value), exc.value.line, exc.value.col) == (f"2:1: {message}", 2, 1)

    def test_semaphore_count_at_a_given_limit(self):
        assert parse("semaphores 1024; thread0 { } thread1 { }").num_semaphores == 1024
        with pytest.raises(ParseError) as caught:
            parse("semaphores 1025; thread0 { } thread1 { }")
        message = "1:1: semaphore count 1025 over the limit of 1024"
        assert (str(caught.value), caught.value.line, caught.value.col) == (message, 1, 1)

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse('thread0 { emit "abc; } thread1 { }')

    def test_empty_emit_rejected(self):
        with pytest.raises(ParseError, match="at least one character"):
            parse('thread0 { emit ""; } thread1 { }')

    def test_duplicate_variable(self):
        with pytest.raises(ParseError, match="twice"):
            parse("var x; var x; thread0 { } thread1 { }")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("thread0 { } thread1 { } thread0 { }")

    @pytest.mark.parametrize(
        "source, message",
        [
            ("var x; thread0 { x = 1 } thread1 { }", "1:24: expected ';', found '}'"),
            ("var x = y; thread0 { } thread1 { }", "1:9: expected integer, found 'y'"),
            ("var repeat; thread0 { } thread1 { }", "1:5: expected variable name after 'var'"),
            ("semaphores -1; thread0 { } thread1 { }", "1:1: semaphore count must be non-negative"),
            ("thread0 { ; } thread1 { }", "1:11: expected statement, found ';'"),
            ('thread0 {\n  emit "a";\n', "3:1: expected '}'"),
            (
                "thread0 { " + 'emit "a"; ' * 1025 + "} thread1 { }",  # each statement is 10 columns
                "1:10261: thread exceeds unroll limit of 1024 statements",
            ),
            ("var x; thread0 { x = ; } thread1 { }", "1:22: expected expression, found ';'"),
        ],
        ids=[
            "expected-punct",
            "expected-integer",
            "keyword-as-variable",
            "negative-semaphores",
            "expected-statement",
            "unclosed-block",
            "thread-over-unroll-limit",
            "expected-expression",
        ],
    )
    def test_message_and_position(self, source, message):
        with pytest.raises(ParseError) as exc:
            parse(source)
        line, col = map(int, message.split(":")[:2])
        assert (str(exc.value), exc.value.line, exc.value.col) == (message, line, col)


class TestEval:
    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            assigned_value(BinOp("+", Var("x"), Var("y")), {"x": 1})

    def test_hand_built_pair_compiles_its_assignments(self):
        assign = Assign("y", BinOp("*", Var("x"), IntLit(3)))
        pair = ProgramPair(
            thread0=ThreadProgram((assign, Emit("a"))),
            thread1=ThreadProgram(()),
            num_semaphores=0,
            variables=(("y", 0), ("x", 5)),
        )
        assert pair.names == ("x", "y")
        transitions = pair.compiled.transitions
        assert len(transitions[0]) == 2 and transitions[1] == ()
        # a transition steps the search's (values, output, bank); the counter is the status
        i = transitions[0][0](_start(pair))
        assert (i.snapshot, i.trace, i.counter) == (((5, 15), "", ()), "0", (2, 1))
        # the derived fields take no part in equality
        assert pair == ProgramPair(pair.thread0, pair.thread1, 0, pair.variables)

    def test_hand_built_assignment_to_undeclared_variable(self):
        with pytest.raises(KeyError):
            ProgramPair(ThreadProgram((Assign("z", IntLit(1)),)), ThreadProgram(()), 0, ())

    @pytest.mark.parametrize(
        "thread0, thread1, num_semaphores, variables, message",
        [
            ((SemUp(2),), (), 1, (), "semaphore index 2 out of range (program declares 1)"),
            ((), (SemDown(-1),), 1, (), "semaphore index -1 out of range (program declares 1)"),
            ((SemUp(0),), (), 0, (), "semaphore index 0 out of range (program declares 0)"),
            ((), (), 0, (("x", 1), ("y", 0), ("x", 2)), "variable 'x' declared twice"),
            ((), (), -1, (), "semaphore count must be non-negative"),
            ((), (), 0, (("x", 2**64 + 5),),
             "initial value of 'x' out of the signed 64-bit range: 18446744073709551621"),
            ((), (), 0, (("x", -(2**63) - 1),),
             "initial value of 'x' out of the signed 64-bit range: -9223372036854775809"),
            ((Emit("a"),), (Emit(""),), 0, (), "emit string must have at least one character"),
            ((Assign("x", BinOp("/", IntLit(1), IntLit(2))),), (), 0, (("x", 0),),
             "unknown operator '/'"),
            ((), (), 1025, (), "semaphore count 1025 over the limit of 1024"),
            ((Emit("x"),) * 1025, (), 0, (), "thread exceeds unroll limit of 1024 statements"),
            ((), (Emit("x"),) * 1025, 0, (), "thread exceeds unroll limit of 1024 statements"),
        ],
        ids=["up-past-bank", "negative-down", "no-bank", "duplicate-variable", "negative-count",
             "initial-value-above-range", "initial-value-below-range", "empty-emit",
             "unknown-operator", "count-over-limit", "thread0-over-limit", "thread1-over-limit"],
    )
    def test_hand_built_pair_is_checked_as_parsed_source_is(
        self, thread0, thread1, num_semaphores, variables, message
    ):
        with pytest.raises(ValueError) as raised:
            ProgramPair(ThreadProgram(thread0), ThreadProgram(thread1), num_semaphores, variables)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "statement, message",
        [
            (Assign("x", "1"), "not an expression: '1'"),
            (IntLit(1), "not a statement: IntLit(value=1)"),
            # a float literal would store 0.0 in the state, and a bool run as 1
            (Assign("x", BinOp("+", Var("x"), IntLit(1.5))), "literal is not an int: 1.5"),
            (Assign("x", IntLit(True)), "literal is not an int: True"),
            (Emit(5), "emit text is not a str: 5"),
            (SemUp("0"), "semaphore index is not an int: '0'"),
            (SemDown(0.0), "semaphore index is not an int: 0.0"),
        ],
        ids=["expression", "statement", "float-literal", "bool-literal", "int-emit", "str-up",
             "float-down"],
    )
    def test_hand_built_node_of_the_wrong_kind(self, statement, message):
        with pytest.raises(TypeError) as raised:
            ProgramPair(ThreadProgram((statement,)), ThreadProgram(()), 0, (("x", 0),))
        assert str(raised.value) == message

    def test_hand_built_pair_at_the_parser_limits(self):
        pair = ProgramPair(ThreadProgram((Emit("x"),) * UNROLL_LIMIT),
                           ThreadProgram((Emit("y"),) * UNROLL_LIMIT), UNROLL_LIMIT, ())
        assert [len(t) for t in pair.compiled.transitions] == [1024, 1024]

    @pytest.mark.parametrize("value", ["a", 5.0, True], ids=["str", "float", "bool"])
    def test_hand_built_initial_value_must_be_an_int(self, value):
        with pytest.raises(TypeError) as raised:
            ProgramPair(ThreadProgram(()), ThreadProgram(()), 0, (("x", value),))
        assert str(raised.value) == f"initial value of 'x' is not an int: {value!r}"

    @pytest.mark.parametrize("name", [1, None], ids=["int", "none"])
    def test_hand_built_variable_name_must_be_a_str(self, name):
        with pytest.raises(TypeError) as raised:
            ProgramPair(ThreadProgram(()), ThreadProgram(()), 0, ((name, 0),))
        assert str(raised.value) == f"variable name is not a str: {name!r}"

    @pytest.mark.parametrize("count", [True, 1.0], ids=["bool", "float"])
    def test_hand_built_semaphore_count_must_be_an_int(self, count):
        with pytest.raises(TypeError) as raised:
            ProgramPair(ThreadProgram(()), ThreadProgram(()), count, ())
        assert str(raised.value) == f"semaphore count is not an int: {count!r}"

    def test_hand_built_initial_values_at_the_64_bit_bounds(self):
        variables = (("x", 2**63 - 1), ("y", -(2**63)))
        pair = ProgramPair(ThreadProgram(()), ThreadProgram(()), 0, variables)
        assert replay(pair, "").snapshot.values == (2**63 - 1, -(2**63))

    def test_wraparound_add(self):
        assert assigned_value(BinOp("+", IntLit(2**63 - 1), IntLit(1)), {}) == -(2**63)

    def test_wraparound_mul(self):
        assert assigned_value(BinOp("*", IntLit(2**62), IntLit(4)), {}) == 0

    def test_wraparound_literal_assignment(self):
        # a literal right-hand side is folded into the transition, wrapped
        assert assigned_value(IntLit(2**63), {}) == -(2**63)
        pair = parse("var x; thread0 { x = 18446744073709551617; } thread1 { }")
        assert replay(pair, "0").snapshot.values == (1,)

    def test_wrap64_bounds(self):
        assert wrap64(2**63) == -(2**63)
        assert wrap64(-(2**63) - 1) == 2**63 - 1
        assert wrap64(42) == 42


def test_statement_count():
    pair = parse('thread0 { emit "a"; emit "b"; } thread1 { }')
    assert len(pair.thread0.statements) == 2
    assert len(pair.thread1.statements) == 0
    pair = parse('thread0 { repeat 3 { emit "x"; } } thread1 { }')
    assert len(pair.thread0.statements) == 3


@given(
    k=st.integers(min_value=0, max_value=20),
    body=st.lists(st.sampled_from(["x = 1;", 'emit "a";', "x = x + 1;"]), min_size=1, max_size=4),
)
def test_unrolling_preserves_multiset(k, body):
    inner = " ".join(body)
    pair = parse(f"var x; thread0 {{ repeat {k} {{ {inner} }} }} thread1 {{ }}")
    assert len(pair.thread0.statements) == k * len(body)


# ---------------------------------------------------------------------------
# Round-trip through the canonical renderer
# ---------------------------------------------------------------------------

_names = st.sampled_from(["x", "y", "longer_name_2"])


def _exprs(names):
    leaves = st.one_of(
        st.builds(IntLit, st.integers(min_value=0, max_value=2**63 - 1)),
        st.builds(Var, names),
    )
    return st.recursive(
        leaves,
        lambda sub: st.builds(BinOp, st.sampled_from(["+", "-", "*"]), sub, sub),
        max_leaves=6,
    )


_texts = st.text(
    alphabet=st.sampled_from(list("ab12 _-;{}#\\\"\n\t")), min_size=1, max_size=5
)


@st.composite
def _program_pairs(draw):
    num_semaphores = draw(st.integers(min_value=0, max_value=3))
    statements = st.one_of(
        st.builds(Assign, _names, _exprs(_names)),
        st.builds(Emit, _texts),
        *(
            [
                st.builds(SemUp, st.integers(0, num_semaphores - 1)),
                st.builds(SemDown, st.integers(0, num_semaphores - 1)),
            ]
            if num_semaphores
            else []
        ),
    )
    threads = [
        ThreadProgram(tuple(draw(st.lists(statements, max_size=6)))) for _ in range(2)
    ]
    variables = tuple(
        (name, draw(st.integers(min_value=-(2**63), max_value=2**63 - 1)))
        for name in ["x", "y", "longer_name_2"]
    )
    return ProgramPair(threads[0], threads[1], num_semaphores, variables)


@given(_program_pairs())
def test_render_parse_round_trip(pair):
    assert parse(render(pair)) == pair


def test_round_trip_of_parsed_source():
    src = """
    var x = 9; semaphores 2;
    thread0 { repeat 2 { x = x * 2 - 1; } up(0); }
    thread1 { emit "ok"; down(1); }
    """
    first = parse(src)
    assert parse(render(first)) == first


# ---------------------------------------------------------------------------
# The lexer against the reference loop it replaced (tests/lexer_oracle.py)
# ---------------------------------------------------------------------------


def _error(exc: ParseError) -> tuple[str, int, int]:
    return str(exc), exc.line, exc.col


def _lexed(source: str):
    """Tokens as ``(kind, value, line, col)``, or the error as ``(message, line, col)``."""
    try:
        return [(t.kind, t.value, *_position(source, t.offset)) for t in _lex(source)]
    except ParseError as exc:
        return _error(exc)


def _oracle_lexed(source: str):
    try:
        return [(t.kind, t.value, t.line, t.col) for t in lexer_oracle._lex(source)]
    except ParseError as exc:
        return _error(exc)


# characters on every edge of the token grammar: whitespace in and out of
# the grammar, comment, quote and backslash, the escape letters, every
# punctuation character, isdigit-but-not-isdecimal (², ½, Ⅻ), a
# non-ASCII decimal (٣) and letter (é), and identifier characters
_LEX_ALPHABET = list(' \t\r\n\x0c\x85#"\\ntrqa{}();=+-*²½Ⅻ٣é_07')


@settings(max_examples=500)
@given(st.text(st.sampled_from(_LEX_ALPHABET) | st.characters(), max_size=40))
def test_lexer_matches_the_oracle(source):
    try:
        want = _oracle_lexed(source)
    except ValueError:  # the oracle's int() on a digit run it cannot convert
        with pytest.raises(ParseError):
            _lex(source)
        return
    assert _lexed(source) == want


class TestLexerTraps:
    """Inputs at the edges of the token grammar, pinned message, line and column."""

    @pytest.mark.parametrize(
        "source, error",
        [
            # isdigit but not isdecimal: the oracle raised ValueError here
            ("var x; thread0 { x = ²; } thread1 { }", ("1:22: unexpected character '²'", 1, 22)),
            ("var x; thread0 { x = 1²; } thread1 { }", ("1:23: unexpected character '²'", 1, 23)),
            (
                "var x;\nthread0 { x = " + "7" * 5000 + "; }",
                ("2:15: integer literal too long (5000 digits)", 2, 15),
            ),
        ],
        ids=["superscript", "digit-superscript", "5000-digits"],
    )
    def test_former_value_errors(self, source, error):
        with pytest.raises(ValueError):
            lexer_oracle._lex(source)
        assert _lexed(source) == error

    @pytest.mark.parametrize(
        "source, error",
        [
            ('thread0 { emit "a\\nb\\qc"; } thread1 { }', ("1:22: bad escape \\q", 1, 22)),
            ('thread0 {\n  emit "ab\\\n"; } thread1 { }', ("2:12: bad escape \\\n", 2, 12)),
            ('thread0 { emit "abc', ("1:16: unterminated string literal", 1, 16)),
            ('thread0 { emit "abc\\', ("1:16: unterminated string literal", 1, 16)),
        ],
        ids=["bad-after-good-escape", "backslash-line-break", "unterminated-at-eof",
             "backslash-at-eof"],
    )
    def test_string_errors(self, source, error):
        assert _lexed(source) == _oracle_lexed(source) == error

    def test_good_escapes_and_non_ascii_decimals(self):
        tokens = _lex('x٣ = ٣1; emit "\\t\\"\\\\é";')
        assert [t[:2] for t in tokens] == [
            ("ident", "x٣"), ("punct", "="), ("int", 31), ("punct", ";"),
            ("ident", "emit"), ("string", '\t"\\é'), ("punct", ";"), ("eof", ""),
        ]
