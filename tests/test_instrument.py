import importlib.util
import time

import pytest
from hypothesis import given, strategies as st

import instrument_oracle as oracle
from conftest import REPO_ROOT
from paircheck.instrument import InstrumentError, InstrumentOptions, instrument, strip


def norm(text: str) -> str:
    return " ".join(text.split())


# A string-printing routine that was instrumented by hand at its one
# atomic statement, and the output a naive automated pass should produce
# for it: extra hooks before the for loop and both calls, nothing before
# declarations or done(), nothing inside the for header, and no doubled
# hook at the already-covered statement.

HAND_INSTRUMENTED = """\
void str(char *s) {
  int i;

  for(i=0; s[i]; i++) {
    hook();  b->common.outstr[b->common.outidx++] = s[i];
  }
}

main() {
...
  if(child) {
    // thread 0
    str(``ab'');
    done();

  } else {
    // thread 1
    str(``12'');
    done();
  }
}
"""

NAIVE_EXPECTED = """\
void str(char *s) {
  int i;

  hook(); for(i=0; s[i]; i++) {
    hook();  b->common.outstr[b->common.outidx++] = s[i];
  }
}

main() {
...
  if(child) {
    // thread 0
    hook(); str(``ab'');
    done();

  } else {
    // thread 1
    hook(); str(``12'');
    done();
  }
}
"""

BARE = HAND_INSTRUMENTED.replace("hook();  b->", "b->")


class TestNaiveFidelity:
    def test_already_instrumented_input_with_skip_redundant(self):
        got = instrument(HAND_INSTRUMENTED, InstrumentOptions(skip_redundant=True))
        assert norm(got) == norm(NAIVE_EXPECTED)

    def test_uninstrumented_input_with_defaults(self):
        got = instrument(BARE)
        assert norm(got) == norm(NAIVE_EXPECTED)

    def test_strip_round_trips_the_listing(self):
        naive = instrument(HAND_INSTRUMENTED, InstrumentOptions(skip_redundant=True))
        assert norm(strip(naive)) == norm(strip(HAND_INSTRUMENTED)) == norm(BARE)


class TestInstrument:
    def test_empty_input(self):
        assert instrument("") == ""

    def test_top_level_declaration_untouched(self):
        assert instrument("int x;\n") == "int x;\n"
        assert instrument("int x;\nchar *p;\n") == "int x;\nchar *p;\n"

    def test_statements_in_function_body(self):
        got = instrument("void f() { x = 1; y = 2; }")
        assert got == "void f() { hook(); x = 1; hook(); y = 2; }"

    def test_declaration_inside_body_skipped(self):
        got = instrument("void f() { int x; x = 1; }")
        assert got == "void f() { int x; hook(); x = 1; }"

    def test_for_header_semicolons_untouched(self):
        got = instrument("void f() { for(i=0; i<3; i++) { work(); } }")
        assert got == "void f() { hook(); for(i=0; i<3; i++) { hook(); work(); } }"

    def test_else_continuation_not_hooked(self):
        got = instrument("void f() { if(c) { a(); } else { b(); } }")
        assert got == "void f() { hook(); if(c) { hook(); a(); } else { hook(); b(); } }"

    def test_do_while_tail_not_hooked(self):
        got = instrument("void f() { do { a(); } while(c); b(); }")
        assert got == "void f() { hook(); do { hook(); a(); } while(c); hook(); b(); }"

    def test_statement_after_closing_brace_hooked(self):
        got = instrument("void f() { if(c) { a(); } b(); }")
        assert got == "void f() { hook(); if(c) { hook(); a(); } hook(); b(); }"

    def test_done_never_hooked(self):
        got = instrument("void f() { a(); done(); }")
        assert got == "void f() { hook(); a(); done(); }"

    def test_string_literal_contents_untouched(self):
        src = 'void f() { s = "x; { } y"; t(); }'
        got = instrument(src)
        assert '"x; { } y"' in got
        assert got.count("hook();") == 2  # before s = ... and before t()

    def test_char_literal_and_comments_untouched(self):
        src = "void f() { c = ';'; /* x; { */ d(); // tail; \n }"
        got = instrument(src)
        assert "';'" in got
        assert "/* x; { */" in got
        assert got.count("hook();") == 2

    def test_custom_hook_token(self):
        got = instrument("void f() { a(); }", InstrumentOptions(hook_token="H();"))
        assert got == "void f() { H(); a(); }"

    def test_skip_redundant_idempotent(self):
        src = "void f() { if(c) { a(); b(); } else { d(); } e(); }"
        opts = InstrumentOptions(skip_redundant=True)
        once = instrument(src, opts)
        assert instrument(once, opts) == once

    def test_without_skip_redundant_hooks_pile_up(self):
        src = "void f() { a(); }"
        once = instrument(src)
        twice = instrument(once)
        assert twice.count("hook();") == 3  # naive mode re-hooks happily

    def test_unbalanced_open_brace_refused(self):
        with pytest.raises(InstrumentError):
            instrument("void f() { a();")
        # reported at the end of input; a tab and a \r each count as one column
        src = "int g;\r\nvoid f() {\r\n\tif (c) {\r\n\t\ta();\r\n\t\r\n\t\tb();"
        with pytest.raises(InstrumentError) as exc:
            instrument(src)
        assert str(exc.value) == "6:7: 2 unclosed '{'"
        assert (exc.value.line, exc.value.col) == (6, 7)

    def test_unbalanced_close_brace_reports_position(self):
        with pytest.raises(InstrumentError) as exc:
            instrument("void f() { a(); } }")
        assert exc.value.line == 1
        assert exc.value.col == 19
        with pytest.raises(InstrumentError) as exc:
            instrument("void f() {\r\n\ta();\r\n}\r\n\t}")
        assert str(exc.value) == "4:2: unbalanced '}'"
        assert (exc.value.line, exc.value.col) == (4, 2)
        # a brace right after the first newline: line 2, column 1
        with pytest.raises(InstrumentError) as exc:
            instrument("\n}")
        assert str(exc.value) == "2:1: unbalanced '}'"

    def test_brace_in_string_not_counted(self):
        instrument('void f() { s = "}"; }')  # must not raise

    def test_token_conservation_on_hook_free_input(self):
        src = "void f() { if(c) { a(); } else { b(); } x = 1; }\nint g;\n"
        assert strip(instrument(src)) == src


class TestStrip:
    def test_removes_standalone_hooks(self):
        assert strip("void f() { hook(); a(); }") == "void f() { a(); }"

    def test_source_without_hooks_unchanged(self):
        src = "void f() { a(); }"
        assert strip(src) == src

    def test_hook_inside_string_preserved(self):
        src = 'void f() { s = "hook();"; }'
        assert strip(src) == src

    def test_hook_inside_comment_preserved(self):
        src = "void f() { /* hook(); */ a(); }"
        assert strip(src) == src

    def test_partial_identifier_not_stripped(self):
        src = "void f() { unhook(); }"
        assert strip(src) == src

    def test_custom_token(self):
        opts = InstrumentOptions(hook_token="H();")
        assert strip("void f() { H(); a(); }", opts) == "void f() { a(); }"


class TestHookToken:
    @pytest.mark.parametrize(
        "token", ["", "{", "/*", "}", 'h("x");', "h('x');", "h/x", "h\n", "1h();"]
    )
    def test_rejected(self, token):
        with pytest.raises(ValueError):
            InstrumentOptions(hook_token=token)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"skip_redundant": "false"}, "skip_redundant is not a bool: 'false'"),
            ({"skip_redundant": None}, "skip_redundant is not a bool: None"),
            ({"skip_redundant": 1}, "skip_redundant is not a bool: 1"),
            ({"hook_token": None}, "hook_token is not a str: None"),
            ({"hook_token": ["h"]}, r"hook_token is not a str: \['h'\]"),
            ({"hook_token": b"h();"}, "hook_token is not a str: b'h\\(\\);'"),
        ],
        ids=["str-flag", "none-flag", "int-flag", "none-token", "list-token", "bytes-token"],
    )
    def test_wrong_type_names_the_field(self, options, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            InstrumentOptions(**options)

    def test_options_are_frozen(self):
        # a token set after construction would skip the check above
        opts = InstrumentOptions(hook_token="H();", skip_redundant=True)
        for field, value in (("hook_token", "{x"), ("skip_redundant", False), ("other", 1)):
            with pytest.raises(AttributeError, match=f"frozen: cannot set or delete '{field}'"):
                setattr(opts, field, value)
            with pytest.raises(AttributeError):
                delattr(opts, field)
        assert (opts.hook_token, opts.skip_redundant) == ("H();", True)
        assert not hasattr(opts, "__dict__")

    @pytest.mark.parametrize("token", ["hook();", "sched_point();", "_h();"])
    def test_round_trip(self, token):
        src = "void f() { if(c) { a(); } else { b(); } x = 1; }\n"
        opts = InstrumentOptions(hook_token=token)
        got = instrument(src, opts)
        assert got.count(token + " ") == 4
        assert strip(got, opts) == src


# ---------------------------------------------------------------------------
# Property: literal/comment safety and strip-of-instrument conservation
# ---------------------------------------------------------------------------

_nasty = st.text(alphabet=st.sampled_from(list("{};()for intx=1 \\n\t'")), max_size=12)


@given(literal=_nasty)
def test_string_literal_bytes_never_split(literal):
    body = literal.replace("\\", "\\\\").replace("'", "")
    src = 'void f() { s = "' + body + '"; a(); }'
    got = instrument(src)
    assert '"' + body + '"' in got
    assert strip(got) == src


@st.composite
def _c_like_sources(draw):
    statements = st.sampled_from(
        ["a();", "x = y + 1;", 'p = "s;{}";', "int k;", "done();", "hook(); b();"]
    )
    def block(depth):
        parts = draw(st.lists(statements, max_size=3))
        if depth < 2 and draw(st.booleans()):
            inner = block(depth + 1)
            parts.append("if (c) { " + " ".join(inner) + " }")
        return parts
    return "void f() {\n  " + "\n  ".join(block(0)) + "\n}\n"


@given(_c_like_sources())
def test_skip_redundant_idempotence_property(src):
    opts = InstrumentOptions(skip_redundant=True)
    once = instrument(src, opts)
    assert instrument(once, opts) == once
    # every statement of the default output is covered, so skipping adds nothing
    hooked = instrument(src)
    assert instrument(hooked, opts) == hooked


# ---------------------------------------------------------------------------
# Differential: the token-pattern pass against the character-by-character
# reference in ``instrument_oracle.py``, on bytes and on refusals
# ---------------------------------------------------------------------------

def _outcome(fn, source, opts):
    try:
        return fn(source, opts)
    except InstrumentError as exc:
        return str(exc), exc.line, exc.col


def _assert_like_oracle(source, opts):
    got = _outcome(instrument, source, opts)
    assert got == _outcome(oracle.instrument, source, opts)
    assert _outcome(strip, source, opts) == _outcome(oracle.strip, source, opts)
    if isinstance(got, str):
        assert strip(got, opts) == oracle.strip(got, opts)


_inner = st.sampled_from(
    list("();;=, \t\r\n\"'\\/*xab_0²é½")
    + ["//", "/*", "*/", "/*/", "\r\n", '"s"', "'c'", "/*c*/", "// c\n", "x;", "a();", "12ab"]
    + ["hook();", "hook(); ", "foo", "foo;", "h();h", "int ", "else ", "while", "done();"]
)
_fragments = st.one_of(_inner, st.sampled_from("{}"))


@st.composite
def _blocks(draw, depth=0):
    """Brace-balanced text, unless a literal or comment swallows a brace."""
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        if depth < 2 and draw(st.booleans()):
            parts.append("{" + draw(_blocks(depth + 1)) + "}")
        else:
            parts.append("".join(draw(st.lists(_inner, max_size=10))))
    return "".join(parts)


_sources = st.one_of(st.lists(_fragments, max_size=40).map("".join), _blocks())


@pytest.mark.parametrize("skip_redundant", [False, True])
@pytest.mark.parametrize("token", ["hook();", "foo", "h();h"])
@given(source=_sources)
def test_matches_reference_oracle(token, skip_redundant, source):
    _assert_like_oracle(source, InstrumentOptions(token, skip_redundant))


# Each input pins one way the token pattern can drift from the reference;
# the expected value is what the reference gives.
_TRAPS = [
    # an inert run disarms only when it starts with a quote
    ('void f() { /*c*/"s" x; }', 'void f() { /*c*/"s" hook(); x; }'),
    ('void f() { "s" x; }', 'void f() { "s" x; }'),
    ("void f() { 'c' x; }", "void f() { 'c' x; }"),
    # str.isdigit() is wider than \d: ² disarms, ½ starts an identifier
    (
        "void f() { ²x = 1; 2y = 1; ½z = 1; 12ab(); }",
        "void f() { ²x = 1; 2y = 1; hook(); ½z = 1; 12ab(); }",
    ),
    # a literal ends before a line break, which it does not consume ...
    ('void f() { s = "a\n}', 'void f() { hook(); s = "a\n}'),
    # ... a backslash takes the line break, a quote, or nothing at the end
    ('void f() { s = "a\\\n}"; }', 'void f() { hook(); s = "a\\\n}"; }'),
    ('void f() { s = "\\"}"; }', 'void f() { hook(); s = "\\"}"; }'),
    ('void f() { s = "\\', ("1:18: 1 unclosed '{'", 1, 18)),
    ("void f() { c = '\\'; }';", ("1:24: 1 unclosed '{'", 1, 24)),
    # /* runs to the end of input, and /*/ does not close
    ("void f() { /* }", ("1:16: 1 unclosed '{'", 1, 16)),
    ("void f() { /*/ } */ }", "void f() { /*/ } */ }"),
    # the balance check counts braces at every parenthesis depth
    ('x("{"); }', ("1:9: unbalanced '}'", 1, 9)),
    ("void f() { g(}); }", ("1:18: unbalanced '}'", 1, 18)),
    # line = line breaks before + 1; column counts \r and \t as one each
    ("void f() {\n\ta();\n", ("3:1: 1 unclosed '{'", 3, 1)),
    ("{\r\n}\r}", ("2:3: unbalanced '}'", 2, 3)),
    # a skip to the next brace, parenthesis or ';' never backtracks into an
    # unterminated literal to find one there
    ('x("{)}', 'x("{)}'),
    # a comment between ';' and a word leaves the statement start armed
    ("void f() { a;/*c*/b; }", "void f() { hook(); a;/*c*/hook(); b; }"),
    # both ';' of a for header are inside parentheses
    (
        "void f() { for (;;) { a(); } b(); }",
        "void f() { hook(); for (;;) { hook(); a(); } hook(); b(); }",
    ),
]


@pytest.mark.parametrize("source, expected", _TRAPS)
def test_trap_inputs(source, expected):
    opts = InstrumentOptions()
    assert _outcome(instrument, source, opts) == expected
    _assert_like_oracle(source, opts)


# strip decides "not inside an identifier" from the last character it
# wrote, and after refusing a match resumes one character later
_STRIP_TRAPS = [
    ("foofoo", "foo", ""),
    ("xfoofoo", "foo", "xfoofoo"),
    ("ah();h();h", "h();h", "ah();"),
    ('a"x"foo', "foo", 'a"x"'),
    ("éfoo", "foo", "éfoo"),
    # an inert run is written whole, so its last character decides
    ('"a"hook();', "hook();", '"a"'),
    ("/*x*/hook();", "hook();", "/*x*/"),
    # the token's first character is common, alone and inside identifiers
    ("v_v_hook();vv_hook(); v_hook();v", "v_hook();", "v_v_hook();vv_hook(); v"),
]


@pytest.mark.parametrize("source, token, expected", _STRIP_TRAPS)
def test_strip_trap_inputs(source, token, expected):
    opts = InstrumentOptions(hook_token=token)
    assert strip(source, opts) == expected
    _assert_like_oracle(source, opts)


# About 200 KB runs of the characters the scan patterns branch on.  Each
# takes a fraction of a second; a pattern that backtracks catastrophically
# on one of them fails the bound instead of stalling the suite.
_LONG_RUNS = {
    "quotes": "void f() { " + '"' * 200_000 + " }",
    "comment-openers": "void f() { " + "/*" * 100_000 + " }",
    "parentheses": "void f() { " + "(" * 200_000 + " }",
    "semicolons": "void f() { " + ";" * 200_000 + " }",
    "hooks": "void f() { " + "hook();" * 30_000 + " }",
    "token-first-characters": "void f() { " + "h" * 200_000 + " }",
}


@pytest.mark.parametrize("source", _LONG_RUNS.values(), ids=_LONG_RUNS)
@pytest.mark.parametrize("fn", [instrument, strip])
def test_long_runs_finish_in_time(fn, source):
    start = time.perf_counter()
    _outcome(fn, source, InstrumentOptions())
    assert time.perf_counter() - start < 5.0


def _benchmark_generator():
    """``benchmarks/gen.py``, loaded from its file under a name of its own."""
    path = REPO_ROOT / "benchmarks" / "gen.py"
    spec = importlib.util.spec_from_file_location("benchmark_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_benchmark_generator_placement(seed):
    # the generator writes each hook where the documented rules place one,
    # independently of the instrumenter and of instrument_oracle
    source, expected = _benchmark_generator().c_source(seed, 32)
    assert instrument(source) == expected
    assert strip(expected) == source
