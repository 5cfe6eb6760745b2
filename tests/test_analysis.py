import json
from math import comb

import pytest
from hypothesis import example, given, strategies as st

import report_oracle
from conftest import program_paths
from corpus import fixed_corpus
from paircheck import analysis
from paircheck.analysis import BudgetExceeded, bench_table, disjoint_pair
from paircheck.engine import ExplorationConfig, explore
from paircheck.report import iter_report, render_report
from paircheck.toylang import Assign, Emit, IntLit, ProgramPair, ThreadProgram, parse
from test_report_pins import BUDGETS, MODES

EXHAUSTIVE = ExplorationConfig(pruning=False, race_detection=False)

# ``benchmarks/gen.py racy --seed 1 --length 24``, five statements a line:
# 18 outcomes and 686 races, in full and in digest mode.
RACY_24 = """
var v0 = -5; var v1 = 9; var v2 = -7; var v3 = -1;
semaphores 2;
thread0 {
  down(0); v0 = v0 * v3 + 55; v0 = v1 - v3 + 45; v1 = v1 - v3 + 54; emit "a";
  down(0); emit "b"; emit "a"; emit "b"; v3 = v1 - v2 - 65;
  v3 = v0 + v3 - 54; v1 = v2 + v2 - 85; v0 = v1 - v3 - 94; v0 = v3 - v0 - 83; up(0);
  down(0); v1 = v1 + v0 + 52; v2 = v2 - v3 + 50; emit "a"; v1 = v3 - v0 - 73;
  v1 = v3 - v3 - 45; v0 = v2 * v3 + 30; v1 = v1 * v0 - 5; emit "a";
}
thread1 {
  v3 = v2 - v3 + 4; v2 = v3 - v2 + 34; v0 = v2 * v1 - 3; emit "x"; v0 = v3 + v1 + 58;
  v3 = v1 + v3 + 51; emit "y"; v3 = v0 + v2 + 7; v2 = v0 - v0 - 96; v1 = v3 + v2 + 72;
  emit "x"; down(0); emit "y"; v1 = v0 + v3 - 13; v1 = v3 - v1 + 86;
  v3 = v2 + v3 - 79; v3 = v2 + v0 + 42; emit "x"; emit "y"; v3 = v1 * v2 + 49;
  up(1); down(1); down(1); v1 = v0 + v0 + 22;
}
"""


class TestBenchTable:
    def test_closed_forms_small(self):
        rows = bench_table(1, 6)
        for row in rows:
            assert row.exhaustive_count == 2 * comb(2 * row.n, row.n - 1)
            assert row.pruned_count == 2 * row.n * row.n

    def test_reference_values(self):
        rows = bench_table(3, 5)
        assert [(r.exhaustive_count, r.pruned_count) for r in rows] == [
            (30, 18),
            (112, 32),
            (420, 50),
        ]

    def test_pruned_no_larger_than_exhaustive_from_three(self):
        for row in bench_table(3, 6):
            assert row.pruned_count <= row.exhaustive_count

    def test_workload_is_race_free_single_outcome(self):
        report = explore(disjoint_pair(4), ExplorationConfig())
        assert len(report.outcomes) == 1
        assert not report.race_found

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            bench_table(0, 3)
        with pytest.raises(ValueError):
            bench_table(4, 3)

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExceeded):
            bench_table(8, 8, max_total_steps=100)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_budget_is_the_exhaustive_run_exactly(self, n):
        executed = comb(2 * n + 2, n + 1) - 2
        stats = explore(disjoint_pair(n), EXHAUSTIVE).stats
        assert stats.branch_statements + stats.completion_statements == executed
        assert bench_table(n, n, max_total_steps=executed)[0].n == n
        with pytest.raises(BudgetExceeded, match=f"^exhaustive run for n={n} exceeded"):
            bench_table(n, n, max_total_steps=executed - 1)

    def test_over_budget_runs_nothing(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("an over-budget bench built or explored a program")

        monkeypatch.setattr(analysis, "disjoint_pair", unexpected)
        monkeypatch.setattr(analysis, "explore", unexpected)
        for args, kwargs, n in [
            ((12, 12), {}, 12),
            ((10**9, 10**9), {"max_total_steps": 1}, 10**9),
            # the first n over the budget is named; the smaller ones do not run
            ((1, 10**9), {}, 12),
            ((3, 5), {"max_total_steps": 0}, 3),
        ]:
            with pytest.raises(BudgetExceeded, match=f"^exhaustive run for n={n} exceeded"):
                bench_table(*args, **kwargs)


class TestRenderText:
    def test_race_free_program_has_single_outcome_block(self):
        pair = parse("var x; thread0 { x = 1; } thread1 { }")
        text = render_report(explore(pair), "text")
        assert "outcomes: 1" in text
        assert "races: 0" in text
        assert "verdict: no race detected" in text

    def test_empty_program_report(self):
        pair = parse("thread0 { } thread1 { }")
        report = explore(pair)
        text = render_report(report, "text")
        assert "outcomes: 1" in text
        assert 'out=""' in text
        assert "branch=0 completion=0" in text

    def test_ab12_exhaustive_shows_six_outcomes_and_verdict(self, ab12):
        text = render_report(explore(ab12, EXHAUSTIVE), "text")
        assert "outcomes: 6" in text
        for output in ("ab12", "a1b2", "a12b", "1ab2", "1a2b", "12ab"):
            assert f'out="{output}"' in text
        assert "verdict: race" in text

    def test_race_block_shows_both_witnesses(self):
        pair = parse("var x; thread0 { x = 1; } thread1 { x = 2; }")
        text = render_report(explore(pair), "text")
        assert "stored : trace=01" in text
        assert "current: trace=10" in text
        assert "vars{x=2}" in text and "vars{x=1}" in text

    def test_digest_mode_header_and_stored_digest(self):
        pair = parse("var x; thread0 { x = 1; } thread1 { x = 2; }")
        text = render_report(explore(pair, ExplorationConfig(digest_mode=True)), "text")
        assert "blake2b-128" in text
        assert "(digest only)" in text

    def test_deadlock_and_block_forever_sections(self, bundled_programs):
        text = render_report(
            explore(bundled_programs["deadlock_double_up.toy"], EXHAUSTIVE), "text"
        )
        assert "deadlocks: 2" in text
        text = render_report(
            explore(bundled_programs["block_forever.toy"], EXHAUSTIVE), "text"
        )
        assert "block-forever: 2" in text

    def test_incomplete_warning(self, ab12):
        text = render_report(explore(ab12, ExplorationConfig(max_total_steps=2)), "text")
        assert "incomplete" in text

    def test_unknown_format_rejected(self, ab12):
        with pytest.raises(ValueError):
            render_report(explore(ab12), "yaml")
        with pytest.raises(ValueError):
            iter_report(explore(ab12), "yaml")  # before the first chunk is asked for


class TestRenderJson:
    def test_schema_keys(self, ab12):
        doc = json.loads(render_report(explore(ab12), "json"))
        assert set(doc) == {
            "complete",
            "race_found",
            "digest_algorithm",
            "outcomes",
            "races",
            "deadlocks",
            "block_forever",
            "stats",
        }
        assert set(doc["stats"]) == {
            "branch_statements",
            "completion_statements",
            "complete_interleavings",
            "pruned_subtrees",
            "races_found",
            "table_entries",
        }
        for outcome in doc["outcomes"]:
            assert set(outcome) == {"trace", "variables", "output", "semaphores"}

    def test_cross_format_consistency(self, bundled_programs):
        for pair in bundled_programs.values():
            report = explore(pair)
            doc = json.loads(render_report(report, "json"))
            text = render_report(report, "text")
            for outcome in doc["outcomes"]:
                assert (outcome["trace"] or "(empty)") in text
                assert f'out="{outcome["output"]}"' in text or "\\" in outcome["output"]
            for race in doc["races"]:
                assert (race["stored"]["trace"] or "(empty)") in text
                assert (race["current"]["trace"] or "(empty)") in text
            for finding in doc["deadlocks"] + doc["block_forever"]:
                assert (finding["trace"] or "(empty)") in text
            assert doc["stats"]["races_found"] == report.stats.races_found

    def test_counter_layout(self):
        pair = parse("var x; thread0 { x = 1; } thread1 { x = 2; }")
        doc = json.loads(render_report(explore(pair), "json"))
        assert doc["races"][0]["counter"] == [2, 2]
        assert doc["races"][0]["stored"]["snapshot"]["variables"] == {"x": 2}

    def test_digest_algorithm_field(self, ab12):
        plain = json.loads(render_report(explore(ab12), "json"))
        hashed = json.loads(
            render_report(explore(ab12, ExplorationConfig(digest_mode=True)), "json")
        )
        assert plain["digest_algorithm"] is None
        assert hashed["digest_algorithm"] == "blake2b-128"
        assert all("digest" in r["stored"] for r in hashed["races"])

    def test_json_is_stable(self, ab12):
        assert render_report(explore(ab12), "json") == render_report(explore(ab12), "json")

    @pytest.mark.parametrize("digest_mode", [False, True], ids=["full", "digest"])
    def test_one_chunk_per_record(self, digest_mode):
        # the report is streamed, never joined: a head chunk, one chunk per
        # record, a closing chunk per array and the stats chunk
        report = explore(parse(RACY_24), ExplorationConfig(digest_mode=digest_mode))
        assert (len(report.outcomes), len(report.races)) == (18, 686)
        records = report.outcomes + report.races + report.deadlocks + report.block_forever
        assert len(list(iter_report(report, "json"))) == len(records) + 6


def _pinned_reports():
    """Every report ``test_report_pins.py`` hashes, in the same order."""
    programs = [parse(path.read_text(encoding="utf-8")) for path in program_paths()]
    for pair in programs + fixed_corpus(200):
        for options in MODES.values():
            for budget in BUDGETS:
                yield explore(pair, ExplorationConfig(max_total_steps=budget, **options))


# Emitted text that exercises JSON string escaping: quotes, backslashes,
# control characters, and non-ASCII text inside and outside the BMP.  An
# emit needs at least one character, as the parser requires.
_EMIT_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x85\u2028é€😀'),
        st.characters(),
    ),
    min_size=1,
    max_size=5,
)

# Variable names that a %-template or a JSON key could trip on: format
# directives, JSON and canonical-form punctuation, control characters and
# non-ASCII text, alone or mixed with any other character.
_VARIABLE_NAME = st.one_of(
    st.sampled_from(["%", "%s", "%%", "%(x)s", '"', "\\", "{", "}", "=", ","]),
    st.text(
        alphabet=st.one_of(st.sampled_from('%s"\\{}=,\x00\n\x1f\x7fé€😀\ud800'), st.characters()),
        max_size=4,
    ),
)


class TestWriterAgainstOracle:
    """The streaming writer gives the reference renderer's bytes."""

    def test_pinned_corpus(self):
        for report in _pinned_reports():
            for fmt in ("json", "text"):
                assert render_report(report, fmt) == report_oracle.render_report(report, fmt)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("digest", [False, True], ids=["full", "digest"])
    def test_racy_24(self, digest, fmt):
        # the console tests' program: each race template, hundreds of times
        report = explore(parse(RACY_24), ExplorationConfig(digest_mode=digest))
        assert len(report.races) == 686
        assert render_report(report, fmt) == report_oracle.render_report(report, fmt)

    @given(
        st.lists(_EMIT_TEXT, min_size=1, max_size=3),
        st.lists(_EMIT_TEXT, min_size=1, max_size=3),
    )
    @example(first=["a"], second=["\ud800"])  # a lone surrogate reaches the digest
    def test_emitted_text(self, first, second):
        pair = ProgramPair(
            thread0=ThreadProgram(tuple(map(Emit, first))),
            thread1=ThreadProgram(tuple(map(Emit, second))),
            num_semaphores=0,
            variables=(("x", 0),),
        )
        for options in MODES.values():
            report = explore(pair, ExplorationConfig(**options))
            for fmt in ("json", "text"):
                chunks = list(iter_report(report, fmt))
                assert "".join(chunks) == report_oracle.render_report(report, fmt)
            assert all(chunk.isascii() for chunk in iter_report(report, "json"))

    def test_report_mixing_programs(self):
        # a hand-built report may mix programs, even within one race; the
        # crossed race follows one whose current snapshot has the same names
        one = parse("var x; thread0 { x = 1; } thread1 { x = 2; }")
        two = parse('var a; var b; semaphores 1; thread0 { a = 1; emit "p"; } thread1 { emit "q"; }')
        full = [explore(pair) for pair in (one, two)]
        digest = [explore(pair, ExplorationConfig(digest_mode=True)) for pair in (one, two)]
        crossed = full[0].races[0]._replace(stored_snapshot=full[1].outcomes[0].snapshot)
        report = full[0]._replace(
            outcomes=full[0].outcomes + full[1].outcomes + full[0].outcomes,
            races=full[0].races + (crossed,) + digest[1].races + full[1].races + digest[0].races,
        )
        for fmt in ("json", "text"):
            assert render_report(report, fmt) == report_oracle.render_report(report, fmt)

    @given(st.lists(_VARIABLE_NAME, max_size=3, unique=True))
    @example(names=["%s", "%"])
    def test_variable_names(self, names):
        # a name is spliced into the per-program %-templates of the JSON writer
        def thread(tid, text):
            assign = (Assign(names[tid % len(names)], IntLit(tid + 1)),) if names else ()
            return ThreadProgram((*assign, Emit(text)))

        variables = tuple((name, 0) for name in names)
        pair = ProgramPair(thread(0, "a"), thread(1, "b"), 1, variables)
        for options in MODES.values():
            report = explore(pair, ExplorationConfig(**options))
            for fmt in ("json", "text"):
                assert render_report(report, fmt) == report_oracle.render_report(report, fmt)
            assert all(chunk.isascii() for chunk in iter_report(report, "json"))
