import random
import sys
from functools import reduce
from math import comb

import pytest

from corpus import fixed_corpus, random_pair, wide_corpus
from oracle import enumerate_schedules
from paircheck import engine
from paircheck.engine import (
    EngineError,
    ExplorationConfig,
    ReplayError,
    explore,
    initial_interleaving,
    replay,
    step,
)
from paircheck.state import (
    _PRUNED_EQUAL, DONE, PartialInterleaving, Race, Snapshot, StateTable, digest,
    snapshot_formatter,
)
from paircheck.toylang import parse

EXHAUSTIVE = ExplorationConfig(pruning=False, race_detection=False)

AB12 = parse('thread0 { emit "a"; emit "b"; } thread1 { emit "1"; emit "2"; }')


def outputs(report):
    return [o.snapshot.output for o in report.outcomes]


def searched(pair, trace):
    """The search's interleaving after ``trace``: its state is ``(values, output, bank)``."""
    return reduce(lambda i, symbol: step(pair, i, int(symbol)), trace, engine._start(pair))


class TestInitialInterleaving:
    def test_counters_start_at_one(self, ab12):
        i = initial_interleaving(ab12)
        assert i.counter == (1, 1)
        assert i.trace == ""
        assert i.snapshot.output == ""
        assert i.snapshot.status0 == 0
        assert i.snapshot.status1 == 0

    def test_empty_threads_start_done(self):
        pair = parse("thread0 { } thread1 { }")
        i = initial_interleaving(pair)
        assert i.snapshot.status0 == DONE
        assert i.snapshot.status1 == DONE

    def test_declared_initial_values(self):
        pair = parse("var x = 5; thread0 { x = x; } thread1 { }")
        i = initial_interleaving(pair)
        assert i.snapshot.variable("x") == 5

    def test_semaphores_start_down(self):
        pair = parse("semaphores 3; thread0 { up(0); } thread1 { }")
        assert initial_interleaving(pair).snapshot.semaphores == (False, False, False)


class TestStep:
    def test_emit_advances(self, ab12):
        i = step(ab12, initial_interleaving(ab12), 0)
        assert i.snapshot.status0 == 1
        assert i.snapshot.output == "a"
        assert i.counter == (2, 1)
        assert i.trace == "0"

    def test_last_statement_completes(self, ab12):
        i = step(ab12, initial_interleaving(ab12), 0)
        i = step(ab12, i, 0)
        assert i.snapshot.status0 == DONE
        assert i.snapshot.output == "ab"

    def test_down_on_lowered_semaphore_is_noop(self):
        pair = parse("semaphores 1; thread0 { down(0); } thread1 { }")
        i = step(pair, initial_interleaving(pair), 0)
        assert i.snapshot.status0 == DONE
        assert i.snapshot.semaphores == (False,)
        assert i.counter == (2, 1)

    def test_down_lowers_raised_semaphore(self):
        pair = parse("semaphores 1; thread0 { up(0); down(0); } thread1 { }")
        i = step(pair, initial_interleaving(pair), 0)
        assert i.snapshot.semaphores == (True,)
        i = step(pair, i, 0)
        assert i.snapshot.semaphores == (False,)

    def test_up_on_raised_semaphore_blocks_without_advancing(self):
        pair = parse("semaphores 1; thread0 { up(0); up(0); } thread1 { down(0); }")
        i = step(pair, initial_interleaving(pair), 0)
        with pytest.raises(EngineError):
            step(pair, i, 0)
        assert i == replay(pair, "0")  # the statement has not executed
        assert i.snapshot.status0 == 1

    def test_up_while_other_blocked_is_deadlock(self):
        pair = parse("semaphores 2; thread0 { up(0); up(0); } thread1 { up(1); up(1); }")
        i = initial_interleaving(pair)
        i = step(pair, i, 0)  # s0 up
        i = step(pair, i, 1)  # s1 up
        for tid in (0, 1):
            with pytest.raises(EngineError):
                step(pair, i, tid)
        assert i == replay(pair, "01")

    def test_stepping_done_thread_is_usage_error(self):
        pair = parse("thread0 { } thread1 { }")
        with pytest.raises(EngineError):
            step(pair, initial_interleaving(pair), 0)

    def test_stepping_blocked_thread_is_usage_error(self):
        # a refused up leaves nothing pending: the next attempt is refused too,
        # and the other thread can still run
        pair = parse("semaphores 1; thread0 { up(0); up(0); } thread1 { down(0); }")
        i = step(pair, initial_interleaving(pair), 0)
        for _ in range(2):
            with pytest.raises(EngineError):
                step(pair, i, 0)
        assert step(pair, i, 1).snapshot.semaphores == (False,)

    @pytest.mark.parametrize(
        "source",
        ['thread0 { emit "a"; } thread1 { emit "b"; }', "var x; thread0 { } thread1 { x = 1; }"],
    )
    @pytest.mark.parametrize("tid", [2, -1])
    def test_stepping_a_thread_other_than_0_or_1_is_usage_error(self, source, tid):
        pair = parse(source)
        with pytest.raises(EngineError, match=f"no thread {tid}"):
            step(pair, initial_interleaving(pair), tid)

    @pytest.mark.parametrize("plain", [False, True], ids=["snapshot", "plain"])
    def test_a_callers_snapshot_steps_from_its_own_status(self, plain):
        # the search's state has no status, its counter is one; a caller's
        # snapshot keeps its own, whatever the counter says
        i = initial_interleaving(AB12)

        def given(counter, **statuses):
            snapshot = i.snapshot._replace(**statuses)
            return i._replace(snapshot=tuple(snapshot) if plain else snapshot, counter=counter)

        for counter in [(1, 1), (2, 1), (3, 1), (9, 9)]:
            with pytest.raises(EngineError, match="thread 0 is finished"):
                step(AB12, given(counter, status0=DONE), 0)
            stepped = step(AB12, given(counter, status0=1, status1=DONE), 0)  # statement 1: emit "b"
            assert type(stepped.snapshot) is Snapshot
            assert stepped.snapshot == i.snapshot._replace(output="b", status0=DONE, status1=DONE)
            assert stepped.counter == (counter[0] + 1, counter[1])
            assert step(AB12, given(counter, status1=1), 1).snapshot[2] == "2"  # the output

    def test_the_search_state_steps_from_its_counter(self):
        searched = engine._start(AB12)
        assert searched.snapshot == ((), "", ())
        assert step(AB12, step(AB12, searched, 1), 1).snapshot == ((), "12", ())
        for counter in [(3, 1), (0, 1)]:  # past the thread's end, or before its start
            with pytest.raises(EngineError, match="thread 0 is finished"):
                step(AB12, searched._replace(counter=counter), 0)

    @pytest.mark.parametrize("tid", [0, 1])
    def test_a_thread_id_equal_to_0_or_1_steps_that_thread(self, tid):
        # 1.0 == 1 passes the thread check, and must not reach a tuple index
        pair = parse('var x; thread0 { x = 1; } thread1 { emit "b"; }')
        i = initial_interleaving(pair)
        assert step(pair, i, float(tid)) == step(pair, i, tid)


class TestExplore:
    def test_ab12_exhaustive_outputs(self, ab12):
        report = explore(ab12, EXHAUSTIVE)
        assert outputs(report) == ["ab12", "a1b2", "a12b", "1ab2", "1a2b", "12ab"]
        assert report.stats.complete_interleavings == 6
        assert report.outcomes[0].trace == "0011"
        assert report.race_found  # six distinct outcomes

    def test_ab12_detection_finds_race(self, ab12):
        report = explore(ab12)
        assert report.stats.races_found > 0
        assert report.race_found

    def test_double_increment_is_race_free(self):
        pair = parse("var x; thread0 { x = x + 1; } thread1 { x = x + 1; }")
        report = explore(pair)
        assert report.stats.races_found == 0
        assert not report.race_found
        assert len(report.outcomes) == 1
        assert report.outcomes[0].snapshot.variable("x") == 2

    def test_assign_race_witnesses(self):
        pair = parse("var x; thread0 { x = 1; } thread1 { x = 2; }")
        report = explore(pair)
        assert len(report.races) == 1
        race = report.races[0]
        assert race.counter == (2, 2)
        assert {race.stored_trace, race.current_trace} == {"01", "10"}

    def test_double_up_deadlocks_on_both_prefixes(self):
        pair = parse("semaphores 2; thread0 { up(0); up(0); } thread1 { up(1); up(1); }")
        report = explore(pair, EXHAUSTIVE)
        assert {f.trace for f in report.deadlocks} == {"01", "10"}
        assert all(f.counter == (2, 2) for f in report.deadlocks)
        assert not report.outcomes

    def test_block_forever_detection(self):
        pair = parse('semaphores 1; thread0 { up(0); up(0); } thread1 { emit "z"; }')
        report = explore(pair, EXHAUSTIVE)
        assert {f.trace for f in report.block_forever} == {"01", "10"}
        assert not report.outcomes

    def test_one_blocked_thread_forces_single_successor(self):
        # After "0" thread 0 stands before a blocking up, so thread 1's down
        # is the only successor, and thread 0 resumes once it runs: the only
        # completing schedule is 0100.  Running thread 1 first wastes the
        # down (the semaphore starts lowered) and thread 0 blocks forever.
        pair = parse(
            'semaphores 1; thread0 { up(0); up(0); emit "A"; } thread1 { down(0); }'
        )
        report = explore(pair, EXHAUSTIVE)
        oracle = enumerate_schedules(pair)
        assert [o.trace for o in report.outcomes] == ["0100"]
        assert {o.snapshot.output for o in report.outcomes} == {"A"}
        assert {(tuple(sorted(o.snapshot.variables)), o.snapshot.output, o.snapshot.semaphores)
                for o in report.outcomes} == oracle.outcomes
        assert not report.deadlocks
        assert {f.trace for f in report.block_forever} == {"10"} == oracle.block_forever_traces

    def test_empty_program(self):
        pair = parse("thread0 { } thread1 { }")
        report = explore(pair, EXHAUSTIVE)
        assert len(report.outcomes) == 1
        assert report.outcomes[0].trace == ""
        assert report.stats.complete_interleavings == 1

    def test_budget_exhaustion_flags_incomplete(self, ab12):
        report = explore(ab12, ExplorationConfig(max_total_steps=3))
        assert not report.complete

    def test_deterministic_reports(self, ab12):
        assert explore(ab12) == explore(ab12)
        assert explore(ab12, EXHAUSTIVE) == explore(ab12, EXHAUSTIVE)

    def test_digest_mode_requires_race_detection(self):
        with pytest.raises(ValueError):
            ExplorationConfig(race_detection=False, digest_mode=True)

    def test_table_entries_fill_the_counter_lattice(self):
        # straight-line, semaphore-free: every reachable counter is stored
        # exactly once, so the table holds (m+1)*(n+1) entries
        for m, n in [(2, 1), (2, 2), (0, 3), (4, 4)]:
            body0 = " ".join(['emit "a";'] * m)
            body1 = " ".join(['emit "b";'] * n)
            pair = parse(f"thread0 {{ {body0} }} thread1 {{ {body1} }}")
            for pruning in (True, False):
                report = explore(pair, ExplorationConfig(pruning=pruning))
                assert report.stats.table_entries == (m + 1) * (n + 1)


@pytest.mark.parametrize("digest_mode", [False, True])
def test_explore_leaves_recursion_limit_alone(monkeypatch, digest_mode):
    # thread 0 is as long as the unroll limit allows, so the search is
    # more than a thousand statements deep
    pair = parse("var x; var y; thread0 { repeat 1024 { x = x + 1; } } thread1 { y = 1; y = 2; }")
    limit = sys.getrecursionlimit()

    def refuse(_limit):
        raise AssertionError("explore changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    report = explore(pair, ExplorationConfig(digest_mode=digest_mode))
    assert sys.getrecursionlimit() == limit
    assert report.complete
    assert report.stats.table_entries == 1025 * 3
    assert report.outcomes[0].snapshot.variable("x") == 1024


class TestInterleavingCountLaw:
    @pytest.mark.parametrize("m", range(0, 7))
    @pytest.mark.parametrize("n", range(0, 7))
    def test_straight_line_counts(self, m, n):
        body0 = " ".join(['emit "a";'] * m)
        body1 = " ".join(['emit "b";'] * n)
        pair = parse(f"thread0 {{ {body0} }} thread1 {{ {body1} }}")
        report = explore(pair, EXHAUSTIVE)
        assert report.stats.complete_interleavings == comb(m + n, n)


class TestReplay:
    def test_trace_0011_gives_ab12(self, ab12):
        assert replay(ab12, "0011").snapshot.output == "ab12"

    def test_empty_trace_is_initial(self, ab12):
        assert replay(ab12, "") == initial_interleaving(ab12)

    def test_invalid_symbol(self, ab12):
        with pytest.raises(ReplayError) as exc:
            replay(ab12, "02")
        assert exc.value.position == 1

    def test_stepping_done_thread_fails(self, ab12):
        with pytest.raises(ReplayError) as exc:
            replay(ab12, "000")
        assert exc.value.position == 2

    def test_blocking_step_fails(self):
        pair = parse("semaphores 1; thread0 { up(0); up(0); } thread1 { down(0); }")
        with pytest.raises(ReplayError) as exc:
            replay(pair, "00")
        assert exc.value.position == 1

    def test_counter_matches_trace_composition(self, ab12):
        for trace in ("", "0", "01", "011", "0110"):
            i = replay(ab12, trace)
            assert i.trace == trace
            assert (trace.count("0") + 1, trace.count("1") + 1) == i.counter


class TestWitnessReplay:
    def check_witnesses(self, pair, cfg):
        report = explore(pair, cfg)
        for outcome in report.outcomes:
            assert replay(pair, outcome.trace).snapshot == outcome.snapshot
        for race in report.races:
            current = replay(pair, race.current_trace)
            assert current.counter == race.counter
            assert current.snapshot == race.current_snapshot
            if race.stored_snapshot is not None:
                stored = replay(pair, race.stored_trace)
                assert stored.counter == race.counter
                assert stored.snapshot == race.stored_snapshot
        for finding in report.deadlocks + report.block_forever:
            i = replay(pair, finding.trace)
            assert i.counter == finding.counter
            # the replayed state is stuck: every unfinished thread would block
            live = [tid for tid in (0, 1) if i.snapshot.status(tid) != DONE]
            assert len(live) == (2 if finding in report.deadlocks else 1)
            for tid in live:
                with pytest.raises(EngineError):
                    step(pair, i, tid)
        return report

    def test_all_bundled_witnesses_replay(self, bundled_programs):
        for pair in bundled_programs.values():
            self.check_witnesses(pair, ExplorationConfig())
            self.check_witnesses(pair, EXHAUSTIVE)

    def test_corpus_findings_replay_to_stuck_states(self):
        deadlocks = block_forever = 0
        for pair in fixed_corpus(200):
            report = self.check_witnesses(pair, EXHAUSTIVE)
            deadlocks += len(report.deadlocks)
            block_forever += len(report.block_forever)
        assert deadlocks and block_forever


class TestPruningSoundness:
    def test_outcome_sets_match_with_and_without_pruning(self, bundled_programs):
        for name, pair in bundled_programs.items():
            pruned = explore(pair, ExplorationConfig(pruning=True))
            free = explore(pair, ExplorationConfig(pruning=False))
            assert {o.snapshot for o in pruned.outcomes} == {
                o.snapshot for o in free.outcomes
            }, name
            assert pruned.race_found == free.race_found, name

    def test_randomized_small_programs(self):
        rng = random.Random(99)
        for _ in range(60):
            pair = random_pair(rng)
            pruned = explore(pair, ExplorationConfig(pruning=True))
            free = explore(pair, ExplorationConfig(pruning=False))
            assert {o.snapshot for o in pruned.outcomes} == {o.snapshot for o in free.outcomes}
            assert pruned.race_found == free.race_found


class TestDigestFidelity:
    def test_same_race_sequence_as_full_mode(self, bundled_programs):
        for name, pair in bundled_programs.items():
            full = explore(pair, ExplorationConfig())
            hashed = explore(pair, ExplorationConfig(digest_mode=True))
            assert [
                (r.counter, r.stored_trace, r.current_trace) for r in full.races
            ] == [(r.counter, r.stored_trace, r.current_trace) for r in hashed.races], name
            assert {o.snapshot for o in full.outcomes} == {o.snapshot for o in hashed.outcomes}
            assert full.stats.races_found == hashed.stats.races_found

    def test_digest_race_reports_carry_digest_only(self):
        pair = parse("var x; thread0 { x = 1; } thread1 { x = 2; }")
        report = explore(pair, ExplorationConfig(digest_mode=True))
        assert report.races
        for race in report.races:
            assert race.stored_snapshot is None
            assert race.stored_digest is not None and len(race.stored_digest) == 16


class TestOracleAgreement:
    def compare(self, pair):
        report = explore(pair, EXHAUSTIVE)
        assert report.complete
        oracle = enumerate_schedules(pair)
        engine_outcomes = {
            (tuple(sorted(o.snapshot.variables)), o.snapshot.output, o.snapshot.semaphores)
            for o in report.outcomes
        }
        assert engine_outcomes == oracle.outcomes
        assert {f.trace for f in report.deadlocks} == oracle.deadlock_traces
        assert {f.trace for f in report.block_forever} == oracle.block_forever_traces
        detection = explore(pair, ExplorationConfig())
        assert detection.race_found == oracle.race

    def test_bundled_corpus(self, bundled_programs):
        for pair in bundled_programs.values():
            self.compare(pair)

    def test_randomized_sample(self):
        rng = random.Random(4321)
        for _ in range(50):
            self.compare(random_pair(rng))


# mode -> (config, race witnesses it reports on fixed_corpus(200))
TABLE_MODES = {
    "pruned-full": (ExplorationConfig(), 317),
    "pruned-digest": (ExplorationConfig(digest_mode=True), 317),
    "unpruned-table": (ExplorationConfig(pruning=False), 701),
}


@pytest.fixture(scope="module")
def corpus_with_oracle():
    return [(pair, enumerate_schedules(pair)) for pair in fixed_corpus(200)]


class TestOracleAgreementTableModes:
    """Every table mode agrees with the brute-force enumerator on the fixed corpus."""

    @pytest.mark.parametrize("mode", TABLE_MODES)
    def test_fixed_corpus(self, mode, corpus_with_oracle):
        cfg, expected_witnesses = TABLE_MODES[mode]
        race_free = witnesses = 0
        for index, (pair, oracle) in enumerate(corpus_with_oracle):
            report = explore(pair, cfg)
            assert report.complete, index
            assert report.race_found == oracle.race, index
            if not oracle.race:
                race_free += 1
                assert {
                    (tuple(sorted(o.snapshot.variables)), o.snapshot.output, o.snapshot.semaphores)
                    for o in report.outcomes
                } == oracle.outcomes, index
                assert bool(report.deadlocks) == oracle.deadlock, index
                assert bool(report.block_forever) == oracle.block_forever, index
            for race in report.races:
                witnesses += 1
                current = replay(pair, race.current_trace)
                stored = replay(pair, race.stored_trace)
                assert current.counter == stored.counter == race.counter, index
                assert current.snapshot == race.current_snapshot, index
                assert stored.snapshot != current.snapshot, index
                if cfg.digest_mode:
                    assert digest(stored.snapshot) == race.stored_digest, index
                else:
                    assert stored.snapshot == race.stored_snapshot, index
        assert race_free == 136
        assert witnesses == expected_witnesses


class TestReportRecords:
    """Outcomes and findings are the states at which the search found them."""

    @pytest.mark.parametrize("mode", [*TABLE_MODES, "no-table"])
    def test_entries_equal_their_replayed_states(self, mode):
        cfg = EXHAUSTIVE if mode == "no-table" else TABLE_MODES[mode][0]
        entries = 0
        for index, pair in enumerate(fixed_corpus(200)):
            report = explore(pair, cfg)
            for entry in report.outcomes + report.deadlocks + report.block_forever:
                entries += 1
                assert entry == replay(pair, entry.trace), index
        assert entries


# The five ways to search: with no table, and with a pruned or unpruned
# table in full or digest mode.
SEARCH_MODES = {
    "exhaustive": EXHAUSTIVE,
    "pruned-full": ExplorationConfig(),
    "unpruned-full": ExplorationConfig(pruning=False),
    "pruned-digest": ExplorationConfig(digest_mode=True),
    "unpruned-digest": ExplorationConfig(pruning=False, digest_mode=True),
}


def is_flat(snapshot, pair):
    """Whether ``snapshot`` is exactly a ``Snapshot`` of ``pair`` whose values are flat."""
    values = snapshot.values
    return (type(snapshot) is Snapshot and type(values) is tuple
            and len(values) == len(pair.names) and all(type(v) is int for v in values))


def canonical_text(snapshot):
    """``snapshot.canonical()`` as its docstring lays it out, for outputs that need no escape."""
    statuses = ("done" if s == DONE else f"run@{s}" for s in (snapshot.status0, snapshot.status1))
    return ("vars{" + ",".join(f"{n}={v}" for n, v in snapshot.variables) + "};"
            + f'out="{snapshot.output}";'
            + "sems=" + "".join("U" if up else "D" for up in snapshot.semaphores)
            + ";st0={};st1={}".format(*statuses))


# every program of the fixed corpus, then the first 60 of them widened to 17,
# 18 and 33 variables, which the search holds in chunks
EDGE_CORPUS = fixed_corpus(200) + [wide for _, wide in wide_corpus(60)]


class TestSnapshotsAtTheEdge:
    """The search steps plain tuples; every snapshot that leaves it is a flat ``Snapshot``."""

    @pytest.mark.parametrize("mode", SEARCH_MODES)
    def test_every_reported_snapshot_is_a_snapshot(self, mode):
        cfg = SEARCH_MODES[mode]
        entries = races = shared = 0
        for index, pair in enumerate(EDGE_CORPUS):
            report = explore(pair, cfg)
            for entry in report.outcomes + report.deadlocks + report.block_forever:
                entries += 1
                assert type(entry) is PartialInterleaving, index
                assert is_flat(entry.snapshot, pair), index
            stored_at = {}
            for race in report.races:
                races += 1
                assert is_flat(race.current_snapshot, pair), index
                if cfg.digest_mode:
                    assert race.stored_snapshot is None, index
                    continue
                assert is_flat(race.stored_snapshot, pair), index
                if race.counter in stored_at:
                    # races at one counter share the stored side's one object
                    assert race.stored_snapshot is stored_at[race.counter], index
                    shared += 1
                stored_at[race.counter] = race.stored_snapshot
        assert entries
        assert bool(races) == cfg.race_detection
        if cfg.race_detection and not cfg.digest_mode:
            assert shared

    def test_public_stepping_returns_snapshots(self):
        for index, pair in enumerate(EDGE_CORPUS):
            i = initial_interleaving(pair)
            assert is_flat(i.snapshot, pair), index
            for outcome in explore(pair, EXHAUSTIVE).outcomes:
                i, searched = initial_interleaving(pair), engine._start(pair)
                for symbol in outcome.trace:
                    tid = int(symbol)
                    # a compiled transition steps the search's (values, output, bank)
                    transition = pair.compiled.transitions[tid][i.snapshot.status(tid)]
                    searched = transition(searched)
                    i = step(pair, i, tid)
                    assert type(i) is type(searched) is PartialInterleaving, index
                    assert is_flat(i.snapshot, pair), index
                    assert engine._reported(pair, searched) == i, index
                replayed = replay(pair, outcome.trace)
                assert is_flat(replayed.snapshot, pair), index
                assert replayed == i == outcome, index

    def test_a_wide_programs_flat_plain_tuple_steps_as_its_snapshot(self):
        for index, (_, pair) in enumerate(wide_corpus(60)):
            report = explore(pair, EXHAUSTIVE)
            outcome = (report.outcomes + report.deadlocks + report.block_forever)[0]
            i = initial_interleaving(pair)
            for symbol in outcome.trace:
                plain = i._replace(snapshot=tuple(i.snapshot))
                i = step(pair, i, int(symbol))
                stepped = step(pair, plain, int(symbol))
                assert stepped == i and len(stepped.snapshot[1]) == len(pair.names), index
                assert all(type(value) is int for value in stepped.snapshot[1]), index
            assert i == outcome, index

    def test_a_wide_programs_flat_plain_tuple_is_digested_and_visited(self):
        for index, (_, pair) in enumerate(wide_corpus(60)):
            report = explore(pair, EXHAUSTIVE)
            outcome = (report.outcomes + report.deadlocks + report.block_forever)[-1]
            snapshot = outcome.snapshot
            plain = tuple(snapshot)
            text = canonical_text(snapshot)
            assert snapshot.canonical() == text, index
            assert snapshot_formatter(pair.names)(plain) == text, index
            assert digest(plain) == digest(snapshot), index
            # a table made for the program is fed the search's state, values in chunks
            i = searched(pair, outcome.trace)
            values, output, bank = i.snapshot
            chunks = (*values[:-1], (*values[-1][:-1], values[-1][-1] + 1))
            other = i._replace(snapshot=(chunks, output, bank), trace="x")
            table = StateTable(False, pair)
            table.visit(i)
            assert table.visit(i) is _PRUNED_EQUAL, index
            race = table.visit(other)
            assert race.stored_snapshot == snapshot and is_flat(race.stored_snapshot, pair), index
            changed = snapshot._replace(values=(*snapshot.values[:-1], snapshot.values[-1] + 1))
            assert race.current_snapshot == changed and is_flat(race.current_snapshot, pair), index
            assert table.visit(i) is _PRUNED_EQUAL, index  # the entry, now flat, still prunes
            hashed = StateTable(True, pair)
            hashed.visit(i)
            assert hashed.visit(i) is _PRUNED_EQUAL, index
            race = hashed.visit(other)
            assert type(race) is Race and race.stored_digest == digest(snapshot), index
            assert race.current_snapshot == changed and is_flat(race.current_snapshot, pair), index


class TestSearchHotPath:
    """What the search hands to ``engine.step``, where a tracer wraps it."""

    @pytest.mark.parametrize("mode", SEARCH_MODES)
    def test_the_search_steps_plain_snapshots(self, monkeypatch, mode):
        calls = []

        def recording_step(pair, i, tid):
            calls.append(i)
            assert type(i) is PartialInterleaving
            assert type(i.snapshot) is tuple
            # a tracer finds the statement about to run from the counter
            assert 1 <= i.counter[tid] <= len(pair.thread(tid).statements)
            return step(pair, i, tid)

        monkeypatch.setattr(engine, "step", recording_step)
        for pair in fixed_corpus(50):
            explore(pair, SEARCH_MODES[mode])
        assert calls
