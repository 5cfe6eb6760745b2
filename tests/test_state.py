import gc
import hashlib
import json
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import report_oracle
from conftest import child_env
from corpus import PADDINGS, fixed_corpus, random_pair, widen
from paircheck import disjoint_pair, engine, state
from paircheck.engine import (
    ExplorationConfig, ExplorationReport, ExplorationStats, explore, initial_interleaving, replay,
    step,
)
from paircheck.report import _json_members, render_report
from paircheck.state import (
    _FIRST_VISIT,
    _PRUNED_EQUAL,
    DONE,
    UNROLL_LIMIT,
    FirstVisit,
    PartialInterleaving,
    PrunedEqual,
    Race,
    Snapshot,
    StateTable,
    digest,
)
from paircheck.toylang import Emit, ProgramPair, ThreadProgram, parse
from test_analysis import RACY_24
from test_engine import searched

AB12 = parse('thread0 { emit "a"; emit "b"; } thread1 { emit "1"; emit "2"; }')
COMMUTING = parse("var x; var y; thread0 { x = x + 1; } thread1 { y = y + 1; }")


def make_snapshot(**overrides):
    fields = dict(
        names=("x", "y"),
        values=(1, 2),
        output="ab",
        semaphores=(True, False),
        status0=1,
        status1=DONE,
    )
    fields.update(overrides)
    return Snapshot(**fields)


class TestSnapshotEqual:
    def test_reflexive(self):
        snap = make_snapshot()
        assert snap == snap

    def test_output_difference(self):
        assert make_snapshot(output="ab") != make_snapshot(output="a1")

    def test_each_field_participates(self):
        base = make_snapshot()
        assert base != make_snapshot(values=(1, 3))
        assert base != make_snapshot(semaphores=(True, True))
        assert base != make_snapshot(status0=0)
        assert base != make_snapshot(status1=0)

    def test_commuting_orders_produce_equal_snapshots(self):
        # independent check: execute both orders by hand on plain dicts
        for order in ("01", "10"):
            values = {"x": 0, "y": 0}
            for tid in order:
                if tid == "0":
                    values["x"] += 1
                else:
                    values["y"] += 1
            assert values == {"x": 1, "y": 1}
        a = replay(COMMUTING, "01").snapshot
        b = replay(COMMUTING, "10").snapshot
        assert a == b


class TestSlotLayout:
    def test_variables_and_variable_read_the_slots(self):
        snap = make_snapshot()
        assert snap.variables == (("x", 1), ("y", 2))
        assert (snap.variable("x"), snap.variable("y")) == (1, 2)
        with pytest.raises(KeyError):
            snap.variable("z")

    def test_names_take_part_in_equality_and_hash(self):
        a, b = make_snapshot(), make_snapshot(names=("p", "q"))
        assert a != b and len({a, b}) == 2
        assert hash(a) == hash(tuple(a)) and hash(b) == hash(tuple(b))

    def test_snapshots_of_one_program_share_names(self):
        pair = parse("var y; var x; thread0 { x = 1; y = x; } thread1 { x = 2; }")
        assert pair.names == ("x", "y")
        report = explore(pair, ExplorationConfig(pruning=False))
        snapshots = [o.snapshot for o in report.outcomes]
        snapshots += [r.current_snapshot for r in report.races]
        snapshots += [r.stored_snapshot for r in report.races]
        assert report.races
        assert all(snap.names is pair.names for snap in snapshots)


_snapshots = st.builds(
    Snapshot,
    names=st.just(("x", "y")),
    values=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    output=st.sampled_from(["", "a", "ab", "1a"]),
    semaphores=st.tuples(st.booleans(), st.booleans()),
    status0=st.sampled_from([0, 1, 2, DONE]),
    status1=st.sampled_from([0, 1, 2, DONE]),
)


@given(a=_snapshots, b=_snapshots, c=_snapshots)
def test_snapshot_equal_is_equivalence(a, b, c):
    assert a == a
    assert (a == b) == (b == a)
    if a == b and b == c:
        assert a == c


def emits(length0, length1):
    """A program whose threads emit ``a`` ``length0`` times and ``b`` ``length1`` times."""
    return ProgramPair(ThreadProgram((Emit("a"),) * length0), ThreadProgram((Emit("b"),) * length1),
                       num_semaphores=0, variables=())


# the longest threads a program has: a table made for it covers counters up to UNROLL_LIMIT + 1
LONGEST = emits(UNROLL_LIMIT, UNROLL_LIMIT)


def along(table, pair, trace):
    """``table``'s results for the search's interleaving after each prefix of ``trace``.

    The prefixes are fed in order from the root, as the search reaches them,
    so each first visit among them is stepped from the visit before it.
    """
    i = engine._start(pair)
    results = [table.visit(i)]
    for symbol in trace:
        i = step(pair, i, int(symbol))
        results.append(table.visit(i))
    return results


# the interleavings fed to a table, the race then fed, and the counter its walk stops at
_UNLINKED = {
    # (2, 2) is stored by "01", but (2, 1), where its link leads, was never
    # visited: the table was not fed in the search's order
    "": ([searched(AB12, ""), searched(AB12, "01")], searched(AB12, "10"), (2, 1)),
    # the root fed with the trace "1" links to (1, 0), below the lattice's
    # first point: no trace is made up for it
    "-root-link": ([searched(AB12, "")._replace(trace="1")],
                   searched(AB12, "01")._replace(counter=(1, 1)), (1, 0)),
}


class TestStateTable:
    """A table made for a program, fed the search's ``(values, output, bank)`` in its order."""

    def test_empty_table_first_visit(self):
        table = StateTable(False, AB12)
        assert isinstance(table.visit(searched(AB12, "0")), FirstVisit)
        assert len(table) == 1

    def test_order_dependent_output_is_race(self):
        table = StateTable(False, AB12)
        current = searched(AB12, "10")  # output "1a"
        # the search's first path reaches (2, 2) by "01", output "a1"
        assert along(table, AB12, "01") == [_FIRST_VISIT] * 3
        *_, outcome = along(table, AB12, "10")
        assert isinstance(outcome, Race)
        assert outcome.counter == current.counter
        assert type(outcome.stored_snapshot) is type(outcome.current_snapshot) is Snapshot
        assert outcome.stored_snapshot == replay(AB12, "01").snapshot
        assert outcome.stored_digest is None
        assert outcome.stored_trace == "01"
        assert outcome.current_trace == current.trace
        assert outcome.current_snapshot == replay(AB12, "10").snapshot
        assert outcome.stored_snapshot != outcome.current_snapshot

    def test_commuting_states_prune(self):
        table = StateTable(False, COMMUTING)
        table.visit(searched(COMMUTING, "10"))
        assert isinstance(table.visit(searched(COMMUTING, "01")), PrunedEqual)
        assert len(table) == 1

    def test_never_evicts(self):
        table = StateTable(False, AB12)
        along(table, AB12, "01")
        along(table, AB12, "1")
        outcomes = [table.visit(searched(AB12, trace)) for trace in ("01", "10", "01")]
        assert [type(outcome) for outcome in outcomes] == [PrunedEqual, Race, PrunedEqual]
        # the first visit is still the one a later race reports, as the first race's Snapshot
        outcome = table.visit(searched(AB12, "10"))
        assert isinstance(outcome, Race)
        assert outcome.counter == (2, 2)
        assert outcome.stored_snapshot is outcomes[1].stored_snapshot
        assert outcome.stored_snapshot == replay(AB12, "01").snapshot
        assert outcome.stored_trace == "01"
        assert outcome.stored_trace is outcomes[1].stored_trace  # rebuilt once, then kept
        assert len(table) == 4

    def test_digest_mode_stores_digest_and_trace(self):
        table = StateTable(True, AB12)
        assert along(table, AB12, "01") == [_FIRST_VISIT] * 3
        *_, outcome = along(table, AB12, "10")
        assert isinstance(outcome, Race)
        assert outcome.stored_trace == "01"
        assert outcome.stored_snapshot is None
        assert outcome.stored_digest == digest(replay(AB12, "01").snapshot)
        assert outcome.current_snapshot == replay(AB12, "10").snapshot

    def test_digest_mode_prunes_equal(self):
        table = StateTable(True, COMMUTING)
        table.visit(searched(COMMUTING, "10"))
        assert isinstance(table.visit(searched(COMMUTING, "01")), PrunedEqual)

    @pytest.mark.parametrize("digest_mode", [False, True], ids=["full", "digest"])
    def test_far_apart_counters_store_and_prune_apart(self, digest_mode):
        pair = emits(500, 500)
        visits = [searched(pair, trace) for trace in ("1" * 499, "0" * 499, "")]
        assert [i.counter for i in visits] == [(1, 500), (500, 1), (1, 1)]
        table = StateTable(digest_mode, pair)
        assert along(table, pair, "0" * 499) == [_FIRST_VISIT] * 500
        assert along(table, pair, "1" * 499) == [_PRUNED_EQUAL] + [_FIRST_VISIT] * 499
        assert len(table) == 999
        for k, i in enumerate(visits):
            assert isinstance(table.visit(i._replace(trace="1")), PrunedEqual)
            other = i._replace(snapshot=visits[k - 1].snapshot, trace="10")
            outcome = table.visit(other)
            assert isinstance(outcome, Race)
            assert (outcome.counter, outcome.stored_trace) == (i.counter, i.trace)
        assert len(table) == 999

    @pytest.mark.parametrize("digest_mode", [False, True], ids=["full", "digest"])
    def test_a_completion_step_after_a_race_keeps_its_first_visits_trace(self, digest_mode):
        # Thread 1 ends first.  The first visit at (3, 3), by "0011", would
        # block forever on the raised semaphore; "0110" races it there with
        # the semaphore lowered, and as a completion step goes on to (4, 3).
        # That first visit was not stepped from its predecessor's, so no link
        # leads back to its trace: the edge keeps it whole.
        pair = parse("semaphores 1; thread0 { emit \"a\"; down(0); up(0); } "
                     "thread1 { up(0); emit \"b\"; }")
        cfg = ExplorationConfig(digest_mode=digest_mode)
        visits = search_visits(pair, cfg)
        first = {}
        for i in visits:
            first.setdefault(i.counter, i.trace)
        assert first[(3, 3)] == "0011" and first[(4, 3)] == "01100"
        report = explore(pair, cfg)
        assert [(r.counter, r.stored_trace, r.current_trace) for r in report.races] == [
            ((3, 2), "001", "010"), ((3, 3), "0011", "0110"), ((2, 3), "011", "110"),
            ((3, 3), "0011", "1100"), ((4, 3), "01100", "11000")]
        for race in report.races:
            stored = replay(pair, race.stored_trace)
            assert stored.counter == race.counter
            assert race.stored_snapshot in (None, stored.snapshot)
            assert race.stored_digest in (None, digest(stored.snapshot))

    @pytest.mark.parametrize("digest_mode", [False, True], ids=["full", "digest"])
    def test_a_race_rebuilds_the_stored_trace_from_the_links(self, digest_mode):
        # each first visit here is stepped from its predecessor's, so its link
        # byte and the trace kept back along the links make its trace: (2, 2)'s
        # first race walks back to the root, and the races at (3, 2) and
        # (2, 3) take one link back to the trace then kept at (2, 2)
        pair = emits(3, 3)
        table = StateTable(digest_mode, pair)
        assert along(table, pair, "100") == [_FIRST_VISIT] * 4
        assert along(table, pair, "101")[-1] is _FIRST_VISIT
        races = [outcome for outcome in along(table, pair, "010") + along(table, pair, "011")
                 if type(outcome) is Race]
        assert [(race.counter, race.stored_trace) for race in races] == [
            ((2, 2), "10"), ((3, 2), "100"), ((2, 2), "10"), ((2, 3), "101")]
        assert races[2].stored_trace is races[0].stored_trace

    @pytest.mark.parametrize("digest_mode, case", [
        pytest.param(digest_mode, case, id=name + case)
        for case in _UNLINKED for digest_mode, name in [(False, "full"), (True, "digest")]])
    def test_a_walk_to_a_point_without_a_link_is_refused(self, digest_mode, case):
        fed, raced, missing = _UNLINKED[case]
        table = StateTable(digest_mode, AB12)
        for i in fed:
            assert table.visit(i) is _FIRST_VISIT
        with pytest.raises(ValueError, match=re.escape(repr(missing)) + ".*search's order"):
            table.visit(raced)

    @pytest.mark.parametrize("digest_mode", [False, True], ids=["full", "digest"])
    @pytest.mark.parametrize("counter", [(-1, 1), (1, -1), (-1, -1)])
    def test_a_negative_counter_is_refused(self, digest_mode, counter):
        # as an index, -1 would name the last row or point, here (3, 3)'s
        table = StateTable(digest_mode, AB12)
        start = searched(AB12, "")
        table.visit(start)
        with pytest.raises(ValueError, match="counter"):
            table.visit(start._replace(counter=counter))
        assert len(table) == 1

    @pytest.mark.parametrize("digest_mode", [False, True], ids=["full", "digest"])
    @pytest.mark.parametrize("counter", [(UNROLL_LIMIT + 2, 1), (1, UNROLL_LIMIT + 2)])
    def test_a_counter_past_the_longest_thread_is_refused(self, digest_mode, counter):
        # no thread is longer than UNROLL_LIMIT, so no program's counter passes
        # UNROLL_LIMIT + 1, the last point of the longest program's table
        table = StateTable(digest_mode, LONGEST)
        start = searched(LONGEST, "")
        table.visit(start)
        with pytest.raises(ValueError, match="counter"):
            table.visit(start._replace(counter=counter))
        assert len(table) == 1
        last = tuple(min(c, UNROLL_LIMIT + 1) for c in counter)
        assert table.visit(start._replace(counter=last)) is _FIRST_VISIT
        assert len(table) == 2

    @pytest.mark.parametrize("digest_mode", [False, True], ids=["full", "digest"])
    @pytest.mark.parametrize(
        "lengths", [(0, 0), (2, 2), (40, 40), (0, 40), (40, 2)], ids=lambda pair: "%d+%d" % pair
    )
    def test_a_program_table_refuses_a_counter_past_its_threads(self, digest_mode, lengths):
        # the table covers counters 0 to each thread's length plus one, made once
        len0, len1 = lengths
        pair = emits(len0, len1)
        table = StateTable(digest_mode, pair)
        start = searched(pair, "")
        for counter in [(len0 + 2, 1), (1, len1 + 2), (len0 + 2, len1 + 2)]:
            with pytest.raises(ValueError, match="counter"):
                table.visit(start._replace(counter=counter))
        assert len(table) == 0
        assert table.visit(start._replace(counter=(len0 + 1, len1 + 1))) is _FIRST_VISIT
        assert table.visit(start._replace(counter=(len0 + 1, len1 + 1))) is _PRUNED_EQUAL
        assert len(table) == 1


class _DictTable:
    """The state table as a dict keyed on the counter, the reference for its rows."""

    def __init__(self, digest_mode):
        self.digest_mode, self.entries = digest_mode, {}

    def visit(self, snapshot, trace, counter):
        if counter not in self.entries:
            self.entries[counter] = snapshot, trace
            return FirstVisit
        stored, stored_trace = self.entries[counter]
        if stored == snapshot:
            return PrunedEqual
        if self.digest_mode:
            return Race(counter, stored_trace, None, digest(stored), trace, snapshot)
        return Race(counter, stored_trace, stored, None, trace, snapshot)


class _RecordingTable(StateTable):
    """A state table that keeps every interleaving it is fed, in order."""

    def __init__(self, digest_mode, program):
        super().__init__(digest_mode, program)
        self.visits = []

    def visit(self, interleaving):
        self.visits.append(interleaving)
        return super().visit(interleaving)


def search_visits(pair, cfg):
    """The interleavings ``explore(pair, cfg)`` feeds its state table, in its order."""
    tables = []

    def recording(digest_mode, program):
        tables.append(_RecordingTable(digest_mode, program))
        return tables[-1]

    with mock.patch.object(engine, "StateTable", recording):
        explore(pair, cfg)
    return tables[0].visits


@pytest.mark.parametrize("digest_mode", [False, True], ids=["full", "digest"])
@given(rng=st.randoms(use_true_random=False), padding=st.sampled_from([None, *PADDINGS]),
       budget=st.sampled_from([7, 25, 1_000_000]), statements=st.sampled_from([5, 12]))
def test_a_program_table_agrees_with_a_dict_of_flat_snapshots(digest_mode, rng, padding, budget,
                                                              statements):
    # the table holds the search's triples and rebuilds the stored traces; the
    # reference, the flat Snapshot each one is at its counter and its trace,
    # both fed what the search feeds its table, pruned and not; at 12
    # statements a thread, a walk follows up to 19 links
    pair = random_pair(rng, max_statements=statements)
    if padding is not None:
        pair = widen(pair, padding)  # 17 to 33 variables, held in chunks
    for pruning in (True, False):
        cfg = ExplorationConfig(pruning=pruning, digest_mode=digest_mode, max_total_steps=budget)
        table, reference = StateTable(digest_mode, pair), _DictTable(digest_mode)
        for i in search_visits(pair, cfg):
            want = reference.visit(engine._reported(pair, i).snapshot, i.trace, i.counter)
            got = table.visit(i)
            if isinstance(want, Race):
                assert type(got) is Race and got == want
                assert replay(pair, got.stored_trace).counter == i.counter
                assert type(got.current_snapshot) is Snapshot
                assert digest_mode or type(got.stored_snapshot) is Snapshot
            else:
                assert type(got) is want
            assert len(table) == len(reference.entries)


def _revisit(stored, tag_matches):
    """``stored``, a search's interleaving, with a state unequal to its own whose tag matches or not.

    Searches the first variable's value, so it finds one under any hash seed.
    """
    (_, *rest), output, bank = stored.snapshot
    for value in range(2, 10_000):
        other = (value, *rest), output, bank
        if (hash(other) & 0xFF == hash(stored.snapshot) & 0xFF) == tag_matches:
            return stored._replace(snapshot=other, trace="10")
    raise AssertionError("no state found")


class TestDigestTag:
    """In digest mode a revisit is digested only when its one-byte hash tag matches."""

    @pytest.fixture
    def digest_calls(self, monkeypatch):
        calls = []

        def counting_digest(snapshot):
            calls.append(snapshot)
            return digest(snapshot)

        monkeypatch.setattr(state, "digest", counting_digest)
        return calls

    def _race(self, stored, current, digest_calls):
        table = StateTable(True, COMMUTING)
        assert isinstance(table.visit(stored), FirstVisit)
        digest_calls.clear()
        outcome = table.visit(current)
        assert isinstance(outcome, Race)
        assert outcome.stored_snapshot is None
        assert outcome.stored_digest == digest(engine._reported(COMMUTING, stored).snapshot)
        assert (outcome.stored_trace, outcome.current_trace) == ("01", "10")
        assert outcome.current_snapshot == engine._reported(COMMUTING, current).snapshot

    def test_a_differing_tag_is_a_race_without_a_digest(self, digest_calls):
        stored = searched(COMMUTING, "01")
        self._race(stored, _revisit(stored, False), digest_calls)
        assert digest_calls == []

    def test_a_colliding_tag_is_still_a_race(self, digest_calls):
        stored = searched(COMMUTING, "01")
        current = _revisit(stored, True)
        self._race(stored, current, digest_calls)
        # the table digests the Snapshot at the counter, as a plain tuple
        assert digest_calls == [engine._reported(COMMUTING, current).snapshot]

    def test_an_equal_revisit_is_digested_once_and_pruned(self, digest_calls):
        table = StateTable(True, COMMUTING)
        table.visit(searched(COMMUTING, "10"))
        digest_calls.clear()
        assert isinstance(table.visit(searched(COMMUTING, "01")), PrunedEqual)
        assert len(digest_calls) == 1

    def test_full_mode_digests_nothing(self, digest_calls):
        stored = searched(COMMUTING, "01")
        table = StateTable(False, COMMUTING)
        table.visit(stored)
        assert isinstance(table.visit(stored._replace(trace="10")), PrunedEqual)
        assert isinstance(table.visit(_revisit(stored, True)), Race)
        assert digest_calls == []


def _search_peak(pair, cfg):
    """``explore(pair, cfg)``'s report and its peak of traced memory, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        report = explore(pair, cfg)
        return report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_digest_search_peaks_at_about_a_digest_an_entry():
    # disjoint_pair(60) fills its 61 x 61 points, half of its visits equal; a
    # table that kept each first visit's trace peaked at about 196 bytes an
    # entry, one that keeps a link byte instead, and the edge's traces, at 86,
    # and one that keeps a link string in a list row, or a trace, at 91
    report, peak = _search_peak(disjoint_pair(60), ExplorationConfig(digest_mode=True))
    assert report.stats.table_entries == 61 * 61
    assert peak / report.stats.table_entries < 140


@pytest.mark.parametrize("digest_mode", [False, True], ids=["full", "digest"])
def test_a_search_makes_only_the_rows_it_reaches(digest_mode):
    # the lattice of two 1,024-statement threads is 1,026 x 1,026 points: made
    # whole, its rows peaked at 16 MiB (full) and 24 MiB (digest)
    cfg = ExplorationConfig(digest_mode=digest_mode, max_total_steps=0)
    report, peak = _search_peak(LONGEST, cfg)
    assert not report.complete and report.stats.table_entries == 1
    assert peak < 1 << 20
    table = StateTable(digest_mode, LONGEST)
    along(table, LONGEST, "0" * 3)
    assert [row is not None for row in table._stored[:6]] == [False, True, True, True, True, False]


def test_digest_report_does_not_depend_on_the_hash_seed(tmp_path):
    # the hash seed picks which snapshots the tag tells apart, never the report
    source = tmp_path / "racy.toy"
    source.write_text(RACY_24, encoding="utf-8")
    outputs = set()
    argv = ["check", "--digest", "--format", "json", str(source)]
    for seed in ("0", "1", "4242"):
        proc = subprocess.run(
            [sys.executable, "-m", "paircheck", *argv],
            env=child_env(PYTHONHASHSEED=seed),
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 1 and proc.stderr == b""
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    report = explore(parse(RACY_24), ExplorationConfig(digest_mode=True))
    assert report.races and report.stats.pruned_subtrees


class TestDigest:
    def test_deterministic(self):
        snap = make_snapshot()
        assert digest(snap) == digest(snap)
        assert len(digest(snap)) == 16

    def test_stable_across_runs(self):
        # frozen reference value; guards cross-process/platform stability
        snap = initial_interleaving(AB12).snapshot
        assert snap.canonical() == 'vars{};out="";sems=;st0=run@0;st1=run@0'
        assert digest(snap).hex() == "63eabeac9174ad7e3455f65915d9b9c2"

    def test_randomized_pairs_differ(self):
        rng = random.Random(7)
        names = ("a", "b", "c")
        for _ in range(1000):
            values = [rng.randrange(-100, 100) for _ in names]
            snap = make_snapshot(names=names, values=tuple(values))
            idx = rng.randrange(len(names))
            changed = list(values)
            changed[idx] += rng.choice([1, -1, 17])
            other = make_snapshot(names=names, values=tuple(changed))
            assert digest(snap) != digest(other)

    def test_lone_surrogates_digest_apart(self):
        # only the library API can pass a lone surrogate; it hashes as its surrogatepass bytes
        high = digest(make_snapshot(output="\ud800"))
        low = digest(make_snapshot(output="\udc00"))
        assert len(high) == len(low) == 16
        assert high != low

    def test_blake2b_is_hashlibs_and_the_fallback_digests_alike(self, monkeypatch):
        import hashlib

        snap = initial_interleaving(AB12).snapshot
        digest(snap)
        assert state._blake2b is hashlib.blake2b
        # an interpreter without the _blake2 module takes hashlib's constructor
        monkeypatch.setitem(sys.modules, "_blake2", None)
        monkeypatch.setattr(state, "_blake2b", None)
        assert digest(snap).hex() == "63eabeac9174ad7e3455f65915d9b9c2"
        assert state._blake2b is hashlib.blake2b


# variable names that are format directives, which the encoder must not expand
_FORMAT_NAMES = ProgramPair(ThreadProgram(()), ThreadProgram(()), 0, (("%s", 0), ("{}", 0)))
# a hand-built status below DONE: its text is run@-2, never a run@ index of the thread
_STATUS_BELOW_DONE = parse("var x; thread0 { x = 1; x = 2; } thread1 { x = 3; }")


@st.composite
def _program_snapshots(draw):
    """A hand-built program and one snapshot of it, its statuses in range or not."""
    names = draw(st.lists(st.text("xy%{}=,", min_size=1, max_size=3), unique=True, max_size=4))
    lengths = [draw(st.sampled_from([0, 1, 3, 1024])) for _ in range(2)]
    semaphores = tuple(draw(st.lists(st.booleans(), max_size=8)))
    pair = ProgramPair(
        *(ThreadProgram((Emit("a"),) * length) for length in lengths),
        num_semaphores=len(semaphores),
        variables=tuple((name, 0) for name in names),
    )
    extreme = st.sampled_from([-(2**63), 2**63 - 1, -1, 0])
    values = [draw(extreme | st.integers(-(2**63), 2**63 - 1)) for _ in names]
    special = st.sampled_from(['\\', '"', "\n", "\t", "\r", "%", "{", "a", "\ud800", "\x00", "é"])
    statuses = [
        draw(st.sampled_from([
            DONE, *range(length)[:2], *range(length)[-1:], -2, length, length + 3,
        ]))
        for length in lengths
    ]
    snapshot = Snapshot(
        names=pair.names,
        values=tuple(values),
        output=draw(st.text(special) | st.text()),
        semaphores=semaphores,
        status0=statuses[0],
        status1=statuses[1],
    )
    return pair, snapshot


def _blake2b_128(text):
    """The digest of a canonical text, hashed here rather than by ``state.digest``."""
    return hashlib.blake2b(text.encode("utf-8", "surrogatepass"), digest_size=16).digest()


def _assert_one_layout(encode, snapshot):
    """The program's formatter, ``canonical()`` and the reference agree, and so do their digests."""
    assert encode(snapshot) == snapshot.canonical() == report_oracle.canonical(snapshot)
    reference = _blake2b_128(report_oracle.canonical(snapshot))
    assert _blake2b_128(encode(snapshot)) == digest(snapshot) == reference


class TestCompiledEncoder:
    """A program's snapshot formatter and ``Snapshot.canonical`` write the reference layout."""

    def test_every_state_an_exhaustive_search_reaches(self, monkeypatch):
        reached = []

        def recording_step(pair, i, tid):
            successor = step(pair, i, tid)
            # the search steps (values, output, bank); the same state as a Snapshot
            reached.append(engine._reported(pair, successor).snapshot)
            return successor

        monkeypatch.setattr(engine, "step", recording_step)
        for pair in fixed_corpus(200):
            reached[:] = [initial_interleaving(pair).snapshot]
            explore(pair, ExplorationConfig(pruning=False, race_detection=False))
            for snap in reached:
                _assert_one_layout(state.snapshot_formatter(pair.names), snap)

    @given(_program_snapshots())
    @example((_FORMAT_NAMES, initial_interleaving(_FORMAT_NAMES).snapshot))
    @example((
        _STATUS_BELOW_DONE,
        initial_interleaving(_STATUS_BELOW_DONE).snapshot._replace(status0=-2),
    ))
    def test_hand_built_programs(self, case):
        pair, snapshot = case
        _assert_one_layout(state.snapshot_formatter(pair.names), snapshot)


class TestJsonMembers:
    """A program's JSON snapshot members are ``json.dumps``'s, whatever the statuses."""

    @given(_program_snapshots(), st.sampled_from(["  ", " " * 6, " " * 10]))
    @example((_FORMAT_NAMES, initial_interleaving(_FORMAT_NAMES).snapshot), "  ")
    @example(
        (
            _STATUS_BELOW_DONE,
            initial_interleaving(_STATUS_BELOW_DONE).snapshot._replace(
                status0=-2, status1=len(_STATUS_BELOW_DONE.thread1.statements) + 3
            ),
        ),
        " " * 10,
    )
    def test_hand_built_programs(self, case, pad):
        pair, snapshot = case
        members = _json_members(pair.names, pad)(snapshot)
        outer = pad[2:]  # the snapshot object's braces sit one level out
        expected = json.dumps(report_oracle._snapshot_dict(snapshot), indent=2)
        assert "{\n" + pad + members + "\n" + outer + "}" == expected.replace("\n", "\n" + outer)


@st.composite
def _snapshot_runs(draw):
    """One program and a run of its snapshots that repeats, so each memo is missed and hit."""
    sems = draw(st.sampled_from([0, 1, 9]))
    lengths = [draw(st.sampled_from([0, 1, 3])) for _ in range(2)]
    pair = ProgramPair(
        *(ThreadProgram((Emit("a"),) * length) for length in lengths),
        num_semaphores=sems,
        variables=(("x", 0),),
    )
    mixed = st.text(st.sampled_from(["\\", '"', "\n", "\t", "\r", "a", "%", "\ud800"]))
    snapshot = st.builds(
        Snapshot,
        names=st.just(pair.names),
        values=st.tuples(st.integers(-3, 3)),
        output=mixed | st.text(),
        semaphores=st.tuples(*[st.booleans()] * sems),
        **{
            f"status{tid}": st.sampled_from([DONE, -2, 0, length, length + 3])
            for tid, length in enumerate(lengths)
        },
    )
    run = draw(st.lists(snapshot, min_size=1, max_size=12))
    return pair, run + run[::-1] + run


class TestFormatterMemos:
    """One formatter over many snapshots writes what a fresh one would, memo hit or miss."""

    @given(_snapshot_runs())
    @example((_STATUS_BELOW_DONE, [initial_interleaving(_STATUS_BELOW_DONE).snapshot] * 2))
    def test_one_formatter_many_snapshots(self, case):
        pair, run = case
        encode = state.snapshot_formatter(pair.names)
        for snapshot in run:
            assert encode(snapshot) == report_oracle.canonical(snapshot)
            assert digest(snapshot) == _blake2b_128(report_oracle.canonical(snapshot))
        # each report formats every snapshot of the run with one formatter per format
        outcomes = tuple(PartialInterleaving(snapshot, "01", (2, 2)) for snapshot in run)
        full = tuple(
            Race((2, 2), "01", stored, None, "10", current) for stored, current in zip(run, run[1:])
        )
        hashed = tuple(
            Race((2, 2), "01", None, digest(stored), "10", current)
            for stored, current in zip(run, run[1:])
        )
        for races, digest_mode in ((full, False), (hashed, True)):
            stats = ExplorationStats(0, 0, 0, 0, 0, 0)
            report = ExplorationReport(outcomes, races, (), (), stats, True, digest_mode)
            for fmt in ("json", "text"):
                assert render_report(report, fmt) == report_oracle.render_report(report, fmt)

    def test_statuses_past_the_memo_bound(self):
        # more distinct statuses than a memo keeps: the misses past it are made each time
        encode = state.snapshot_formatter(_STATUS_BELOW_DONE.names)
        base = initial_interleaving(_STATUS_BELOW_DONE).snapshot
        for status in [*range(3000), *range(3000)]:
            snapshot = base._replace(status0=status, status1=-status - 2)
            assert encode(snapshot) == report_oracle.canonical(snapshot)


# A fresh interpreter whose first snapshot formatted, in each layout, has no
# variables: CPython shares one empty tuple, so a kept-writer slot that starts
# on () would find no writer for it.
_NO_VARIABLES_FIRST = """
import hashlib

import report_oracle
from paircheck import ExplorationConfig, explore, parse, render_report
from paircheck.engine import replay
from paircheck.state import digest

pair = parse('semaphores 1; thread0 { emit "a"; up(0); } thread1 { emit "b"; down(0); }')
snapshot = replay(pair, "01").snapshot
assert snapshot.names == ()
text = report_oracle.canonical(snapshot)
assert snapshot.canonical() == text
assert digest(snapshot) == hashlib.blake2b(text.encode(), digest_size=16).digest()
for config in (ExplorationConfig(), ExplorationConfig(digest_mode=True)):
    report = explore(pair, config)
    for fmt in ("json", "text"):
        assert render_report(report, fmt) == report_oracle.render_report(report, fmt), fmt
print("agree")
"""


class TestWriterLookup:
    """A snapshot's writer is found from its own names: the last one built is kept."""

    def test_the_same_names_find_the_same_writer(self):
        names = _STATUS_BELOW_DONE.names
        assert state.snapshot_formatter(names) is state.snapshot_formatter(names)
        for pad in ("  ", " " * 6, " " * 10):
            assert _json_members(names, pad) is _json_members(names, pad)

    def test_canonical_and_digest_build_no_writer_of_their_own(self):
        snapshot = initial_interleaving(_STATUS_BELOW_DONE).snapshot
        writer = state.snapshot_formatter(snapshot.names)
        assert snapshot.canonical() == writer(snapshot)
        digest(snapshot)
        assert state.snapshot_formatter(snapshot.names) is writer

    def test_a_first_snapshot_without_variables(self):
        proc = subprocess.run(
            [sys.executable, "-c", _NO_VARIABLES_FIRST],
            cwd=Path(__file__).parent,  # where report_oracle is
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "agree\n", "")


class TestCanonicalSerialization:
    """``Snapshot.canonical`` and the reference both give README's layout."""

    def test_exact_layout(self):
        snap = make_snapshot()
        expected = 'vars{x=1,y=2};out="ab";sems=UD;st0=run@1;st1=done'
        assert snap.canonical() == report_oracle.canonical(snap) == expected

    def test_variables_sorted_by_name(self):
        pair = parse("var b = 2; var a = 1; thread0 { } thread1 { }")
        snap = initial_interleaving(pair).snapshot
        assert snap.canonical() == report_oracle.canonical(snap)
        assert snap.canonical().startswith("vars{a=1,b=2};")

    def test_output_escaping(self):
        snap = make_snapshot(output='a"b\\c\nd')
        assert snap.canonical() == report_oracle.canonical(snap)
        assert 'out="a\\"b\\\\c\\nd"' in snap.canonical()


def test_trace_consistency_helper():
    i = replay(AB12, "011")
    assert i.counter == (2, 3)
    # each counter is one more than its thread's symbols in the trace
    assert (i.trace.count("0") + 1, i.trace.count("1") + 1) == i.counter
