"""A wide program's search: its values in chunks inside, flat at the edge.

A program of more than ``state._CHUNK`` variables is searched with its
values held as a tuple of chunks.  Padding a program with variables that no
statement touches (``corpus.widen``) must change nothing the search finds:
the same outcomes, races, findings, traces, counters and statistics, and
the same values once the padding slots are dropped.
"""

import gc
import tracemalloc

import pytest

from corpus import wide_corpus
from oracle import enumerate_schedules
from paircheck import disjoint_pair
from paircheck.engine import ExplorationConfig, _reported, explore, initial_interleaving, replay
from paircheck.state import (
    _CHUNK, _FIRST_VISIT, _PRUNED_EQUAL, Race, StateTable, digest, snapshot_formatter,
)
from paircheck.toylang import parse
from test_analysis import RACY_24
from test_engine import EXHAUSTIVE, SEARCH_MODES, canonical_text, searched

BUDGETS = (0, 1, 3, 8, 1_000_000)


def narrowing(narrow, wide):
    """The function from a wide program's snapshot to its narrow program's one.

    It checks that the snapshot is the wide program's, with flat values,
    and that every padding variable still holds its initial value.
    """
    keep = [wide.names.index(name) for name in narrow.names]
    initial = dict(wide.variables)
    padding = [(k, initial[name]) for k, name in enumerate(wide.names) if k not in keep]

    def narrowed(snapshot):
        assert snapshot.names == wide.names
        assert len(snapshot.values) == len(wide.names)
        assert all(snapshot.values[k] == value for k, value in padding)
        return snapshot._replace(names=narrow.names, values=tuple(snapshot.values[k] for k in keep))

    return narrowed


def findings(report, narrowed):
    return [
        [(entry.trace, entry.counter, narrowed(entry.snapshot)) for entry in entries]
        for entries in (report.outcomes, report.deadlocks, report.block_forever)
    ]


def races(report, narrowed):
    return [
        (race.counter, race.stored_trace, race.current_trace, narrowed(race.current_snapshot),
         None if race.stored_snapshot is None else narrowed(race.stored_snapshot))
        for race in report.races
    ]


@pytest.mark.parametrize("mode", SEARCH_MODES)
def test_padding_changes_nothing_the_search_finds(mode):
    base = SEARCH_MODES[mode]
    compared = raced = 0
    for index, (narrow, wide) in enumerate(wide_corpus(60)):
        assert len(wide.names) > _CHUNK
        narrowed = narrowing(narrow, wide)
        same = narrowing(narrow, narrow)
        for budget in BUDGETS:
            cfg = ExplorationConfig(base.pruning, base.race_detection, base.digest_mode, budget)
            expected, got = explore(narrow, cfg), explore(wide, cfg)
            where = index, budget
            assert got.stats == expected.stats, where
            assert got.complete == expected.complete, where
            assert findings(got, narrowed) == findings(expected, same), where
            assert races(got, narrowed) == races(expected, same), where
            for race in got.races:
                raced += 1
                if cfg.digest_mode:
                    stored = replay(wide, race.stored_trace).snapshot
                    assert race.stored_digest == digest(stored), where
            compared += 1
    assert compared == 60 * 3 * len(BUDGETS)
    assert bool(raced) == base.race_detection


# 20 variables: a00..a15 fill the first chunk and b0..b3 the second, and
# every expression reads one variable of each.
TWO_CHUNKS = (
    "".join(f"var a{k:02d} = {k + 1};" for k in range(16))
    + "var b0 = 2; var b1 = -3; var b2 = 5; var b3 = 7;"
    + "thread0 { b0 = a03 + b1; a15 = b0 * a00; b2 = a15 - b3; }"
    + "thread1 { a03 = b3 - a15; b1 = a03 + b0 * 2; a00 = b2 * a07; }"
)


def test_expressions_read_across_chunks():
    pair = parse(TWO_CHUNKS)
    assert len(pair.names) == 20
    oracle = enumerate_schedules(pair)
    report = explore(pair, EXHAUSTIVE)
    assert {
        (tuple(sorted(o.snapshot.variables)), o.snapshot.output, o.snapshot.semaphores)
        for o in report.outcomes
    } == oracle.outcomes
    assert len(oracle.outcomes) > 1
    for mode, cfg in SEARCH_MODES.items():
        report = explore(pair, cfg)
        assert report.race_found == oracle.race, mode
        for outcome in report.outcomes:
            assert outcome == replay(pair, outcome.trace), mode
        for race in report.races:
            assert race.current_snapshot == replay(pair, race.current_trace).snapshot, mode
            stored = replay(pair, race.stored_trace).snapshot
            if cfg.digest_mode:
                assert race.stored_digest == digest(stored), mode
            else:
                assert race.stored_snapshot == stored, mode


def test_a_first_race_leaves_an_entry_that_equal_visits_in_chunks_still_prune():
    pair = disjoint_pair(16)  # 32 variables in two chunks
    a = searched(pair, "")
    (low, high), output, bank = a.snapshot
    b = a._replace(snapshot=((low, (high[0] + 1, *high[1:])), output, bank), trace="x")
    table = StateTable(False, pair)
    assert table.visit(a) is _FIRST_VISIT
    race = table.visit(b)
    assert type(race) is Race and race.stored_snapshot == initial_interleaving(pair).snapshot
    assert table.visit(a) is _PRUNED_EQUAL
    assert table.visit(b).stored_snapshot is race.stored_snapshot


def test_each_chunk_position_has_its_own_text(monkeypatch):
    # 32 variables in two chunks of 16, one a thread's: equal wherever both
    # threads have run as many statements
    pair = disjoint_pair(16)
    visited = []
    visit = StateTable.visit
    monkeypatch.setattr(StateTable, "visit", lambda table, i: visited.append(i) or visit(table, i))
    explore(pair, ExplorationConfig(digest_mode=True))
    write = snapshot_formatter(pair.names)
    for i in visited:
        chunks = i.snapshot[0]  # the search's (values, output, bank)
        assert [len(chunk) for chunk in chunks] == [16, 16]
        statuses = (thread[c] for thread, c in zip(pair.compiled.statuses, i.counter))
        held = (pair.names, *i.snapshot, *statuses)  # what the table digests
        assert write(held) == canonical_text(_reported(pair, i).snapshot), i.trace
    assert any(chunks[0] == chunks[1] for chunks in (i.snapshot[0] for i in visited))


def table_bytes_per_entry(monkeypatch, pair, cfg) -> float:
    """Bytes that the state table of ``explore(pair, cfg)`` holds per entry, by tracemalloc.

    CPython keeps freed tuples of fewer than 20 items on free lists, which
    tracemalloc counts as allocated; a full collection empties them, so the
    table's memory is what one frees once the search's garbage is gone.
    """
    tables = []
    init = StateTable.__init__

    def keep(table, *args):
        init(table, *args)
        tables.append(table)

    monkeypatch.setattr(StateTable, "__init__", keep)
    gc.collect()
    tracemalloc.start()
    try:
        report = explore(pair, cfg)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        tables.clear()
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / report.stats.table_entries


def test_table_entries_share_the_chunks_they_did_not_change(monkeypatch):
    # disjoint_pair(40) has 80 variables: a flat copy of them in each of its
    # 1,681 entries costs about 1,000 bytes an entry, one chunk of them about 580
    assert table_bytes_per_entry(monkeypatch, disjoint_pair(40), ExplorationConfig()) < 700


@pytest.mark.parametrize(
    "pair, bound", [(parse(RACY_24), 120), (disjoint_pair(40), 240)], ids=["racy24", "disjoint40"]
)
def test_digest_table_entries_hold_little_beyond_digest_and_trace(monkeypatch, pair, bound):
    # a dict of (digest, trace, tag) tuples held 178 and 302 bytes an entry, of
    # which the key tuple, the entry tuple and the dict slot were about 110;
    # rows indexed by the counter hold three list slots an entry instead
    assert table_bytes_per_entry(monkeypatch, pair, ExplorationConfig(digest_mode=True)) <= bound
