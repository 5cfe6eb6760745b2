"""Swapping a program's two threads mirrors what the search finds.

The paper's semantics are symmetric in the threads, but the search is not
symmetric in code: thread 0 goes first, and each schedule test and
transition is written per thread.  These relations need no oracle, only
the engine run on a program and on its mirror, the program with its
threads swapped, in the five modes of the report pins:

* ``race_found`` is equal: with race detection on, a race is reported
  exactly when some counter has two distinct reachable states, and
  swapping the threads mirrors the counters;
* with no race found, or without race detection, where the search is
  exhaustive, the final ``(values, output, bank)`` sets are equal, the
  counters of the deadlocks and of the threads that block forever are
  mirrored, each as often, and so are all the search's counts (table
  entries, statements, interleavings and pruned subtrees): a program with
  no race has one state at each counter, and an exhaustive search walks
  every schedule;
* without race detection, the traces of the deadlocks and of the threads
  that block forever are mirrored too, each as often.

A run that its step budget stops is left out: where a budget cuts the
search depends on the order the search takes.
"""

import pytest
from hypothesis import given, settings

from corpus import fixed_corpus, wide_corpus
from paircheck.engine import ExplorationConfig, explore
from paircheck.toylang import ProgramPair, parse
from test_pipeline import PROFILE, _budget, programs, source

MODES = {
    "default": ExplorationConfig(),
    "no-prune": ExplorationConfig(pruning=False),
    "no-race-detect": ExplorationConfig(race_detection=False),
    "digest": ExplorationConfig(digest_mode=True),
    "digest-no-prune": ExplorationConfig(pruning=False, digest_mode=True),
}
CORPUS = fixed_corpus(200) + [wide for _, wide in wide_corpus(20)]  # 200 + 60 programs


def mirrored(pair: ProgramPair) -> ProgramPair:
    return ProgramPair(pair.thread1, pair.thread0, pair.num_semaphores, pair.variables)


def _finals(report) -> set:
    return {(o.snapshot.values, o.snapshot.output, o.snapshot.semaphores) for o in report.outcomes}


_SWAP = str.maketrans("01", "10")


def _stuck(report, key: str, mirror: bool = False) -> list:
    """The counters and traces of ``report``'s deadlocks or block-forever entries, sorted."""
    if mirror:
        return sorted((f.counter[::-1], f.trace.translate(_SWAP)) for f in getattr(report, key))
    return sorted((f.counter, f.trace) for f in getattr(report, key))


def mirrors(pair: ProgramPair, cfg: ExplorationConfig) -> bool:
    """Whether the searches of ``pair`` and its mirror both ran to the end; asserts relations."""
    report, mirror = explore(pair, cfg), explore(mirrored(pair), cfg)
    if not (report.complete and mirror.complete):
        return False
    assert mirror.race_found == report.race_found
    if not report.race_found or not cfg.race_detection:
        assert _finals(mirror) == _finals(report)
        assert mirror.stats == report.stats
        for key in ("deadlocks", "block_forever"):
            stuck, mirrored_stuck = _stuck(report, key), _stuck(mirror, key, mirror=True)
            if cfg.race_detection:  # the first trace to a counter is the search order's
                stuck, mirrored_stuck = [c for c, _ in stuck], [c for c, _ in mirrored_stuck]
            assert mirrored_stuck == stuck, key
    return True


@pytest.mark.parametrize("mode", MODES)
def test_the_corpus_and_its_mirror_agree(mode):
    # none of these small programs runs into the budget
    assert all(mirrors(pair, MODES[mode]) for pair in CORPUS)


@settings(PROFILE, max_examples=_budget(40))
@given(program=programs())
def test_generated_programs_and_their_mirrors_agree(program):
    pair = parse(source(*program))
    for cfg in MODES.values():
        mirrors(pair, ExplorationConfig(cfg.pruning, cfg.race_detection, cfg.digest_mode, 20_000))
