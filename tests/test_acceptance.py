"""Acceptance suite: every release gate in one module.

Each test exercises one criterion end to end at its stated tolerance
(all exact) and prints one PASS line; a failing criterion fails its test.
Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
printed lines).
"""

import json
import subprocess
import sys
from math import comb

import pytest

from conftest import PROGRAMS_DIR, program_paths
from corpus import fixed_corpus
from oracle import enumerate_schedules
from paircheck.analysis import bench_table
from paircheck.cli import ExitStatus, main
from paircheck.engine import EngineError, ExplorationConfig, explore, replay, step
from paircheck.instrument import InstrumentOptions, instrument, strip
from paircheck.toylang import parse
from test_instrument import BARE, HAND_INSTRUMENTED, NAIVE_EXPECTED, norm

EXHAUSTIVE = ExplorationConfig(pruning=False, race_detection=False)


def report_line(number: int, description: str) -> None:
    print(f"[criterion {number:2d}] PASS: {description}")


def test_criterion_01_pruning_row():
    rows = bench_table(3, 8)
    pruned = [r.pruned_count for r in rows]
    assert pruned == [18, 32, 50, 72, 98, 128]
    report_line(1, f"bench 3..8 pruned counts {pruned}")


def test_criterion_02_exhaustive_row():
    rows = bench_table(3, 8)
    exhaustive = [r.exhaustive_count for r in rows]
    assert exhaustive[:5] == [30, 112, 420, 1584, 6006]
    assert exhaustive[5] == 22880 == 2 * comb(16, 7)
    report_line(2, f"bench 3..8 exhaustive counts {exhaustive} (n=8 matches the closed form)")


def test_criterion_03_ab12_semantics(ab12):
    report = explore(ab12, EXHAUSTIVE)
    outputs = [o.snapshot.output for o in report.outcomes]
    assert set(outputs) == {"ab12", "a1b2", "a12b", "1ab2", "1a2b", "12ab"}
    assert len(outputs) == 6
    assert outputs[0] == "ab12"
    assert report.outcomes[0].trace == "0011"
    assert report.race_found
    report_line(3, "ab/12 exhaustive outcome set, DFS-first ab12, race verdict")


def test_criterion_04_trace_correspondence(ab12):
    assert replay(ab12, "0011").snapshot.output == "ab12"
    report_line(4, 'replay("0011") on ab/12 yields output "ab12"')


def test_criterion_05_oracle_equivalence():
    corpus = fixed_corpus(200)
    for index, pair in enumerate(corpus):
        oracle = enumerate_schedules(pair)
        full = explore(pair, EXHAUSTIVE)
        assert full.complete, index
        engine_outcomes = {
            (tuple(sorted(o.snapshot.variables)), o.snapshot.output, o.snapshot.semaphores)
            for o in full.outcomes
        }
        assert engine_outcomes == oracle.outcomes, index
        assert bool(full.deadlocks) == oracle.deadlock, index
        assert {f.trace for f in full.deadlocks} == oracle.deadlock_traces, index
        assert {f.trace for f in full.block_forever} == oracle.block_forever_traces, index
        detection = explore(pair, ExplorationConfig())
        assert detection.race_found == oracle.race, index
    report_line(5, "200 randomized programs match the brute-force enumerator")


def test_criterion_06_pruning_soundness(bundled_programs):
    for name, pair in bundled_programs.items():
        pruned = explore(pair, ExplorationConfig(pruning=True))
        free = explore(pair, ExplorationConfig(pruning=False))
        assert {o.snapshot for o in pruned.outcomes} == {
            o.snapshot for o in free.outcomes
        }, name
        assert pruned.race_found == free.race_found, name
    report_line(6, f"outcome sets and race booleans match across {len(bundled_programs)} programs")


def test_criterion_07_interleaving_count_law():
    for m in range(0, 7):
        for n in range(0, 7):
            body0 = " ".join(['emit "a";'] * m)
            body1 = " ".join(['emit "b";'] * n)
            pair = parse(f"thread0 {{ {body0} }} thread1 {{ {body1} }}")
            report = explore(pair, EXHAUSTIVE)
            assert report.stats.complete_interleavings == comb(m + n, n), (m, n)
    report_line(7, "complete interleavings equal C(m+n, n) for all m, n <= 6")


def test_criterion_08_deadlock_detection():
    pair = parse((PROGRAMS_DIR / "deadlock_double_up.toy").read_text(encoding="utf-8"))
    report = explore(pair, EXHAUSTIVE)
    assert report.deadlocks
    for finding in report.deadlocks:
        witness = replay(pair, finding.trace)
        assert witness.counter == finding.counter
        # both threads stand before a blocking up: the replayed state is stuck
        for tid in (0, 1):
            with pytest.raises(EngineError):
                step(pair, witness, tid)
    report_line(8, f"deadlock witnesses {[f.trace for f in report.deadlocks]} replay to the stuck state")


def test_criterion_09_instrumenter_fidelity():
    got = instrument(HAND_INSTRUMENTED, InstrumentOptions(skip_redundant=True))
    assert norm(got) == norm(NAIVE_EXPECTED)
    assert norm(instrument(BARE)) == norm(NAIVE_EXPECTED)
    assert norm(strip(got)) == norm(strip(HAND_INSTRUMENTED)) == norm(BARE)
    report_line(9, "sample listing instruments to the naive form and strips back")


def test_criterion_10_determinism():
    for path in program_paths():
        runs = [
            subprocess.run(
                [sys.executable, "-m", "paircheck", "check", str(path), "--format", "json"],
                capture_output=True,
                check=False,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, path.name
        assert runs[0].returncode == runs[1].returncode, path.name
        json.loads(runs[0].stdout)  # well-formed
    report_line(10, "byte-identical JSON across repeated invocations for every bundled program")


def test_exit_codes_for_canonical_examples(capsys):
    # supporting check: the documented CLI behaviors for the two canonical inputs
    code = main(["check", str(PROGRAMS_DIR / "ab12.toy"), "--no-prune", "--no-race-detect"])
    assert code == ExitStatus.RACE
    code = main(["check", str(PROGRAMS_DIR / "disjoint3.toy")])
    assert code == ExitStatus.CLEAN
    capsys.readouterr()
