"""Generated programs through the whole pipeline: source text to exit code.

A hypothesis strategy draws programs as source text (``repeat`` blocks,
nested expressions, up to three semaphores, multi-character emits; each
thread unrolls to at most ``MAX_THREAD_STATEMENTS`` statements).  Each
program is checked by the in-process ``main()`` in the five modes the
report pins use, and the reports are held to what they claim: the exit
code, the text report's counts, repeatability, replayable witnesses, the
brute-force oracle, and symmetry under swapping the threads.  Byte-mutated
and truncated sources must exit with a code the CLI documents, never as an
internal error.

The profiles are derandomized with a fixed example budget, so a failure
reproduces on every run.
"""

import contextlib
import io
import json
import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracle import enumerate_schedules
from paircheck.cli import ExitStatus, main
from paircheck.engine import EngineError, replay, step
from paircheck.state import DONE, digest
from paircheck.toylang import parse
from report_oracle import _snapshot_dict as snapshot_doc

# the report-pin modes, as ``check`` flags
MODES = {
    "default": [],
    "no-prune": ["--no-prune"],
    "no-race-detect": ["--no-race-detect"],
    "digest": ["--digest"],
    "digest-no-prune": ["--digest", "--no-prune"],
}
MAX_THREAD_STATEMENTS = 8
PROFILE = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_NAMES = ("x", "y", "z")
_LEAVES = st.one_of(
    st.integers(0, 9).map(str),
    st.sampled_from(_NAMES),
    st.just("9223372036854775807"),  # products and sums of it wrap
)
_EXPRS = st.recursive(
    _LEAVES,
    lambda inner: st.builds("{} {} {}".format, inner, st.sampled_from("+-*"), inner)
    | inner.map("({})".format),
    max_leaves=5,
)
# emit text as written in source: letters, escapes and a non-ASCII letter
_EMITS = st.lists(
    st.sampled_from(["a", "b", "1", "é", "\\n", '\\"', "\\\\"]), min_size=1, max_size=3
).map("".join)


def _block(draw, semaphores: int, room: int, depth: int) -> tuple[str, int]:
    """Statements that unroll to at most ``room``; returns (text, unrolled size)."""
    kinds = ["assign", "assign", "emit", "repeat"] + ["up", "down"] * bool(semaphores)
    parts, size = [], 0
    for _ in range(draw(st.integers(0, room))):
        if size >= room:
            break
        kind = draw(st.sampled_from(kinds))
        if kind == "repeat" and depth < 2:
            count = draw(st.integers(0, 3))
            body, body_size = _block(draw, semaphores, (room - size) // max(count, 1), depth + 1)
            parts.append(f"repeat {count} {{ {body} }}")
            size += count * body_size
            continue
        if kind in ("assign", "repeat"):
            parts.append(f"{draw(st.sampled_from(_NAMES))} = {draw(_EXPRS)};")
        elif kind == "emit":
            parts.append(f'emit "{draw(_EMITS)}";')
        else:
            parts.append(f"{kind}({draw(st.integers(0, semaphores - 1))});")
        size += 1
    return " ".join(parts), size


@st.composite
def programs(draw) -> tuple[str, str, str]:
    """``(declarations, thread 0 body, thread 1 body)`` as source text."""
    semaphores = draw(st.integers(0, 3))
    decls = [
        f"var {name};" if init is None else f"var {name} = {init};"
        for name, init in zip(_NAMES, draw(st.tuples(*[st.none() | st.integers(0, 3)] * 3)))
    ]
    if semaphores:
        decls.append(f"semaphores {semaphores};")
    body0, _ = _block(draw, semaphores, MAX_THREAD_STATEMENTS, 0)
    body1, _ = _block(draw, semaphores, MAX_THREAD_STATEMENTS, 0)
    return " ".join(decls), body0, body1


def source(decls: str, first: str, second: str) -> str:
    return f"{decls}\nthread0 {{ {first} }}\nthread1 {{ {second} }}\n"


def check(data: str | bytes, *flags: str) -> tuple[int, str, str]:
    """``paircheck check -`` on ``data`` in this process: (exit code, stdout, stderr)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(data))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", *flags, "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def expected_exit(doc: dict) -> int:
    if doc["race_found"]:
        return ExitStatus.RACE
    if doc["deadlocks"]:
        return ExitStatus.DEADLOCK
    if doc["block_forever"]:
        return ExitStatus.BLOCK_FOREVER
    if not doc["complete"]:
        return ExitStatus.BUDGET_EXHAUSTED
    return ExitStatus.CLEAN


_TEXT_COUNTS = re.compile(
    r"^outcomes: (\d+)$.*^races: (\d+)$.*^deadlocks: (\d+)$.*^block-forever: (\d+)$.*"
    r"^stats: branch=(\d+) completion=(\d+) interleavings=(\d+) pruned=(\d+) "
    r"races=(\d+) table=(\d+)$\n^verdict: (race|no race detected)\n\Z",
    re.MULTILINE | re.DOTALL,
)


def text_counts(text: str) -> tuple:
    """The counts a text report states, in the order of ``json_counts``."""
    match = _TEXT_COUNTS.search(text)
    assert match, text
    *counts, verdict = match.groups()
    complete = "WARNING: step budget exhausted" not in text
    return (*map(int, counts), verdict == "race", complete)


def json_counts(doc: dict) -> tuple:
    sections = (doc[key] for key in ("outcomes", "races", "deadlocks", "block_forever"))
    return (*map(len, sections), *doc["stats"].values(), doc["race_found"], doc["complete"])


def frozen(entry: dict) -> tuple:
    """A JSON outcome as the oracle records a final state."""
    semaphores = tuple(mark == "U" for mark in entry["semaphores"])
    return tuple(sorted(entry["variables"].items())), entry["output"], semaphores


def check_witnesses(pair, doc: dict) -> None:
    for outcome in doc["outcomes"]:
        final = replay(pair, outcome["trace"]).snapshot
        assert final.status0 == final.status1 == DONE
        assert {"trace": outcome["trace"], **snapshot_doc(final)} == outcome
    for race in doc["races"]:
        stored = replay(pair, race["stored"]["trace"])
        current = replay(pair, race["current"]["trace"])
        assert list(stored.counter) == list(current.counter) == race["counter"]
        assert stored.snapshot != current.snapshot
        assert snapshot_doc(current.snapshot) == race["current"]["snapshot"]
        if "digest" in race["stored"]:
            assert digest(stored.snapshot).hex() == race["stored"]["digest"]
        else:
            assert snapshot_doc(stored.snapshot) == race["stored"]["snapshot"]
    for key, live_threads in (("deadlocks", 2), ("block_forever", 1)):
        for finding in doc[key]:
            stuck = replay(pair, finding["trace"])
            assert list(stuck.counter) == finding["counter"]
            live = [tid for tid in (0, 1) if stuck.snapshot.status(tid) != DONE]
            assert len(live) == live_threads
            for tid in live:
                with pytest.raises(EngineError):
                    step(pair, stuck, tid)


def check_oracle(mode: str, doc: dict, oracle) -> None:
    """A complete report against the brute-force enumeration of every schedule."""
    outcomes = {frozen(outcome) for outcome in doc["outcomes"]}
    if mode == "no-race-detect":
        assert outcomes == oracle.outcomes
        assert {f["trace"] for f in doc["deadlocks"]} == oracle.deadlock_traces
        assert {f["trace"] for f in doc["block_forever"]} == oracle.block_forever_traces
        assert doc["race_found"] == (len(oracle.outcomes) > 1)
        return
    assert doc["race_found"] == oracle.race
    if not oracle.race:
        assert outcomes == oracle.outcomes
        assert bool(doc["deadlocks"]) == oracle.deadlock
        assert bool(doc["block_forever"]) == oracle.block_forever


@settings(PROFILE, max_examples=120)
@given(program=programs(), budget=st.none() | st.integers(0, 40))
def test_generated_programs_through_check(program, budget):
    decls, body0, body1 = program
    program_text = source(decls, body0, body1)
    pair = parse(program_text)
    oracle = enumerate_schedules(pair)
    limit = [] if budget is None else ["--max-steps", str(budget)]
    for mode, flags in MODES.items():
        json_run = check(program_text, *flags, *limit, "--format", "json")
        text_run = check(program_text, *flags, *limit)
        assert check(program_text, *flags, *limit, "--format", "json") == json_run, mode
        assert check(program_text, *flags, *limit) == text_run, mode
        code, out, err = json_run
        assert err == "" == text_run[2], mode
        doc = json.loads(out)
        assert code == expected_exit(doc) == text_run[0], mode
        assert text_counts(text_run[1]) == json_counts(doc), mode
        check_witnesses(pair, doc)
        if doc["complete"]:
            check_oracle(mode, doc, oracle)
            mirror = check(source(decls, body1, body0), *flags, "--format", "json")
            assert json.loads(mirror[1])["race_found"] == doc["race_found"], mode


_EDITS = st.tuples(
    st.sampled_from(["replace", "insert", "delete", "truncate"]),
    st.floats(0, 1, exclude_max=True),  # where, as a fraction of the length
    st.sampled_from(list('{}();=+-*"\\#\n 09xé'.encode())) | st.integers(0, 255),
)


@settings(PROFILE, max_examples=300)
@given(program=programs(), edits=st.lists(_EDITS, min_size=1, max_size=3),
       mode=st.sampled_from(list(MODES)))
def test_damaged_sources_never_crash(program, edits, mode):
    data = bytearray(source(*program).encode("utf-8"))
    for kind, where, byte in edits:
        at = int(where * len(data))
        if kind == "replace" and data:
            data[at] = byte
        elif kind == "insert":
            data.insert(at, byte)
        elif kind == "delete" and data:
            del data[at]
        elif kind == "truncate":
            del data[at:]
    code, _, err = check(bytes(data), *MODES[mode], "--max-steps", "300")
    assert ExitStatus.CLEAN <= code <= ExitStatus.BUDGET_EXHAUSTED, err
