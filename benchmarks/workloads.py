"""The benchmark's four workloads: seeded inputs, CLI invocations, output checks.

Each invocation runs the ``paircheck`` command line as its own child process
(through ``launch.py``, on the checkout's ``src`` tree), with stdout going to
a file.  Wall time covers process start to exit and is also scaled to the
nominal machine speed (see ``speed.py``); CPU time comes from ``os.wait4``
and peak RSS from the child's own ``VmHWM``, which ``launch.py`` records.
Checks run after the child has exited, outside the timed interval, and a
failed check marks the invocation as failed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, replace
from math import comb
from pathlib import Path
from typing import Callable

import gen
import speed

LAUNCHER = Path(__file__).resolve().parent / "launch.py"
CHILD_TIMEOUT_S = 120.0
RACES_REPLAYED = 20  # witness pairs replayed per distinct racy-digest report

# Input size per workload: (statements per thread | KiB of C-like source).
SIZES = {
    "full": {"disjoint-pruned": 60, "exhaustive": 8, "racy-digest": 80, "instrument-roundtrip": 512},
    "smoke": {"disjoint-pruned": 6, "exhaustive": 4, "racy-digest": 10, "instrument-roundtrip": 8},
}


@dataclass
class Sample:
    """One measured invocation (two child processes on instrument-roundtrip)."""

    wall_s: float
    nominal_s: float  # wall time scaled to the nominal machine speed
    cpu_s: float
    rss_mib: float
    statements: int  # statements executed, or statements hooked
    error: str | None


def _run_child(argv: list[str], stdout: Path, stderr: Path) -> tuple[int, Sample]:
    """Run one CLI invocation; return its exit code and a sample with no statements."""
    env = dict(os.environ, PYTHONPATH=str(gen.REPO_ROOT / "src"), PYTHONHASHSEED="0")
    peak = stderr.with_name("peak_kib")
    peak.unlink(missing_ok=True)
    argv = [sys.executable, str(LAUNCHER), str(peak), *argv]
    with open(stdout, "wb") as out, open(stderr, "wb") as err, speed.Bracket() as timed:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=gen.REPO_ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    error, rss_mib = None, 0.0
    if timed.wall_s >= CHILD_TIMEOUT_S:
        error = f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    elif b"Traceback (most recent call last)" in stderr.read_bytes():
        error = "child printed a traceback"
    elif not peak.is_file():
        error = "child recorded no peak RSS"
    else:
        rss_mib = int(peak.read_text(encoding="ascii")) / 1024
    return proc.returncode, Sample(
        wall_s=timed.wall_s,
        nominal_s=timed.nominal_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=rss_mib,
        statements=0,
        error=error,
    )


def _check_counts(doc: dict, expected: dict) -> str | None:
    got = {key: doc["stats"][key] for key in expected}
    if got != expected:
        return f"stats {got}, expected {expected}"
    if len(doc["outcomes"]) != 1 or doc["races"]:
        return f"{len(doc['outcomes'])} outcomes and {len(doc['races'])} races, expected 1 and 0"
    return None


def disjoint_source(seed: int, n: int) -> str:
    """``disjoint_pair(n)``, which has no seeded part."""
    return gen.disjoint_source(n)


def check_disjoint(wl: CheckWorkload, doc: dict) -> str | None:
    n = wl.size
    return _check_counts(doc, {
        "branch_statements": 2 * n * n,
        "completion_statements": 2 * n,
        "table_entries": (n + 1) ** 2,
        "pruned_subtrees": n * n,
    })


def check_exhaustive(wl: CheckWorkload, doc: dict) -> str | None:
    n = wl.size
    return _check_counts(doc, {
        "completion_statements": 2 * comb(2 * n, n - 1),
        "table_entries": 0,
    })


def check_racy(wl: CheckWorkload, doc: dict) -> str | None:
    races = doc["races"]
    if not races or len(races) != doc["stats"]["races_found"]:
        return f"{len(races)} races listed, {doc['stats']['races_found']} counted"
    if doc["deadlocks"] or doc["block_forever"]:
        return "deadlock or block-forever in a program built to have neither"
    pc = gen.import_paircheck()
    pair = pc.parse(wl.source)
    rng = random.Random(wl.seed)
    for race in rng.sample(races, min(RACES_REPLAYED, len(races))):
        counter = tuple(race["counter"])
        try:
            stored = pc.replay(pair, race["stored"]["trace"])
            current = pc.replay(pair, race["current"]["trace"])
        except pc.ReplayError as exc:
            return f"race at {counter}: witness does not replay: {exc}"
        if tuple(stored.counter) != counter or tuple(current.counter) != counter:
            return f"race at {counter}: witnesses replay to {stored.counter} and {current.counter}"
        if stored.snapshot == current.snapshot:
            return f"race at {counter}: witnesses replay to equal states"
        if pc.digest(stored.snapshot).hex() != race["stored"]["digest"]:
            return f"race at {counter}: stored witness does not match its digest"
    return None


class CheckWorkload:
    """``paircheck check --format json`` on one generated program."""

    def __init__(
        self,
        name: str,
        flags: tuple[str, ...],
        config: dict,
        exit_code: int,
        make_source: Callable[[int, int], str],
        check: Callable[[CheckWorkload, dict], str | None],
    ):
        self.name = name
        self.flags = flags
        self.config = config  # the ExplorationConfig fields the flags select
        self.exit_code = exit_code
        self.make_source = make_source  # (seed, size) -> program text
        self.check = check  # (workload, complete JSON report) -> error or None

    def prepare(self, work: Path, seed: int, size: int) -> None:
        self.seed, self.size = seed, size
        self.source = self.make_source(seed, size)
        self.program = work / f"{self.name}.toy"
        self.program.write_text(self.source, encoding="utf-8")
        self.source_bytes = len(self.source.encode("utf-8"))
        self.stdout, self.stderr = work / "stdout", work / "stderr"
        self.reference: dict[bool, bytes] = {}  # first stdout, per setup flag
        self.verdicts: dict[tuple, tuple[str | None, int]] = {}

    def invoke(self, setup: bool = False) -> Sample:
        argv = ["check", str(self.program), *self.flags, "--format", "json"]
        if setup:
            argv += ["--max-steps", "0"]
        code, sample = _run_child(argv, self.stdout, self.stderr)
        if sample.error is not None:
            return sample
        data = self.stdout.read_bytes()
        if data != self.reference.setdefault(setup, data):
            return replace(sample, error="stdout differs from the run's first invocation")
        key = (setup, code)
        if key not in self.verdicts:
            self.verdicts[key] = self._verify(setup, code, data)
        error, statements = self.verdicts[key]
        return replace(sample, statements=statements, error=error)

    def _verify(self, setup: bool, code: int, data: bytes) -> tuple[str | None, int]:
        try:
            doc = json.loads(data)
            stats = doc["stats"]
            statements = stats["branch_statements"] + stats["completion_statements"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable JSON report: {exc!r}", 0
        want = 5 if setup else self.exit_code
        if code != want:
            return f"exit status {code}, expected {want}", statements
        if setup:
            return (None if doc["complete"] is False else "setup run completed"), statements
        if not doc["complete"]:
            return "report incomplete", statements
        return self.check(self, doc), statements


class InstrumentWorkload:
    """``paircheck instrument`` then ``paircheck instrument --strip``."""

    name = "instrument-roundtrip"

    def prepare(self, work: Path, seed: int, size: int) -> None:
        self.source, self.expected = gen.c_source(seed, size)
        self.source_bytes = len(self.source.encode("utf-8"))
        self.hooks = (len(self.expected) - len(self.source)) // len(gen.HOOK)
        self.src_path, self.empty = work / "src.c", work / "empty.c"
        self.src_path.write_text(self.source, encoding="utf-8")
        self.empty.write_text("", encoding="utf-8")
        self.hooked, self.stripped, self.stderr = work / "hooked.c", work / "stripped.c", work / "stderr"

    def invoke(self, setup: bool = False) -> Sample:
        if setup:
            code, sample = _run_child(["instrument", str(self.empty)], self.hooked, self.stderr)
            return replace(sample, error=sample.error or self._expect(code, self.hooked, "", "empty input"))
        code, first = _run_child(["instrument", str(self.src_path)], self.hooked, self.stderr)
        error = first.error or self._expect(code, self.hooked, self.expected, "instrument")
        code, second = _run_child(["instrument", "--strip", str(self.hooked)], self.stripped, self.stderr)
        error = error or second.error or self._expect(code, self.stripped, self.source, "strip")
        return Sample(
            first.wall_s + second.wall_s,
            first.nominal_s + second.nominal_s,
            first.cpu_s + second.cpu_s,
            max(first.rss_mib, second.rss_mib),
            self.hooks,
            error,
        )

    @staticmethod
    def _expect(code: int, path: Path, text: str, what: str) -> str | None:
        if code != 0:
            return f"{what}: exit status {code}"
        got = path.read_bytes()
        if got != text.encode("utf-8"):
            at = next((k for k, (a, b) in enumerate(zip(got, text.encode())) if a != b), None)
            return f"{what}: output differs from the expected bytes at offset {at}"
        return None


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    wl.name: wl
    for wl in (
        CheckWorkload("disjoint-pruned", (), {}, 0, disjoint_source, check_disjoint),
        CheckWorkload(
            "exhaustive", ("--no-race-detect",), {"race_detection": False}, 0, disjoint_source, check_exhaustive
        ),
        CheckWorkload("racy-digest", ("--digest",), {"digest_mode": True}, 1, gen.racy_source, check_racy),
        InstrumentWorkload(),
    )
}
