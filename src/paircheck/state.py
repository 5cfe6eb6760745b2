"""Execution state objects: snapshots, counters, traces, and the state table.

A :class:`Snapshot` is the complete shared state of a two-thread run:
variable values, the output string, the semaphore bank, and both thread
statuses (the index of the thread's next statement, or ``DONE``).  A
:class:`PartialInterleaving` pairs a snapshot with the execution trace
that produced it and the combined execution counter, a plain ``(s0,
s1)`` tuple of per-thread statements executed, plus one.

The :class:`StateTable` is keyed on combined counters.  The first
interleaving to reach a counter is stored as a ``(key, trace)`` entry,
where the key is the snapshot itself or, in digest mode, its 128-bit
digest (hash compaction); later arrivals are compared against it by key
equality.  An equal key means the subtree below was already explored from
an identical state (prunable); a differing one is a :class:`Race`: two
schedules reached the same program point with different observable
behavior.  Keys are compared with ``==``, which leaves the variable names
out, so every snapshot given to one table must come from the same
program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .toylang import _escape

__all__ = [
    "DIGEST_ALGORITHM",
    "DONE",
    "FirstVisit",
    "PartialInterleaving",
    "PrunedEqual",
    "Race",
    "Snapshot",
    "StateTable",
    "digest",
]

DIGEST_ALGORITHM = "blake2b-128"


# ---------------------------------------------------------------------------
# Thread status: the index of the thread's next statement, or DONE
# ---------------------------------------------------------------------------

DONE = -1


def _status_key(status: int) -> str:
    return "done" if status == DONE else f"run@{status}"


# ---------------------------------------------------------------------------
# Traces and snapshots
# ---------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class Snapshot:
    """Complete execution state; equality is field-wise and total.

    Variable values are kept in slot order: ``values[k]`` belongs to
    ``names[k]``, and ``names`` is the program's sorted variable names.
    Every snapshot of one program shares that one ``names`` tuple, so the
    generated ``==`` and hash cover only the other five fields.  Slotted, not
    frozen (Python allows assignment): paircheck never assigns, nor may callers.
    """

    names: tuple[str, ...] = field(compare=False, repr=False)
    values: tuple[int, ...]
    output: str
    semaphores: tuple[bool, ...]  # True = up
    status0: int  # next statement index, or DONE
    status1: int

    @property
    def variables(self) -> tuple[tuple[str, int], ...]:
        """``(name, value)`` pairs in sorted name order."""
        return tuple(zip(self.names, self.values))

    def variable(self, name: str) -> int:
        try:
            return self.values[self.names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def status(self, tid: int) -> int:
        return self.status0 if tid == 0 else self.status1

    def canonical(self) -> str:
        """Canonical serialization; the byte layout behind digests.

        Format: ``vars{name=value,...};out="...";sems=UD...;st0=...;st1=...``
        with variables in sorted name order, semaphores rendered as ``U``
        (up) / ``D`` (down), statuses as ``run@<index>`` or ``done``, and
        the output string with ``\\``, ``"``, newline, tab and carriage
        return backslash-escaped (``\\\\``, ``\\"``, ``\\n``, ``\\t``,
        ``\\r``); other characters, control characters included, are
        written as they are.
        """
        vars_part = ",".join(map("{}={}".format, self.names, self.values))
        sems_part = "".join("U" if up else "D" for up in self.semaphores)
        return (
            f"vars{{{vars_part}}};"
            f'out="{_escape(self.output)}";'
            f"sems={sems_part};"
            f"st0={_status_key(self.status0)};"
            f"st1={_status_key(self.status1)}"
        )


def digest(snapshot: Snapshot) -> bytes:
    """128-bit digest of the canonical serialization (blake2b-128).

    Deterministic across runs and platforms.  A lone surrogate in the
    output is hashed as its ``surrogatepass`` bytes.
    """
    import hashlib  # here, not at the top: only digest mode pays for loading it

    data = snapshot.canonical().encode("utf-8", "surrogatepass")
    return hashlib.blake2b(data, digest_size=16).digest()


class PartialInterleaving(NamedTuple):
    """A point in an exploration: state, how it was reached, and where."""

    snapshot: Snapshot
    trace: str  # over {"0", "1"}; trace[k] is the thread of the (k+1)-th statement
    counter: tuple[int, int]  # per thread: statements executed plus one


# ---------------------------------------------------------------------------
# State table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FirstVisit:
    pass


@dataclass(frozen=True)
class PrunedEqual:
    pass


class Race(NamedTuple):
    """Same combined counter reached with a different snapshot.

    The stored side is the first visit's trace and its snapshot, or in
    digest mode only its digest; the current side is the later arrival.
    """

    counter: tuple[int, int]
    stored_trace: str
    stored_snapshot: Snapshot | None  # None in digest mode
    stored_digest: bytes | None  # None in full mode
    current_trace: str
    current_snapshot: Snapshot


_FIRST_VISIT = FirstVisit()
_PRUNED_EQUAL = PrunedEqual()


class StateTable:
    """Map from combined counter to the first visit seen there.

    Each entry is ``(key, trace)``: the key is the snapshot, or its
    128-bit digest in digest mode.  Entries are never evicted or
    overwritten.  Every interleaving visited must come from the same
    :class:`~paircheck.toylang.ProgramPair`, because keys are compared
    with plain ``==`` and no schema check.
    """

    def __init__(self, digest_mode: bool = False):
        self.digest_mode = digest_mode
        self._entries: dict[tuple[int, int], tuple[Snapshot | bytes, str]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def visit(self, interleaving: PartialInterleaving) -> FirstVisit | PrunedEqual | Race:
        """Record a first visit, or compare against the stored one.

        Returns ``FirstVisit`` (entry stored), ``PrunedEqual`` (stored key
        equal; table unchanged), or a ``Race`` record of both visits (keys
        differ; table unchanged).
        """
        snapshot, trace, counter = interleaving
        key = digest(snapshot) if self.digest_mode else snapshot
        entry = self._entries.get(counter)
        if entry is None:
            self._entries[counter] = (key, trace)
            return _FIRST_VISIT
        stored, stored_trace = entry
        if stored == key:
            return _PRUNED_EQUAL
        if self.digest_mode:
            return Race(counter, stored_trace, None, stored, trace, snapshot)
        return Race(counter, stored_trace, stored, None, trace, snapshot)
