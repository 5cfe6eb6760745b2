"""Execution state objects: snapshots, counters, traces, and the state table.

A :class:`Snapshot` is the complete shared state of a two-thread run:
variable values, the output string, the semaphore bank, and both thread
statuses (the index of the thread's next statement, or ``DONE``).  A
:class:`PartialInterleaving` pairs a snapshot with the execution trace
that produced it and the combined execution counter, a plain ``(s0,
s1)`` tuple of per-thread statements executed, plus one.

The :class:`StateTable` is keyed on combined counters.  The first
interleaving to reach a counter is stored as a ``(snapshot, trace)``
entry or, in digest mode, a ``(digest, trace, tag)`` entry: the 128-bit
digest of its canonical serialization (hash compaction) and one byte of
its ``hash``.  Later arrivals are compared against it.  An equal state
means the subtree below was already explored from an identical state
(prunable); a differing one is a :class:`Race`: two schedules reached
the same program point with different observable behavior.  A snapshot
is a NamedTuple or, inside the search, the plain tuple of its six
fields; either is compared with the C-level tuple ``==``.  The tag only
proves inequality: differing tags are a race without a digest of the
later arrival, and equal tags fall through to the digest comparison.

The module also defines :func:`snapshot_formatter`, the writer of a
snapshot's canonical bytes, found from its own ``names`` (the report
writer owns the JSON layout); the output escaping of those bytes (which
``analysis.render`` shares); and :func:`wrap64`, the 64-bit wrap of
every value.  It imports nothing from the rest of the package; the
records' base, ``Record``, is in the package root.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

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
# Values and escaping
# ---------------------------------------------------------------------------

_I64_MIN = -(1 << 63)
_U64 = 1 << 64


def wrap64(value: int) -> int:
    """Wrap to 64-bit signed two's complement."""
    return (value - _I64_MIN) % _U64 + _I64_MIN


def _escape(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    return out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")


# ---------------------------------------------------------------------------
# Thread status: the index of the thread's next statement, or DONE
# ---------------------------------------------------------------------------

DONE = -1


def _thread_index(tid: object) -> int:
    """0 or 1 for a thread id equal to 0 or 1, the ids ``step`` takes; else ``ValueError``."""
    if tid == 0 or tid == 1:
        return int(tid)
    raise ValueError(f"no thread {tid!r}")


# ---------------------------------------------------------------------------
# Traces and snapshots
# ---------------------------------------------------------------------------


class Snapshot(NamedTuple):
    """Complete execution state: plain data, compared and hashed as its field tuple.

    Variable values are kept in slot order: ``values[k]`` belongs to
    ``names[k]``, and ``names`` is the program's sorted variable names.
    ``semaphores[k]`` is True while semaphore k is up; a status is the next
    statement index, or ``DONE``.  Every field takes part in ``==``, hash
    and repr, so a snapshot equals the plain tuple of its six fields.
    Every snapshot of one program shares the program's one ``names``
    tuple, which the C-level tuple ``==`` passes by identity.
    """

    names: tuple[str, ...]
    values: tuple[int, ...]
    output: str
    semaphores: tuple[bool, ...]
    status0: int
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
        return (self.status0, self.status1)[_thread_index(tid)]

    def canonical(self) -> str:
        """Canonical serialization; the byte layout behind digests.

        Format: ``vars{name=value,...};out="...";sems=UD...;st0=...;st1=...``
        with variables in sorted name order, semaphores rendered as ``U``
        (up) / ``D`` (down), statuses as ``run@<index>`` or ``done``, and
        the output string with ``\\``, ``"``, newline, tab and carriage
        return backslash-escaped (``\\\\``, ``\\"``, ``\\n``, ``\\t``,
        ``\\r``); other characters, control characters included, are
        written as they are.  :func:`snapshot_formatter` writes it.
        """
        return snapshot_formatter(self.names)(self)


_UD = bytes.maketrans(b"\0\1", b"DU")  # a semaphore bank's bytes to its U/D key
_MEMO_SIZE = 1024  # texts a formatter keeps per memo; a miss past this is made, not kept
_kept_canonical: tuple = (object(), None)  # (names, writer); not (): one empty tuple is shared


def _remember(memo: dict, key: object, text: str) -> str:
    if len(memo) < _MEMO_SIZE:
        memo[key] = text
    return text


def snapshot_formatter(names: tuple[str, ...]) -> Callable[[Snapshot], str]:
    """The writer of :meth:`Snapshot.canonical` for snapshots whose variables are ``names``, sorted.

    The last writer built is kept for its ``names`` tuple object, which all
    snapshots of one program share.  Its variables are one ``%``-format, and
    it makes the U/D text of a bank, and the text of an int status, once per
    distinct value, in memos of at most ``_MEMO_SIZE`` entries.
    """
    global _kept_canonical
    kept_names, kept = _kept_canonical
    if kept_names is names:
        return kept
    banks: dict[tuple[bool, ...], str] = {}
    head = "vars{" + ",".join(name.replace("%", "%%") + "=%s" for name in names) + "};"
    statuses = {DONE: "done"}

    def canonical(snapshot: Snapshot) -> str:
        _, values, output, bank, status0, status1 = snapshot
        # most outputs hold none of the five characters _escape replaces
        if "\\" in output or '"' in output or "\n" in output or "\t" in output or "\r" in output:
            output = _escape(output)
        try:
            sems = banks[bank]
        except KeyError:
            sems = _remember(banks, bank, bytes(bank).translate(_UD).decode())
        try:
            st0 = statuses[status0]
        except KeyError:
            st0 = _remember(statuses, status0, f"run@{status0}")
        try:
            st1 = statuses[status1]
        except KeyError:
            st1 = _remember(statuses, status1, f"run@{status1}")
        return head % values + f'out="{output}";sems={sems};st0={st0};st1={st1}'

    _kept_canonical = names, canonical
    return canonical


_blake2b = None  # the blake2b constructor, loaded by the first digest


def _load_blake2b():
    global _blake2b
    try:
        from _blake2 import blake2b  # what hashlib.blake2b is, without loading OpenSSL
    except ImportError:
        from hashlib import blake2b
    _blake2b = blake2b
    return blake2b


def digest(snapshot: Snapshot) -> bytes:
    """128-bit digest of the canonical serialization (blake2b-128).

    Deterministic across runs and platforms.  A lone surrogate in the
    output is hashed as its ``surrogatepass`` bytes.
    """
    names, encode = _kept_canonical  # snapshot_formatter's own check, one call less a digest
    if names is not snapshot[0]:
        encode = snapshot_formatter(snapshot[0])
    data = encode(snapshot).encode("utf-8", "surrogatepass")
    return (_blake2b or _load_blake2b())(data, digest_size=16).digest()


class PartialInterleaving(NamedTuple):
    """A point in an exploration: state, how it was reached, and where."""

    snapshot: Snapshot
    trace: str  # over {"0", "1"}; trace[k] is the thread of the (k+1)-th statement
    counter: tuple[int, int]  # per thread: statements executed plus one


# ---------------------------------------------------------------------------
# State table
# ---------------------------------------------------------------------------


class FirstVisit:
    __slots__ = ()


class PrunedEqual:
    __slots__ = ()


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
_tuple_new = tuple.__new__  # builds a NamedTuple without its Python-level __new__


class StateTable:
    """Map from combined counter to the first visit seen there.

    Each entry is ``(snapshot, trace)``, or in digest mode ``(digest,
    trace, tag)``: the snapshot's :func:`digest` and the tag ``hash(snapshot)
    & 0xFF``, a cached small int.  Entries are never evicted; a plain
    snapshot is replaced by the equal ``Snapshot`` its first race reports.
    Every interleaving visited should come from the same
    :class:`~paircheck.toylang.ProgramPair`: snapshots are compared with
    plain ``==``, so snapshots of two programs with different variable
    names differ, and a digest-mode table builds a writer at each switch.
    """

    def __init__(self, digest_mode: bool = False):
        self.digest_mode = digest_mode
        self._entries: dict[tuple[int, int], tuple[Snapshot, str] | tuple[bytes, str, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def visit(self, interleaving: PartialInterleaving) -> FirstVisit | PrunedEqual | Race:
        """Record a first visit, or compare against the stored one.

        Returns the one ``FirstVisit`` (entry stored), the one
        ``PrunedEqual`` (stored state equal; table unchanged), or a ``Race``
        record of both visits (states differ; table unchanged), so a caller
        may tell them apart by identity.  In digest mode a revisit is
        digested only when its tag matches: equal snapshots share a tag.
        """
        snapshot, trace, counter = interleaving
        entry = self._entries.get(counter)
        if not self.digest_mode:
            if entry is None:
                self._entries[counter] = (snapshot, trace)
                return _FIRST_VISIT
            stored, stored_trace = entry
            if stored == snapshot:
                return _PRUNED_EQUAL
            if type(stored) is tuple:  # a search's plain snapshot, at its first race
                stored = _tuple_new(Snapshot, stored)
                self._entries[counter] = stored, stored_trace  # the later races share it
            stored_digest = None
        else:
            tag = hash(snapshot) & 0xFF
            if entry is None:
                self._entries[counter] = (digest(snapshot), trace, tag)
                return _FIRST_VISIT
            stored_digest, stored_trace, stored_tag = entry
            if stored_tag == tag and stored_digest == digest(snapshot):
                return _PRUNED_EQUAL
            stored = None
        if type(snapshot) is tuple:  # a race reports a Snapshot; a caller's keeps its identity
            snapshot = _tuple_new(Snapshot, snapshot)
        return _tuple_new(Race, (counter, stored_trace, stored, stored_digest, trace, snapshot))
