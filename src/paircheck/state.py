"""Execution state objects: snapshots, counters, traces, and the state table.

A :class:`Snapshot` is the complete shared state of a two-thread run:
variable values, the output string, the semaphore bank, and both thread
statuses (the index of the thread's next statement, or ``DONE``).  A
:class:`PartialInterleaving` pairs a snapshot with the execution trace
that produced it and the combined execution counter, a plain ``(s0,
s1)`` tuple of per-thread statements executed, plus one.

Inside the search a state is the plain triple ``(values, output, bank)``,
a wide program's values in chunks: a thread's status is its counter less
one, or ``DONE`` once that is its length (:func:`_statuses`), and the
program's ``names`` are the same in every state, so both are added back
only where a state leaves the search.

The :class:`StateTable` is made for one program and keeps rows over its
counter lattice, indexed ``[s0][s1]`` and each made when the search first
reaches it, where the first interleaving to reach a counter leaves its
state or, in digest mode, the 128-bit digest of its canonical
serialization (hash compaction) and one byte of its ``hash``, and one
link byte, the thread of the step it came by.  Only the root, the
lattice's edge and raced points keep whole traces; a race's stored trace
is rebuilt along the links (predecessor links, as in TLC), which is
right for a table fed in the search's order.  Later arrivals are
compared against it.  An equal state means the subtree below was already
explored from an identical state (prunable); a differing one is a
:class:`Race`: two schedules reached the same program point with
different observable behavior.  The table is fed the search's triples,
compared with the C-level tuple ``==``, and builds a race's flat
``Snapshot`` sides and the input of a digest from the triple and the
counter.  The tag only proves inequality: differing tags are a race
without digesting the later arrival; equal tags are digested.

The module also defines :func:`snapshot_formatter`, the writer of a
snapshot's canonical bytes, found from its own ``names`` (the report
writer owns the JSON layout); the output escaping of those bytes (which
``analysis.render`` shares); :func:`wrap64`, the 64-bit wrap of every
value; and ``UNROLL_LIMIT``, the most statements a thread unrolls to.
It imports nothing from the rest of the package; the records' base,
``Record``, is in the package root.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import chain
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

UNROLL_LIMIT = 1024  # most statements a thread unrolls to, and most semaphores


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


def _statuses(length: int) -> tuple[int, ...]:
    """A thread of ``length`` statements' status at each counter, ``0`` to ``length + 1``.

    The counter is statements executed plus one, so the status is the
    counter less one, ``DONE`` once that is ``length`` (and at counter 0).
    """
    return (*range(-1, length), DONE)


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


_CHUNK = 16  # a search holds more values than this in chunks of this many, the last maybe fewer


def _wide(names: tuple[str, ...] | dict[str, int]) -> bool:
    """Whether a search holds the values of a program with these variables in chunks."""
    return len(names) > _CHUNK


def _in_chunks(values: tuple) -> bool:
    """Whether a wide program's ``values`` are in chunks, as a search holds them, not flat."""
    return type(values[0]) is tuple


def _chunks(values: tuple[int, ...]) -> tuple:
    """Flat values as the search holds them: a wide program's in chunks, which are tuples."""
    if _wide(values):
        return tuple(values[k:k + _CHUNK] for k in range(0, len(values), _CHUNK))
    return values


def _snapshot_at(names: tuple[str, ...], statuses: tuple[tuple[int, ...], tuple[int, ...]],
                 state: tuple, counter: tuple[int, int]) -> Snapshot:
    """The flat ``Snapshot`` of the search's ``(values, output, bank)`` at ``counter``.

    ``names`` are the program's, and ``statuses`` its threads' :func:`_statuses`.
    """
    values, output, bank = state
    if values and type(values[0]) is tuple:  # _in_chunks, inline
        values = tuple(chain.from_iterable(values))
    status0, status1 = statuses[0][counter[0]], statuses[1][counter[1]]
    return _tuple_new(Snapshot, (names, values, output, bank, status0, status1))


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
    distinct value, in memos of at most ``_MEMO_SIZE`` entries; so too the
    text of each chunk, one memo and one template for each chunk position.
    """
    global _kept_canonical
    kept_names, kept = _kept_canonical
    if kept_names is names:
        return kept
    banks: dict[tuple[bool, ...], str] = {}
    templates = [",".join(name.replace("%", "%%") + "=%s" for name in names[k:k + _CHUNK])
                 for k in range(0, len(names), _CHUNK)]
    head = "vars{%s};" if _wide(names) else "vars{" + "".join(templates) + "};"
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

    if _wide(names):
        memos: list[dict[tuple[int, ...], str]] = [{} for _ in templates]

        def by_chunk(snapshot: Snapshot | tuple) -> str:
            _, values, *rest = snapshot
            if not _in_chunks(values):
                values = _chunks(values)
            text = ",".join([memo.get(chunk) or _remember(memo, chunk, template % chunk)
                             for memo, template, chunk in zip(memos, templates, values)])
            return canonical((None, (text,), *rest))

    _kept_canonical = names, by_chunk if _wide(names) else canonical
    return _kept_canonical[1]


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
    """Map from combined counter to the first visit seen there, in rows indexed ``[s0][s1]``.

    A table is made for one ``program`` (a :class:`~paircheck.toylang.ProgramPair`)
    and fed the search's :class:`PartialInterleaving` of ``(values, output,
    bank)``, a wide program's values in chunks.  Its rows cover the counter
    lattice, where a counter component runs from 0 to its thread's length
    plus one.  A row list is ``None`` until the table is first fed a counter
    in it, so a search stopped early holds only the rows it reached.  The
    point of the lattice holds the stored state or, in digest mode, its
    :func:`digest`; a parallel ``bytearray`` row holds the link, the trace
    symbol of the step the first visit came by, and in digest mode another
    holds the tag ``hash(state) & 0xFF``.  An empty point holds ``None``;
    ``len`` counts the others.  Entries are never evicted; a stored state is
    replaced by the flat ``Snapshot`` its first race reports, so a race is
    compared again flat, for a visit equal to it.

    Only the root and the points on the lattice's edge, where a thread is
    done, keep their whole trace, in a list row that is ``None`` elsewhere;
    the last row and column have no link bytes.  A race's stored trace is
    rebuilt by following the links back to a known trace (see ``_walk``),
    and is then kept at the raced point, so the races at one counter share
    it.  That is right only for a table
    fed in the search's order, where each first visit inside the edge was
    stepped from its predecessor's first visit: the search expands a state
    that is not its counter's first visit only after a completion step, on
    the edge, or where it equals that first visit, whose successors it then
    reaches again.  A walk that finds a point with neither a link nor a
    trace is a ``ValueError``.
    """

    def __init__(self, digest_mode: bool, program):
        self.digest_mode = digest_mode
        rows = len(program.thread0.statements) + 2
        self._width = len(program.thread1.statements) + 2
        self._stored: list[list[tuple | Snapshot | bytes | None] | None] = [None] * rows
        self._links: list[bytearray | None] = [None] * rows
        self._tags: list[bytearray | None] | None = [None] * rows if digest_mode else None
        self._traces: list[list[str | None] | None] = [None] * rows  # kept: root, edge, races
        self._names = program.names
        self._statuses = program.compiled.statuses
        self._wide = _wide(program.names)

    def __len__(self) -> int:
        return sum(len(row) - row.count(None) for row in self._stored if row is not None)

    def _row(self, s0: int) -> list:
        """Make row ``s0``'s points, kept traces, link bytes and, in digest mode, tags; return its points."""
        if self._stored[s0] is not None:  # indexed by what is not an int
            raise TypeError(f"no state table row {s0!r}")
        width, last = self._width, len(self._stored) - 1
        row = self._stored[s0] = [None] * width
        self._traces[s0] = [None] * width
        self._links[s0] = bytearray(width - 1 if s0 < last else 0)  # none on the edge
        if self._tags is not None:
            self._tags[s0] = bytearray(width)
        return row

    def _walk(self, s0: int, s1: int) -> str:
        """The first visit's trace at ``(s0, s1)``, rebuilt from the links back to a known one.

        A trace is known where it is kept, or where a thread has not yet
        stepped, since one trace reaches such a point.  A run of ``"1"``
        links along a row is crossed at once.
        """
        traces, links = self._traces, self._links
        back = []  # the runs of symbols walked, last first
        while True:
            try:
                trace = traces[s0][s1]
            except TypeError:  # a row not made
                trace = None
            if trace is not None:
                break
            if s0 == 1 or s1 == 1:
                points = self._stored[s0]
                if points is None or points[s1] is None:
                    raise ValueError(f"no first visit at counter {(s0, s1)!r}: "
                                     "the state table was not fed in the search's order")
                trace = "0" * (s0 - 1) + "1" * (s1 - 1)
                break
            try:
                row = links[s0]
                link = row[s1]
            except (TypeError, IndexError):  # a row not made, or the edge: no links
                link = 0
            if link == 49:  # "1": back along the row to the first byte that is not
                k = max(row.rfind(b"0", 0, s1), row.rfind(b"\0", 0, s1))
                back.append("1" * (s1 - k))
                s1 = k
            elif link == 48:  # "0"
                back.append("0")
                s0 -= 1
            else:
                raise ValueError(f"no trace or link at counter {(s0, s1)!r}: "
                                 "the state table was not fed in the search's order")
        back.append(trace)
        return "".join(reversed(back))

    def visit(self, interleaving: PartialInterleaving) -> FirstVisit | PrunedEqual | Race:
        """Record a first visit, or compare against the stored one.

        Returns the one ``FirstVisit`` (entry stored), the one
        ``PrunedEqual`` (stored state equal; table unchanged), or a ``Race``
        record of both visits, each side a flat ``Snapshot`` (states differ;
        table unchanged), so a caller may tell them apart by identity.  In
        digest mode a revisit is digested only when its tag matches: equal
        states share a tag.  A counter with a negative component, or one
        past the program's lattice, is a ``ValueError``.  Visits come in the
        search's order (see the class).
        """
        state, trace, counter = interleaving
        s0, s1 = counter
        if s0 < 0 or s1 < 0:  # a negative index would alias another counter's point
            raise ValueError(f"no state table point for counter {counter!r}")
        try:
            row = self._stored[s0]
            stored = row[s1]
        except IndexError:
            raise ValueError(f"no state table point for counter {counter!r}") from None
        except TypeError:  # row s0 is None until the table is fed a counter in it
            row, stored = self._row(s0), None
            if s1 >= len(row):
                raise ValueError(f"no state table point for counter {counter!r}") from None
        names, tags = self._names, self._tags
        if tags is not None:
            tag = hash(state) & 0xFF
            if stored is None or tags[s0][s1] == tag:
                # the text of the Snapshot at this counter, its values as held
                values, output, bank = state
                status0, status1 = self._statuses
                digested = digest((names, values, output, bank, status0[s0], status1[s1]))
        if stored is None:
            row[s1] = state if tags is None else digested
            if tags is not None:
                tags[s0][s1] = tag
            try:
                self._links[s0][s1] = ord(trace[-1])
            except IndexError:  # the root's empty trace, or an edge point, which has no link
                self._traces[s0][s1] = trace
            return _FIRST_VISIT
        if tags is None:
            if stored == state:
                return _PRUNED_EQUAL
            stored_digest = None
        elif tags[s0][s1] == tag and stored == digested:
            return _PRUNED_EQUAL
        else:
            stored, stored_digest = None, stored
        # each side of a race is the flat Snapshot at this counter
        status0, status1 = self._statuses
        if type(stored) is tuple:  # a full-mode state, at its first race: the Snapshot races share
            values, output, bank = stored
            if self._wide:
                values = tuple(chain.from_iterable(values))
            stored = row[s1] = _tuple_new(
                Snapshot, (names, values, output, bank, status0[s0], status1[s1]))
        values, output, bank = state
        if self._wide:
            values = tuple(chain.from_iterable(values))
        snapshot = _tuple_new(Snapshot, (names, values, output, bank, status0[s0], status1[s1]))
        if stored == snapshot:  # full mode: a visit equal to the stored Snapshot
            return _PRUNED_EQUAL
        kept = self._traces[s0]
        stored_trace = kept[s1]  # the root's, an edge point's, or this point's last race's
        if stored_trace is None:  # its first race: rebuilt, and kept from now on
            try:  # most often one link back to a point that raced before
                if self._links[s0][s1] == 48:  # "0"
                    stored_trace = self._traces[s0 - 1][s1] + "0"
                else:
                    stored_trace = kept[s1 - 1] + "1"
            except TypeError:  # no trace kept there: None + str
                stored_trace = self._walk(s0, s1)
            kept[s1] = stored_trace
        return _tuple_new(Race, (counter, stored_trace, stored, stored_digest, trace, snapshot))
