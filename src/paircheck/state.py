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
is a NamedTuple, so a full-mode entry is compared with the C-level tuple
``==``, over the same six fields the digest covers.  The tag only proves
inequality: differing tags are a race without a digest of the later
arrival, and equal tags fall through to the digest comparison.

The module also defines :class:`Record`, the slotted base of the
package's other records (the AST, programs and the exploration config),
which gives them field-wise ``==``, hash and repr without the
``dataclasses`` module; the output escaping of the canonical bytes (which
``analysis.render`` shares); and :func:`wrap64`, the 64-bit wrap of every
value.  It imports nothing from the rest of the package.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import attrgetter
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


def _status_key(status: int) -> str:
    return "done" if status == DONE else f"run@{status}"


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


class Record:
    """Base of the package's records: ``__init__``, field-wise ``==``, hash and repr; frozen.

    A subclass declares ``__slots__ = __match_args__ = (...)``.  ``__init__``
    takes each field once, by position or keyword, else ``TypeError``; a record
    with more slots, defaults or checks sets its fields with ``super().__init__``.
    ``==``, hash and repr cover ``__match_args__``, and records of two classes
    are never equal.  Setting or deleting a field raises ``AttributeError``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = cls.__match_args__
        get = attrgetter(*fields)  # the fields as a tuple, or one field as itself
        cls._key = get if len(fields) > 1 else staticmethod(lambda record: (get(record),))

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self.__match_args__
        if kwargs or len(args) != len(fields):  # the parser gives every field by position
            rest = fields[len(args):]  # the fields the keywords must give
            if len(args) > len(fields) or kwargs.keys() != set(rest):
                raise TypeError(f"{type(self).__name__}() takes each of the fields {fields} once")
            args += tuple(map(kwargs.get, rest))
        k = 0  # a counter: cheaper than zip or enumerate, and the parser builds many nodes
        for name in fields:
            _set(self, name, args[k])
            k += 1

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__match_args__, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


_set = object.__setattr__  # how a record sets its fields past __setattr__


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


_UD = bytes.maketrans(b"\0\1", b"DU")  # a semaphore bank's bytes to its U/D key


def canonical_encoder(names: tuple[str, ...], len0: int, len1: int) -> Callable[[Snapshot], str]:
    """:meth:`Snapshot.canonical` compiled for the snapshots of one program.

    ``names`` are the program's sorted variable names and ``len0`` and
    ``len1`` its thread lengths, so each status is below its thread's
    length or ``DONE``.  The variables are one ``%``-format; the
    semaphore bank and the statuses are table lookups.
    """
    # DONE (-1) picks the last key of each status-key tuple, "done"
    head = "vars{" + ",".join(name.replace("%", "%%") + "=%s" for name in names) + '};out="'
    keys0 = tuple(f";st0=run@{k}" for k in range(len0)) + (";st0=done",)
    keys1 = tuple(f";st1=run@{k}" for k in range(len1)) + (";st1=done",)

    def encode(snapshot: Snapshot) -> str:
        return (
            head % snapshot.values
            + _escape(snapshot.output)
            + '";sems='
            + bytes(snapshot.semaphores).translate(_UD).decode()
            + keys0[snapshot.status0]
            + keys1[snapshot.status1]
        )

    return encode


_blake2b = None  # the blake2b constructor, loaded by the first digest


def _load_blake2b():
    global _blake2b
    try:
        from _blake2 import blake2b  # what hashlib.blake2b is, without loading OpenSSL
    except ImportError:
        from hashlib import blake2b
    _blake2b = blake2b
    return blake2b


def digest(snapshot: Snapshot, encode: Callable[[Snapshot], str] = Snapshot.canonical) -> bytes:
    """128-bit digest of the canonical serialization (blake2b-128).

    Deterministic across runs and platforms.  A lone surrogate in the
    output is hashed as its ``surrogatepass`` bytes.  ``encode`` gives
    the serialization; a program's :func:`canonical_encoder` gives the
    same string as :meth:`Snapshot.canonical`, faster.
    """
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
    trace, tag)``: the digest of ``encode(snapshot)``, which ``explore``
    makes the program's compiled encoder, and the tag ``hash(snapshot) &
    0xFF``, a cached small int.  Entries are never evicted or overwritten.
    Every interleaving visited should come from the same
    :class:`~paircheck.toylang.ProgramPair`: snapshots are compared with
    plain ``==``, so snapshots of two programs with different variable
    names differ, and ``encode`` formats one program's snapshots.
    """

    def __init__(
        self, digest_mode: bool = False, encode: Callable[[Snapshot], str] = Snapshot.canonical
    ):
        self.digest_mode = digest_mode
        self.encode = encode
        self._entries: dict[tuple[int, int], tuple[Snapshot, str] | tuple[bytes, str, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def visit(self, interleaving: PartialInterleaving) -> FirstVisit | PrunedEqual | Race:
        """Record a first visit, or compare against the stored one.

        Returns ``FirstVisit`` (entry stored), ``PrunedEqual`` (stored
        state equal; table unchanged), or a ``Race`` record of both visits
        (states differ; table unchanged).  In digest mode a revisit is
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
            return _tuple_new(Race, (counter, stored_trace, stored, None, trace, snapshot))
        tag = hash(snapshot) & 0xFF
        if entry is None:
            self._entries[counter] = (digest(snapshot, self.encode), trace, tag)
            return _FIRST_VISIT
        stored, stored_trace, stored_tag = entry
        if stored_tag == tag and stored == digest(snapshot, self.encode):
            return _PRUNED_EQUAL
        return _tuple_new(Race, (counter, stored_trace, None, stored, trace, snapshot))
