"""Depth-first exploration of all interleavings of a two-thread program.

The search is one loop that steps from each expanded state straight to
its first successor.  Where both threads could execute a statement the
step is a *branch*: thread 0 is stepped first, and the state goes on an
explicit stack until thread 0's whole subtree is searched and thread 1's
step is due.  Where the other thread would block the step is *forced*;
once one thread has finished, the other runs to completion one
*completion* step at a time.  The kind
decides which statistic counts the step (``branch_statements``, none, or
``completion_statements``).  When more statements have run than the
budget ``max_total_steps`` allows, the loop stops and the report is
marked incomplete.

With race detection on, every state reached by an executed statement is
checked against the state table.  An equal stored snapshot lets pruning
cut the subtree (it was already explored from an identical state).  A
differing one is reported as a race and ends the search below that
state, except after a completion step: a race found there does not end
the run, which goes on to record its final outcome.

Inside the search a snapshot is the plain tuple of a :class:`Snapshot`'s
fields; a ``Snapshot`` is built only where a state leaves the search.
Each outcome, deadlock and block-forever entry is the state where the
search found it, equal to ``replay(pair, entry.trace)``, and each race
is the :class:`~paircheck.state.Race` the state table returned.

Semaphores follow deliberately nonstandard semantics: ``down(i)`` lowers
a raised semaphore and otherwise does nothing; ``up(i)`` raises a lowered
semaphore and *blocks* while it is already raised.  A thread whose next
statement would block is simply not schedulable (:func:`step` refuses
it), so every explored state is reproducible by replaying its trace:
there are no hidden scheduling events.  If both live threads stand
before blocking ``up`` calls, that state is a deadlock; if the sole
remaining live thread does, it would block forever.

``toylang`` only parses; how a statement runs is decided here.  Each
program is compiled once, when its ``ProgramPair`` is built, into a
:class:`CompiledProgram` (``pair.compiled``), so stepping interprets
nothing.  Every expression becomes a closure over the slot-ordered
variable values, and every ``(thread, statement index)`` one transition
closure.  A transition unpacks the old snapshot once, computes the one
field its statement changes (the values, the output or the semaphore
bank), and builds the successor snapshot as a plain tuple, a ``Snapshot``
only when it was given one, with the thread's next status and trace
symbol fixed at compile time; :func:`step` checks the thread and its
status and calls it.  A table per thread gives the semaphore each
statement waits on (an ``up``) or -1, which is how the search tells
which threads would block.  The compiled program only steps: a
digest-mode state table finds each snapshot's canonical writer from the
snapshot's own ``names``.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import itemgetter
from typing import NamedTuple

from . import Record, _require
from .state import (
    _FIRST_VISIT, _I64_MIN, _PRUNED_EQUAL, _U64, DONE, PartialInterleaving, Race, Snapshot,
    StateTable, _tuple_new, wrap64,
)
from .toylang import (
    UNROLL_LIMIT, Assign, BinOp, Emit, Expr, IntLit, ProgramPair, SemDown, SemUp, Statement, Var,
)

__all__ = [
    "EngineError",
    "ExplorationConfig",
    "ExplorationReport",
    "ExplorationStats",
    "ReplayError",
    "explore",
    "initial_interleaving",
    "replay",
    "step",
]


class EngineError(Exception):
    """A thread was stepped that cannot execute: it is finished, or it would block."""


class ReplayError(EngineError):
    """A trace references a thread that cannot execute at that point."""

    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


# ---------------------------------------------------------------------------
# Configuration, statistics, report
# ---------------------------------------------------------------------------


class ExplorationConfig(Record):
    __slots__ = __match_args__ = ("pruning", "race_detection", "digest_mode", "max_total_steps")

    def __init__(self, pruning: bool = True, race_detection: bool = True,
                 digest_mode: bool = False, max_total_steps: int = 1_000_000):
        for name, flag in zip(self.__match_args__, (pruning, race_detection, digest_mode)):
            _require(name, flag, bool)
        if digest_mode and not race_detection:
            raise ValueError("digest mode needs race detection")
        _require("max_total_steps", max_total_steps, int)
        if max_total_steps < 0:
            raise ValueError("max_total_steps must be non-negative")
        super().__init__(pruning, race_detection, digest_mode, max_total_steps)


class ExplorationStats(NamedTuple):
    branch_statements: int  # executed where both threads were live and unblocked
    completion_statements: int  # executed while exactly one thread was live
    complete_interleavings: int
    pruned_subtrees: int
    races_found: int
    table_entries: int


class ExplorationReport(NamedTuple):
    outcomes: tuple[PartialInterleaving, ...]  # each distinct final snapshot, first in DFS order
    races: tuple[Race, ...]
    deadlocks: tuple[PartialInterleaving, ...]
    block_forever: tuple[PartialInterleaving, ...]
    stats: ExplorationStats
    complete: bool  # False when the step budget cut the search short
    digest_mode: bool

    @property
    def race_found(self) -> bool:
        """Order-dependent behavior detected.

        True when the state table recorded a race, or when exploration
        produced more than one distinct final snapshot (which is a race
        at the final counter by definition).
        """
        return bool(self.races) or len(self.outcomes) > 1


# ---------------------------------------------------------------------------
# Compiled programs
# ---------------------------------------------------------------------------

# A compiled statement: from an interleaving whose thread stands before the
# statement to its successor.
Transition = Callable[[PartialInterleaving], PartialInterleaving]


class CompiledProgram(NamedTuple):
    """A :class:`ProgramPair` compiled once for stepping; see ``ProgramPair.compiled``."""

    transitions: tuple[tuple[Transition, ...], tuple[Transition, ...]]  # [tid][index]
    # [tid][index]: the semaphore the statement waits on if it is an up,
    # else -1; one more -1 at the end is the entry of DONE (index -1)
    blocks: tuple[tuple[int, ...], tuple[int, ...]]


def compile_program(pair: ProgramPair) -> CompiledProgram:
    """Compile each statement of ``pair`` into its transition.

    Unknown variables raise ``KeyError``; other nodes, and a leaf not of its
    exact type, raise ``TypeError``: a variable name or emit text that is not
    a ``str``, or an initial value, literal, semaphore count or index that is
    not an ``int`` (a ``bool`` is not one).  What else the parser rejects
    raises ``ValueError`` in its wording, without a position: an unknown
    operator, a variable declared twice, an initial value outside the signed
    64-bit range, an empty emit, a semaphore count or index out of range, or
    a thread of more than ``UNROLL_LIMIT`` statements.
    """
    names, sems = pair.names, pair.num_semaphores
    twice = [a for a, b in zip(names, names[1:]) if a == b]
    if twice:
        raise ValueError(f"variable {twice[0]!r} declared twice")
    for name, value in pair.variables:
        _require("variable name", name, str)
        _require(f"initial value of {name!r}", value, int)
        if wrap64(value) != value:
            raise ValueError(f"initial value of {name!r} out of the signed 64-bit range: {value}")
    _require("semaphore count", sems, int)
    if sems < 0:
        raise ValueError("semaphore count must be non-negative")
    if sems > UNROLL_LIMIT:
        raise ValueError(f"semaphore count {sems} over the limit of {UNROLL_LIMIT}")
    slots = {name: k for k, name in enumerate(names)}
    threads = (pair.thread0.statements, pair.thread1.statements)
    if max(map(len, threads)) > UNROLL_LIMIT:
        raise ValueError(f"thread exceeds unroll limit of {UNROLL_LIMIT} statements")
    transitions = tuple(
        tuple(_transition(statements, k, tid, slots, sems) for k in range(len(statements)))
        for tid, statements in enumerate(threads)
    )
    blocks = tuple(
        tuple(stmt.index if isinstance(stmt, SemUp) else -1 for stmt in statements) + (-1,)
        for statements in threads
    )
    return CompiledProgram(transitions, blocks)


def _compile_expr(expr: Expr, slots: dict[str, int]) -> Callable[[tuple[int, ...]], int]:
    """Compile an expression to a closure over the slot-ordered values.

    Every result is wrapped to 64 bits (:func:`~paircheck.state.wrap64`).
    Unknown variables raise ``KeyError``, unknown operators ``ValueError``,
    and other nodes and a literal that is not an ``int`` ``TypeError``, at
    compile time.
    """
    match expr:
        case IntLit(value):
            _require("literal", value, int)
            constant = wrap64(value)
            return lambda values: constant
        case Var(name):
            return itemgetter(slots[name])
        case BinOp(op, left, right):
            a = _compile_expr(left, slots)
            b = _compile_expr(right, slots)
            # wrap64 inlined: one call per operator instead of two
            if op == "+":
                return lambda values: (a(values) + b(values) - _I64_MIN) % _U64 + _I64_MIN
            if op == "-":
                return lambda values: (a(values) - b(values) - _I64_MIN) % _U64 + _I64_MIN
            if op == "*":
                return lambda values: (a(values) * b(values) - _I64_MIN) % _U64 + _I64_MIN
            raise ValueError(f"unknown operator {op!r}")
    raise TypeError(f"not an expression: {expr!r}")


# What a transition changes: the values, the output, or the semaphore bank.
_ASSIGN, _EMIT, _SEMAPHORE = range(3)


def _transition(
    statements: tuple[Statement, ...], index: int, tid: int, slots: dict[str, int], sems: int
) -> Transition:
    """Compile statement ``index`` of thread ``tid``, whose statements are ``statements``.

    The thread's next status (``index + 1``, or ``DONE`` after its last
    statement) and its trace symbol are fixed here.  The transition
    unpacks the old snapshot once, computes the one field its statement
    changes, and builds the successor inline: a helper would cost a call
    on every step.  An assignment or a semaphore change sets its one slot
    in a list copy; a literal's value is made here, so it costs no call.
    A plain snapshot steps to a plain tuple, a ``Snapshot`` to a ``Snapshot``.
    """
    stmt = statements[index]
    status = DONE if index == len(statements) - 1 else index + 1
    k = text = constant = evaluate = up = None
    match stmt:
        case Assign(target, expr):
            kind, k = _ASSIGN, slots[target]
            evaluate = _compile_expr(expr, slots)
            constant = wrap64(expr.value) if isinstance(expr, IntLit) else None
        case Emit(text):
            _require("emit text", text, str)
            if not text:
                raise ValueError("emit string must have at least one character")
            kind = _EMIT
        case SemDown(k) | SemUp(k):
            _require("semaphore index", k, int)
            if not 0 <= k < sems:
                raise ValueError(f"semaphore index {k} out of range (program declares {sems})")
            kind, up = _SEMAPHORE, isinstance(stmt, SemUp)
        case _:
            raise TypeError(f"not a statement: {stmt!r}")

    def transition(i):
        snapshot, trace, (s0, s1) = i
        names, values, output, bank, status0, status1 = snapshot
        if kind == _ASSIGN:
            slots = list(values)
            slots[k] = evaluate(values) if constant is None else constant
            values = tuple(slots)
        elif kind == _EMIT:
            output += text
        elif bank[k] != up:  # a down lowers a raised semaphore, an up raises a lowered one
            slots = list(bank)
            slots[k] = up
            bank = tuple(slots)
        elif up:
            raise EngineError(f"thread {tid} would block on up({k})")
        if tid:
            new = names, values, output, bank, status0, status
            if type(snapshot) is not tuple:
                new = _tuple_new(Snapshot, new)
            return _tuple_new(PartialInterleaving, (new, trace + "1", (s0, s1 + 1)))
        new = names, values, output, bank, status, status1
        if type(snapshot) is not tuple:
            new = _tuple_new(Snapshot, new)
        return _tuple_new(PartialInterleaving, (new, trace + "0", (s0 + 1, s1)))

    return transition


# ---------------------------------------------------------------------------
# Core stepping operations
# ---------------------------------------------------------------------------


def initial_interleaving(pair: ProgramPair) -> PartialInterleaving:
    """State at the first scheduling point, before any statement runs."""
    initial = dict(pair.variables)
    snapshot = Snapshot(
        names=pair.names,
        values=tuple(initial[name] for name in pair.names),
        output="",
        semaphores=(False,) * pair.num_semaphores,
        status0=0 if pair.thread0.statements else DONE,
        status1=0 if pair.thread1.statements else DONE,
    )
    return PartialInterleaving(snapshot, "", (1, 1))


def step(pair: ProgramPair, i: PartialInterleaving, tid: int) -> PartialInterleaving:
    """Execute thread ``tid``'s next statement and return the successor of ``i``.

    Assignments, emits, and ``down`` always execute; an ``up`` executes
    only on a lowered semaphore.  The successor's counter and trace
    record the statement, and the thread's status moves to its next
    statement index, or to ``DONE`` after its last statement.

    Raises :class:`EngineError` when ``tid`` is not 0 or 1, when the
    thread is finished, or when its next statement is an ``up`` on a
    raised semaphore (it would block).
    """
    # index with the literal: a tid such as 1.0 equals 1 but cannot index a tuple
    if tid == 0:
        index, transitions = i[0][4], pair.compiled.transitions[0]  # status0
    elif tid == 1:
        index, transitions = i[0][5], pair.compiled.transitions[1]  # status1
    else:
        raise EngineError(f"no thread {tid!r}")
    if index == DONE:
        raise EngineError(f"thread {tid} is finished")
    return transitions[index](i)


def replay(pair: ProgramPair, trace: str) -> PartialInterleaving:
    """Re-execute a trace from the initial state.

    Raises :class:`ReplayError` with the failing position when a symbol
    names a thread that is finished or would block.
    """
    i = initial_interleaving(pair)
    for position, symbol in enumerate(trace):
        if symbol not in ("0", "1"):
            raise ReplayError(f"bad trace symbol {symbol!r}", position)
        try:
            i = step(pair, i, int(symbol))
        except EngineError as exc:
            raise ReplayError(str(exc), position) from None
    return i


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

# How a step was scheduled: both threads could move, the other thread
# would block, or the other thread is done.
_BRANCH, _FORCED, _COMPLETION = range(3)


def _reported(i: PartialInterleaving) -> PartialInterleaving:
    """``i`` with its plain search snapshot made a :class:`Snapshot`, as a report holds it."""
    return i._replace(snapshot=Snapshot._make(i.snapshot))


def explore(pair: ProgramPair, cfg: ExplorationConfig | None = None) -> ExplorationReport:
    """Enumerate interleavings depth-first and build a report.

    The branch order explores thread 0's next statement before thread
    1's, so the first completed interleaving runs thread 0 as far as
    possible.  With ``race_detection`` the state table is consulted at
    every executed statement; ``pruning`` additionally cuts subtrees
    rooted at snapshot-identical states.  Without ``race_detection``
    there is no table and the search is exhaustive.

    The search steps plain snapshot tuples, and its report holds
    ``Snapshot`` records.  If the statement budget runs out the search
    stops there and the report has ``complete=False``.
    """
    cfg = cfg or ExplorationConfig()
    _, (blocks0, blocks1) = pair.compiled
    table = StateTable(cfg.digest_mode) if cfg.race_detection else None
    pruning, max_total_steps = cfg.pruning, cfg.max_total_steps
    outcomes: dict[tuple, PartialInterleaving] = {}  # keyed on the plain final snapshot
    races: list[Race] = []
    deadlocks: list[PartialInterleaving] = []
    block_forever: list[PartialInterleaving] = []
    deferred: list[PartialInterleaving] = []  # branch states whose thread 1 step is still due
    executed = branch_statements = completion_statements = interleavings = pruned = 0
    complete = True
    i = initial_interleaving(pair)  # the root, checked like a branch state
    i, kind = i._replace(snapshot=tuple(i.snapshot)), _BRANCH  # the search steps plain snapshots
    while True:
        expand = True
        if table is not None:
            seen = table.visit(i)  # one of two singletons, else a Race
            if seen is _PRUNED_EQUAL:
                # the stored visit already explored this subtree
                if pruning:
                    pruned += 1
                    expand = False
            elif seen is not _FIRST_VISIT:
                races.append(seen)
                # The stored visit already explored every schedule below
                # this counter, so the subtree is cut (states reachable
                # only from the divergent side go unexplored, inherent to
                # table-based detection).  A completion step has no
                # subtree to cut: its run goes on to the final outcome.
                expand = kind == _COMPLETION
        if expand:
            # Record the finding that ends at i, or pick the step leaving
            # it; a branch defers thread 1's step, so thread 0's whole
            # subtree is searched first.
            snap = i[0]
            _, _, _, bank, status0, status1 = snap
            # each thread's next statement waits on semaphore k if k >= 0 and
            # it is raised; a finished thread (DONE) waits on none
            k0, k1 = blocks0[status0], blocks1[status1]
            wb0 = k0 >= 0 and bank[k0]
            wb1 = k1 >= 0 and bank[k1]
            done0, done1 = status0 == DONE, status1 == DONE
            expand = False  # until a step leaving i is picked
            if done0 and done1:
                interleavings += 1
                outcomes.setdefault(snap, i)
            elif done0 or done1:
                if wb0 or wb1:
                    block_forever.append(_reported(i))
                else:
                    tid, kind, expand = 1 if done0 else 0, _COMPLETION, True
            elif wb0 and wb1:
                deadlocks.append(_reported(i))
            elif wb0 or wb1:
                tid, kind, expand = 1 if wb0 else 0, _FORCED, True
            else:
                deferred.append(i)
                tid, kind, expand = 0, _BRANCH, True
        if not expand:
            if not deferred:
                break
            i, tid, kind = deferred.pop(), 1, _BRANCH
        i = step(pair, i, tid)
        if kind == _BRANCH:
            branch_statements += 1
        elif kind == _COMPLETION:
            completion_statements += 1
        executed += 1
        if executed > max_total_steps:
            complete = False
            break

    stats = ExplorationStats(
        branch_statements=branch_statements,
        completion_statements=completion_statements,
        complete_interleavings=interleavings,
        pruned_subtrees=pruned,
        races_found=len(races),
        table_entries=0 if table is None else len(table),
    )
    return ExplorationReport(
        outcomes=tuple(map(_reported, outcomes.values())),
        races=tuple(races),
        deadlocks=tuple(deadlocks),
        block_forever=tuple(block_forever),
        stats=stats,
        complete=complete,
        digest_mode=cfg.digest_mode,
    )
