"""Depth-first exploration of all interleavings of a two-thread program.

The search is one loop that steps from each expanded state straight to
its first successor.  Where both threads could execute a statement the
step is a *branch*: thread 0 is stepped first, and the state goes on an
explicit stack until thread 0's whole subtree is searched and thread 1's
step is due.  Where the other thread would block the step is *forced*;
once one thread has finished, the other runs to completion one
*completion* step at a time.  Branch and forced steps are counted where
they are scheduled, and every other executed statement is a completion
statement.  When more statements have run than the budget
``max_total_steps`` allows, the loop stops and the report is marked
incomplete.

With race detection on, every state reached by an executed statement is
checked against the state table.  An equal stored snapshot lets pruning
cut the subtree (it was already explored from an identical state).  A
differing one is reported as a race and ends the search below that
state, except after a completion step: a race found there does not end
the run, which goes on to record its final outcome.

Inside the search a state is the plain triple ``(values, output, bank)``,
a wide program's values in chunks (a step copies one).  A thread's
position is its counter: its status is the counter less one, or ``DONE``
once that is its length, so a step sets no status, and the program's
``names`` and both statuses are added back only where a state leaves the
search, as a flat ``Snapshot``.  Each outcome, deadlock and block-forever
entry is the state where the search found it, equal to ``replay(pair,
entry.trace)``, and each race is the :class:`~paircheck.state.Race` the
state table, made for the program, returned.

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
variable values, or their chunks, and every ``(thread, statement index)``
one transition closure.  A transition unpacks the search's state once,
computes the one field its statement changes (the values, the output or
the semaphore bank), and builds the successor triple, its trace symbol
fixed at compile time; :func:`step` finds the statement from the counter
and calls it, and steps a caller's ``Snapshot`` from its own status to a
flat one.  A schedule per thread, indexed by the counter, says whether
the thread's next statement always runs, waits on a semaphore (an
``up``), or the thread is done, which is how the search tells which
threads can move.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from . import Record, _require
from .state import (
    _CHUNK, _FIRST_VISIT, _I64_MIN, _PRUNED_EQUAL, _U64, DONE, PartialInterleaving, Race, Snapshot,
    UNROLL_LIMIT, StateTable, _chunks, _snapshot_at, _statuses, _tuple_new, _wide, wrap64,
)
from .toylang import (
    Assign, BinOp, Emit, Expr, IntLit, ProgramPair, SemDown, SemUp, Statement, Var,
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

# A compiled statement: from the search's interleaving whose thread stands
# before the statement to its successor.
Transition = Callable[[PartialInterleaving], PartialInterleaving]

# A schedule entry besides an up's semaphore index: the statement never blocks,
# or the thread is done.
_RUNS, _ENDED = -1, -2


class CompiledProgram(NamedTuple):
    """A :class:`ProgramPair` compiled once for stepping; see ``ProgramPair.compiled``."""

    transitions: tuple[tuple[Transition, ...], tuple[Transition, ...]]  # [tid][index]
    # [tid][counter]: the semaphore the thread's next statement waits on if it
    # is an up, _RUNS if it is another statement, or _ENDED once the thread is
    # done (and at counter 0)
    schedules: tuple[tuple[int, ...], tuple[int, ...]]
    statuses: tuple[tuple[int, ...], tuple[int, ...]]  # [tid][counter], see state._statuses


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
    statuses = tuple(_statuses(len(statements)) for statements in threads)
    schedules = tuple(
        tuple(_ENDED if k == DONE else statements[k].index if isinstance(statements[k], SemUp)
              else _RUNS for k in thread_statuses)
        for statements, thread_statuses in zip(threads, statuses)
    )
    return CompiledProgram(transitions, schedules, statuses)


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
            q, r = divmod(slots[name], _CHUNK)
            return itemgetter(slots[name]) if not _wide(slots) else lambda values: values[q][r]
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

    The transition takes and returns the search's interleaving, whose
    state is ``(values, output, bank)``: its thread's status is its
    counter, so the transition sets none, and its trace symbol is fixed
    here.  It unpacks the old state once, computes the one field its
    statement changes, and builds the successor inline: a helper would
    cost a call on every step.  An assignment or a semaphore change sets
    its one slot in a list copy, a wide program's assignment in a copy of
    its chunk; a literal's value is made here, so it costs no call.
    """
    stmt = statements[index]
    k = text = constant = evaluate = up = None
    match stmt:
        case Assign(target, expr):
            kind, k = _ASSIGN, slots[target]
            evaluate = _compile_expr(expr, slots)
            constant = wrap64(expr.value) if isinstance(expr, IntLit) else None
            if _wide(slots):  # values in chunks: the transition sets chunk k
                (k, r), value, fixed, constant = divmod(k, _CHUNK), evaluate, constant, None

                def evaluate(values):  # chunk k with slot r set
                    chunk = list(values[k])
                    chunk[r] = value(values) if fixed is None else fixed
                    return tuple(chunk)
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
        (values, output, bank), trace, (s0, s1) = i
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
        state = values, output, bank
        if tid:
            return _tuple_new(PartialInterleaving, (state, trace + "1", (s0, s1 + 1)))
        return _tuple_new(PartialInterleaving, (state, trace + "0", (s0 + 1, s1)))

    return transition


# ---------------------------------------------------------------------------
# Core stepping operations
# ---------------------------------------------------------------------------


def _start(pair: ProgramPair) -> PartialInterleaving:
    """The search's interleaving before any statement: its state is ``(values, output, bank)``."""
    initial = dict(pair.variables)
    values = tuple(initial[name] for name in pair.names)
    return PartialInterleaving((_chunks(values), "", (False,) * pair.num_semaphores), "", (1, 1))


def _reported(pair: ProgramPair, i: PartialInterleaving) -> PartialInterleaving:
    """The search's interleaving ``i`` with the flat :class:`Snapshot` a report holds."""
    snapshot, trace, counter = i
    snapshot = _snapshot_at(pair.names, pair.compiled.statuses, snapshot, counter)
    return _tuple_new(PartialInterleaving, (snapshot, trace, counter))


def initial_interleaving(pair: ProgramPair) -> PartialInterleaving:
    """State at the first scheduling point, before any statement runs."""
    return _reported(pair, _start(pair))


def step(pair: ProgramPair, i: PartialInterleaving, tid: int) -> PartialInterleaving:
    """Execute thread ``tid``'s next statement and return the successor of ``i``.

    Assignments, emits, and ``down`` always execute; an ``up`` executes
    only on a lowered semaphore.  The successor's counter and trace
    record the statement, and the thread's status moves to its next
    statement index, or to ``DONE`` after its last statement.  The
    search's ``(values, output, bank)`` steps from its counter; a caller's
    :class:`Snapshot` steps from its own status, whatever its counter, to
    a flat ``Snapshot``.

    Raises :class:`EngineError` when ``tid`` is not 0 or 1, when the
    thread is finished, or when its next statement is an ``up`` on a
    raised semaphore (it would block).
    """
    # index with the literal: a tid such as 1.0 equals 1 but cannot index a tuple
    if tid == 0:
        transitions, counter = pair.compiled.transitions[0], i[2][0]
    elif tid == 1:
        transitions, counter = pair.compiled.transitions[1], i[2][1]
    else:
        raise EngineError(f"no thread {tid!r}")
    if len(i[0]) != 3:  # a caller's snapshot, not the search's (values, output, bank)
        return _step_snapshot(pair, i, tid, transitions)
    if 0 < counter <= len(transitions):  # the counter is the status, plus one
        return transitions[counter - 1](i)
    raise EngineError(f"thread {tid} is finished")


def _step_snapshot(pair: ProgramPair, i: PartialInterleaving, tid: int,
                   transitions: tuple[Transition, ...]) -> PartialInterleaving:
    """:func:`step` of a caller's snapshot: from its own status, as the search's state.

    The successor is a flat ``Snapshot``.
    """
    snapshot, trace, counter = i
    names, values, output, bank, status0, status1 = snapshot
    index = status1 if tid else status0
    if not 0 <= index < len(transitions):  # DONE, or a hand-built status past the thread's end
        raise EngineError(f"thread {tid} is finished")
    (values, output, bank), trace, counter = transitions[index](
        _tuple_new(PartialInterleaving, ((_chunks(values), output, bank), trace, counter)))
    if _wide(pair.names):
        values = tuple(chain.from_iterable(values))
    status = DONE if index + 1 == len(transitions) else index + 1
    if tid:
        snapshot = names, values, output, bank, status0, status
    else:
        snapshot = names, values, output, bank, status, status1
    return _tuple_new(PartialInterleaving, (_tuple_new(Snapshot, snapshot), trace, counter))


def replay(pair: ProgramPair, trace: str) -> PartialInterleaving:
    """Re-execute a trace from the initial state.

    Raises :class:`ReplayError` with the failing position when a symbol
    names a thread that is finished or would block.
    """
    i = _start(pair)
    for position, symbol in enumerate(trace):
        if symbol not in ("0", "1"):
            raise ReplayError(f"bad trace symbol {symbol!r}", position)
        try:
            i = step(pair, i, int(symbol))
        except EngineError as exc:
            raise ReplayError(str(exc), position) from None
    return _reported(pair, i)


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

def explore(pair: ProgramPair, cfg: ExplorationConfig | None = None) -> ExplorationReport:
    """Enumerate interleavings depth-first and build a report.

    The branch order explores thread 0's next statement before thread
    1's, so the first completed interleaving runs thread 0 as far as
    possible.  With ``race_detection`` the state table is consulted at
    every executed statement; ``pruning`` additionally cuts subtrees
    rooted at snapshot-identical states.  Without ``race_detection``
    there is no table and the search is exhaustive.

    The search steps ``(values, output, bank)`` triples, a wide program's
    values in chunks, and schedules each thread from its counter; its
    report holds flat ``Snapshot`` records.  If the statement budget runs
    out the search stops there and the report has ``complete=False``.
    """
    cfg = cfg or ExplorationConfig()
    step_ = step  # a tracer wraps the module's step before the call
    _, (schedule0, schedule1), _ = pair.compiled
    runs, ended = _RUNS, _ENDED  # as locals: the loop tests them at every state
    table = StateTable(cfg.digest_mode, pair) if cfg.race_detection else None
    pruning, max_total_steps = cfg.pruning, cfg.max_total_steps
    outcomes: dict[tuple, PartialInterleaving] = {}  # keyed on the final (values, output, bank)
    races: list[Race] = []
    deadlocks: list[PartialInterleaving] = []
    block_forever: list[PartialInterleaving] = []
    deferred: list[PartialInterleaving] = []  # branch states whose thread 1 step is still due
    executed = branch_statements = forced_statements = interleavings = pruned = 0
    complete = True
    i = _start(pair)  # the root, checked like a branch state
    completing = False  # whether i was reached by a completion step
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
                expand = completing
        if expand:
            # Record the finding that ends at i, or pick the step leaving
            # it; a branch defers thread 1's step, so thread 0's whole
            # subtree is searched first.  Each thread's schedule entry at
            # its counter is runs, ended or the semaphore k of an up, which
            # waits while k is raised.
            c0, c1 = i[2]
            k0, k1 = schedule0[c0], schedule1[c1]
            completing = False
            if k0 == runs and k1 == runs:
                deferred.append(i)
                tid = 0
                branch_statements += 1
            elif k0 == ended or k1 == ended:  # a thread is done: the other completes, if it can
                if k0 == ended:
                    k, tid = k1, 1
                else:
                    k, tid = k0, 0
                if k == ended:
                    interleavings += 1
                    outcomes.setdefault(i[0], i)
                    expand = False
                elif k >= 0 and i[0][2][k]:
                    block_forever.append(_reported(pair, i))
                    expand = False
                else:
                    completing = True
            else:
                bank = i[0][2]
                wb0 = k0 >= 0 and bank[k0]
                wb1 = k1 >= 0 and bank[k1]
                if wb0 and wb1:
                    deadlocks.append(_reported(pair, i))
                    expand = False
                elif wb0 or wb1:
                    tid = 1 if wb0 else 0
                    forced_statements += 1
                else:
                    deferred.append(i)
                    tid = 0
                    branch_statements += 1
        if not expand:
            if not deferred:
                break
            i, tid, completing = deferred.pop(), 1, False
            branch_statements += 1
        i = step_(pair, i, tid)
        executed += 1
        if executed > max_total_steps:
            complete = False
            break

    stats = ExplorationStats(
        branch_statements=branch_statements,
        completion_statements=executed - branch_statements - forced_statements,
        complete_interleavings=interleavings,
        pruned_subtrees=pruned,
        races_found=len(races),
        table_entries=0 if table is None else len(table),
    )
    return ExplorationReport(
        outcomes=tuple(_reported(pair, i) for i in outcomes.values()),
        races=tuple(races),
        deadlocks=tuple(deadlocks),
        block_forever=tuple(block_forever),
        stats=stats,
        complete=complete,
        digest_mode=cfg.digest_mode,
    )
