"""Depth-first exploration of all interleavings of a two-thread program.

The search is one loop over an explicit stack of pending steps, each a
``(state, thread, kind)`` triple; a thread is stepped only when its
entry is popped.  Where both threads could execute a statement the step
is a *branch* and thread 0's step is searched first; where the other
thread would block it is *forced*; once one thread has finished, the
other runs to completion one *completion* step at a time.  The kind
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

The report holds the search's own records.  Each outcome, deadlock and
block-forever entry is the :class:`PartialInterleaving` at which the
search found it, so it unpacks as ``(snapshot, trace, counter)`` and
equals ``replay(pair, entry.trace)``.  Each race is the
:class:`~paircheck.state.Race` the state table returned.

Semaphores follow deliberately nonstandard semantics: ``down(i)`` lowers
a raised semaphore and otherwise does nothing; ``up(i)`` raises a lowered
semaphore and *blocks* while it is already raised.  A thread whose next
statement would block is simply not schedulable (:func:`step` refuses
it), so every explored state is reproducible by replaying its trace:
there are no hidden scheduling events.  If both live threads stand
before blocking ``up`` calls, that state is a deadlock; if the sole
remaining live thread does, it would block forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .state import DONE, PartialInterleaving, PrunedEqual, Race, Snapshot, StateTable
from .toylang import Assign, Emit, ProgramPair, SemDown, SemUp

__all__ = [
    "BudgetExceeded",
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


class BudgetExceeded(Exception):
    """A bench run hit its statement budget (raised by ``bench_table``, not ``explore``)."""


# ---------------------------------------------------------------------------
# Configuration, statistics, report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplorationConfig:
    pruning: bool = True
    race_detection: bool = True
    digest_mode: bool = False
    max_total_steps: int = 1_000_000

    def __post_init__(self) -> None:
        if self.digest_mode and not self.race_detection:
            raise ValueError("digest mode needs race detection")
        if self.max_total_steps < 0:
            raise ValueError("max_total_steps must be non-negative")


class ExplorationStats(NamedTuple):
    branch_statements: int = 0  # executed where both threads were live and unblocked
    completion_statements: int = 0  # executed while exactly one thread was live
    complete_interleavings: int = 0
    pruned_subtrees: int = 0
    races_found: int = 0
    table_entries: int = 0


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

    Raises :class:`EngineError` when the thread is finished or its next
    statement is an ``up`` on a raised semaphore (it would block).
    """
    snap = i.snapshot
    index = snap.status(tid)
    if index == DONE:
        raise EngineError(f"thread {tid} is finished")
    statements = pair.thread(tid).statements
    stmt = statements[index]
    values, output, sems = snap.values, snap.output, snap.semaphores
    match stmt:
        case Assign():
            values = pair.updates[tid][index](values)
        case Emit(text):
            output += text
        case SemDown(sem):
            if sems[sem]:
                sems = sems[:sem] + (False,) + sems[sem + 1 :]
        case SemUp(sem):
            if sems[sem]:
                raise EngineError(f"thread {tid} would block on up({sem})")
            sems = sems[:sem] + (True,) + sems[sem + 1 :]
        case _:
            raise TypeError(f"not a statement: {stmt!r}")
    index += 1
    status = DONE if index == len(statements) else index
    s0, s1 = i.counter
    if tid == 0:
        new = Snapshot(snap.names, values, output, sems, status, snap.status1)
        return PartialInterleaving(new, i.trace + "0", (s0 + 1, s1))
    new = Snapshot(snap.names, values, output, sems, snap.status0, status)
    return PartialInterleaving(new, i.trace + "1", (s0, s1 + 1))


def _would_block(pair: ProgramPair, snapshot: Snapshot, tid: int) -> bool:
    """Whether live thread ``tid``'s next statement is an ``up`` on a raised semaphore."""
    stmt = pair.thread(tid).statements[snapshot.status(tid)]
    return isinstance(stmt, SemUp) and snapshot.semaphores[stmt.index]


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

# How a pending step was scheduled: both threads could move, the other
# thread would block, or the other thread is done.
_BRANCH, _FORCED, _COMPLETION = range(3)


def explore(pair: ProgramPair, cfg: ExplorationConfig | None = None) -> ExplorationReport:
    """Enumerate interleavings depth-first and build a report.

    The branch order explores thread 0's next statement before thread
    1's, so the first completed interleaving runs thread 0 as far as
    possible.  With ``race_detection`` the state table is consulted at
    every executed statement; ``pruning`` additionally cuts subtrees
    rooted at snapshot-identical states.  Without ``race_detection``
    there is no table and the search is exhaustive.

    If the total statement budget runs out the search stops there and
    the report is returned with ``complete=False``.
    """
    cfg = cfg or ExplorationConfig()
    table = StateTable(cfg.digest_mode) if cfg.race_detection else None
    outcomes: dict[Snapshot, PartialInterleaving] = {}
    races: list[Race] = []
    deadlocks: list[PartialInterleaving] = []
    block_forever: list[PartialInterleaving] = []
    pending: list[tuple[PartialInterleaving, int, int]] = []
    executed = branch_statements = completion_statements = interleavings = pruned = 0
    complete = True
    i, kind = initial_interleaving(pair), _BRANCH  # the root is checked like a branch state
    while True:
        expand = True
        if table is not None:
            match table.visit(i):
                case PrunedEqual() if cfg.pruning:
                    # the stored visit already explored this subtree
                    pruned += 1
                    expand = False
                case Race() as race:
                    races.append(race)
                    # The stored visit already explored every schedule below
                    # this counter, so the subtree is cut (states reachable
                    # only from the divergent side go unexplored, inherent to
                    # table-based detection).  A completion step has no
                    # subtree to cut: its run goes on to the final outcome.
                    expand = kind == _COMPLETION
        if expand:
            # Record the finding that ends at i, or push the steps leaving
            # it; thread 1's step goes below thread 0's, so thread 0's
            # whole subtree is searched first.
            snap = i.snapshot
            done0 = snap.status0 == DONE
            done1 = snap.status1 == DONE
            if done0 and done1:
                interleavings += 1
                outcomes.setdefault(snap, i)
            elif done0 or done1:
                live = 1 if done0 else 0
                if _would_block(pair, snap, live):
                    block_forever.append(i)
                else:
                    pending.append((i, live, _COMPLETION))
            else:
                wb0 = _would_block(pair, snap, 0)
                wb1 = _would_block(pair, snap, 1)
                if wb0 and wb1:
                    deadlocks.append(i)
                elif wb0 or wb1:
                    pending.append((i, 1 if wb0 else 0, _FORCED))
                else:
                    pending.append((i, 1, _BRANCH))
                    pending.append((i, 0, _BRANCH))
        if not pending:
            break
        i, tid, kind = pending.pop()
        i = step(pair, i, tid)
        if kind == _BRANCH:
            branch_statements += 1
        elif kind == _COMPLETION:
            completion_statements += 1
        executed += 1
        if executed > cfg.max_total_steps:
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
        outcomes=tuple(outcomes.values()),
        races=tuple(races),
        deadlocks=tuple(deadlocks),
        block_forever=tuple(block_forever),
        stats=stats,
        complete=complete,
        digest_mode=cfg.digest_mode,
    )
