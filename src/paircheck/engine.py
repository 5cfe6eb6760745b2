"""Depth-first exploration of all interleavings of a two-thread program.

The search is one loop over an explicit stack of pending steps, each a
``(state, thread, kind)`` triple; a thread is stepped only when its
entry is popped.  Where both threads could execute a statement the step
is a *branch* and thread 0's step is searched first; where the other
thread would block it is *forced*; once one thread has finished, the
other runs to completion one *completion* step at a time.  The kind
decides which statistic counts the step (``branch_statements``, none, or
``completion_statements``).

With race detection on, every state reached by an executed statement is
checked against the state table.  An equal stored snapshot lets pruning
cut the subtree (it was already explored from an identical state).  A
differing one is reported as a race and ends the search below that
state, except after a completion step: a race found there does not end
the run, which goes on to record its final outcome.

Semaphores follow deliberately nonstandard semantics: ``down(i)`` lowers
a raised semaphore and otherwise does nothing; ``up(i)`` raises a lowered
semaphore and *blocks* while it is already raised.  A thread whose next
statement would block is simply not schedulable, so every explored state
is reproducible by replaying its trace: there are no hidden scheduling
events.  If both live threads stand before blocking ``up`` calls, that
state is a deadlock; if the sole remaining live thread does, it would
block forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .state import (
    DONE,
    BlockedOnSem,
    CombinedCounter,
    Done,
    PartialInterleaving,
    PrunedEqual,
    Race,
    Runnable,
    Snapshot,
    StateTable,
)
from .toylang import Assign, Emit, ProgramPair, SemDown, SemUp

__all__ = [
    "Advanced",
    "BudgetExceeded",
    "CompletedThread",
    "Deadlock",
    "EngineError",
    "ExplorationConfig",
    "ExplorationReport",
    "ExplorationStats",
    "Finding",
    "NowBlocked",
    "Outcome",
    "RaceRecord",
    "ReplayError",
    "StepEffect",
    "explore",
    "initial_interleaving",
    "replay",
    "step",
    "unblock_check",
]


class EngineError(Exception):
    """Misuse of the stepping API (e.g. stepping a finished thread)."""


class ReplayError(EngineError):
    """A trace references a thread that cannot execute at that point."""

    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


class BudgetExceeded(Exception):
    """The exploration hit its total statement budget."""


# ---------------------------------------------------------------------------
# Step effects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Advanced:
    pass


@dataclass(frozen=True)
class NowBlocked:
    sem: int


@dataclass(frozen=True)
class Deadlock:
    pass


@dataclass(frozen=True)
class CompletedThread:
    pass


StepEffect = Advanced | NowBlocked | Deadlock | CompletedThread

_ADVANCED = Advanced()
_DEADLOCK = Deadlock()
_COMPLETED = CompletedThread()


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
            raise ValueError("digest_mode requires race_detection (the table must exist)")
        if self.max_total_steps < 0:
            raise ValueError("max_total_steps must be non-negative")


@dataclass
class ExplorationStats:
    branch_statements: int = 0  # executed where both threads were live and unblocked
    completion_statements: int = 0  # executed while exactly one thread was live
    complete_interleavings: int = 0
    pruned_subtrees: int = 0
    races_found: int = 0
    table_entries: int = 0


@dataclass(frozen=True)
class Finding:
    """A deadlock or block-forever point: counter plus witness trace."""

    counter: CombinedCounter
    trace: str


@dataclass(frozen=True)
class Outcome:
    """A distinct final snapshot with its first witness trace in DFS order."""

    snapshot: Snapshot
    trace: str


@dataclass(frozen=True)
class RaceRecord:
    counter: CombinedCounter
    stored_trace: str
    stored_snapshot: Snapshot | None  # None in digest mode
    stored_digest: bytes | None  # None in full mode
    current_trace: str
    current_snapshot: Snapshot


@dataclass(frozen=True)
class ExplorationReport:
    outcomes: tuple[Outcome, ...]
    races: tuple[RaceRecord, ...]
    deadlocks: tuple[Finding, ...]
    block_forever: tuple[Finding, ...]
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
        status0=Runnable(0) if pair.thread0.statements else DONE,
        status1=Runnable(0) if pair.thread1.statements else DONE,
    )
    return PartialInterleaving(snapshot, "", CombinedCounter(1, 1))


def _advance(
    pair: ProgramPair,
    i: PartialInterleaving,
    tid: int,
    index: int,
    values: tuple[int, ...],
    output: str,
    semaphores: tuple[bool, ...],
) -> tuple[StepEffect, PartialInterleaving]:
    """The successor of ``i`` once thread ``tid`` has executed statement ``index``."""
    done = index + 1 >= len(pair.thread(tid).statements)
    status = DONE if done else Runnable(index + 1)
    snap, (s0, s1) = i.snapshot, i.counter
    if tid == 0:
        new = Snapshot(snap.names, values, output, semaphores, status, snap.status1)
        nxt = PartialInterleaving(new, i.trace + "0", CombinedCounter(s0 + 1, s1))
    else:
        new = Snapshot(snap.names, values, output, semaphores, snap.status0, status)
        nxt = PartialInterleaving(new, i.trace + "1", CombinedCounter(s0, s1 + 1))
    return (_COMPLETED if done else _ADVANCED, nxt)


def step(
    pair: ProgramPair, i: PartialInterleaving, tid: int
) -> tuple[StepEffect, PartialInterleaving]:
    """Let thread ``tid`` attempt its next statement.

    Assignments, emits, and ``down`` always execute and advance the
    thread's counter.  An ``up`` on a raised semaphore does not execute:
    the thread blocks (no counter advance), or the result is ``Deadlock``
    if the other thread is already blocked.  Executing a thread's last
    statement yields ``CompletedThread``.

    Stepping a thread that is not runnable raises :class:`EngineError`.
    """
    snap = i.snapshot
    status = snap.status(tid)
    if not isinstance(status, Runnable):
        raise EngineError(f"thread {tid} is not runnable: {status!r}")
    index = status.next_index
    stmt = pair.thread(tid).statements[index]
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
                if isinstance(snap.status(1 - tid), BlockedOnSem):
                    return (_DEADLOCK, i)
                blocked = snap.with_status(tid, BlockedOnSem(sem))
                return (NowBlocked(sem), PartialInterleaving(blocked, i.trace, i.counter))
            sems = sems[:sem] + (True,) + sems[sem + 1 :]
        case _:
            raise TypeError(f"not a statement: {stmt!r}")
    return _advance(pair, i, tid, index, values, output, sems)


def unblock_check(pair: ProgramPair, i: PartialInterleaving) -> PartialInterleaving:
    """Complete any pending ``up`` whose semaphore has been lowered.

    The unblocked thread's statement executes within the same scheduling
    step: its counter advances and its trace symbol is appended.
    """
    for tid in (0, 1):
        snap = i.snapshot
        status = snap.status(tid)
        if isinstance(status, BlockedOnSem) and not snap.semaphores[status.sem]:
            sem = status.sem
            sems = snap.semaphores[:sem] + (True,) + snap.semaphores[sem + 1 :]
            # the pending statement's index equals the statements executed so far
            index = i.counter[tid] - 1
            _, i = _advance(pair, i, tid, index, snap.values, snap.output, sems)
    return i


def _would_block(pair: ProgramPair, snapshot: Snapshot, tid: int) -> bool:
    status = snapshot.status(tid)
    if not isinstance(status, Runnable):
        return False
    stmt = pair.thread(tid).statements[status.next_index]
    return isinstance(stmt, SemUp) and snapshot.semaphores[stmt.index]


def replay(pair: ProgramPair, trace: str) -> PartialInterleaving:
    """Re-execute a trace from the initial state.

    Raises :class:`ReplayError` with the failing position when a symbol
    names a thread that is finished, blocked, or would block.
    """
    i = initial_interleaving(pair)
    for position, symbol in enumerate(trace):
        if symbol not in ("0", "1"):
            raise ReplayError(f"bad trace symbol {symbol!r}", position)
        tid = int(symbol)
        if not isinstance(i.snapshot.status(tid), Runnable):
            raise ReplayError(f"thread {tid} cannot execute", position)
        effect, i = step(pair, i, tid)
        if isinstance(effect, (NowBlocked, Deadlock)):
            raise ReplayError(f"thread {tid} blocks here", position)
    return i


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

# How a pending step was scheduled: both threads could move, the other
# thread would block, or the other thread is done.
_BRANCH, _FORCED, _COMPLETION = range(3)


@dataclass
class _Search:
    pair: ProgramPair
    cfg: ExplorationConfig
    table: StateTable | None
    stats: ExplorationStats = field(default_factory=ExplorationStats)
    outcomes: dict[Snapshot, str] = field(default_factory=dict)
    races: list[RaceRecord] = field(default_factory=list)
    deadlocks: list[Finding] = field(default_factory=list)
    block_forever: list[Finding] = field(default_factory=list)

    def run(self, root: PartialInterleaving) -> None:
        """Search depth-first from ``root``; raises BudgetExceeded at the budget."""
        pair, table, stats, cfg = self.pair, self.table, self.stats, self.cfg
        pending: list[tuple[PartialInterleaving, int, int]] = []
        executed = 0
        i, kind = root, _BRANCH  # the root is checked like a branch state
        while True:
            expand = True
            if table is not None:
                match self.table.visit(i):
                    case PrunedEqual() if cfg.pruning:
                        # the stored visit already explored this subtree
                        stats.pruned_subtrees += 1
                        expand = False
                    case Race(key, trace, current):
                        stats.races_found += 1
                        self.races.append(
                            RaceRecord(
                                counter=current.counter,
                                stored_trace=trace,
                                stored_snapshot=None if cfg.digest_mode else key,
                                stored_digest=key if cfg.digest_mode else None,
                                current_trace=current.trace,
                                current_snapshot=current.snapshot,
                            )
                        )
                        # The stored visit already explored every schedule below
                        # this counter, so the subtree is cut (states reachable
                        # only from the divergent side go unexplored, inherent to
                        # table-based detection).  A completion step has no
                        # subtree to cut: its run goes on to the final outcome.
                        expand = kind == _COMPLETION
            if expand:
                self.expand(i, pending)
            if not pending:
                return
            i, tid, kind = pending.pop()
            _, i = step(pair, i, tid)
            if kind == _BRANCH:
                stats.branch_statements += 1
            elif kind == _COMPLETION:
                stats.completion_statements += 1
            executed += 1
            if executed > cfg.max_total_steps:
                raise BudgetExceeded

    def expand(
        self, i: PartialInterleaving, pending: list[tuple[PartialInterleaving, int, int]]
    ) -> None:
        """Record the finding that ends at ``i``, or push the steps leaving it.

        Thread 1's step is pushed below thread 0's, so thread 0's whole
        subtree is searched first.
        """
        snap = i.snapshot
        done0 = isinstance(snap.status0, Done)
        done1 = isinstance(snap.status1, Done)
        if done0 and done1:
            self.stats.complete_interleavings += 1
            self.outcomes.setdefault(snap, i.trace)
        elif done0 or done1:
            live = 1 if done0 else 0
            if _would_block(self.pair, snap, live):
                self.block_forever.append(Finding(i.counter, i.trace))
            else:
                pending.append((i, live, _COMPLETION))
        else:
            wb0 = _would_block(self.pair, snap, 0)
            wb1 = _would_block(self.pair, snap, 1)
            if wb0 and wb1:
                self.deadlocks.append(Finding(i.counter, i.trace))
            elif wb0 or wb1:
                pending.append((i, 1 if wb0 else 0, _FORCED))
            else:
                pending.append((i, 1, _BRANCH))
                pending.append((i, 0, _BRANCH))


def explore(pair: ProgramPair, cfg: ExplorationConfig | None = None) -> ExplorationReport:
    """Enumerate interleavings depth-first and build a report.

    The branch order explores thread 0's next statement before thread
    1's, so the first completed interleaving runs thread 0 as far as
    possible.  With ``race_detection`` the state table is consulted at
    every executed statement; ``pruning`` additionally cuts subtrees
    rooted at snapshot-identical states.  Without ``race_detection``
    there is no table and the search is exhaustive.

    If the total statement budget runs out the report is returned with
    ``complete=False``.
    """
    cfg = cfg or ExplorationConfig()
    table = StateTable(cfg.digest_mode) if cfg.race_detection else None
    search = _Search(pair, cfg, table)
    complete = True
    try:
        search.run(initial_interleaving(pair))
    except BudgetExceeded:
        complete = False

    if table is not None:
        search.stats.table_entries = len(table)
    return ExplorationReport(
        outcomes=tuple(Outcome(s, t) for s, t in search.outcomes.items()),
        races=tuple(search.races),
        deadlocks=tuple(search.deadlocks),
        block_forever=tuple(search.block_forever),
        stats=search.stats,
        complete=complete,
        digest_mode=cfg.digest_mode,
    )
