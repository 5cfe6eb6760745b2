"""
Semaphores, deadlock, and blocking forever
==========================================

The semaphore primitives are deliberately asymmetric: ``down(i)`` lowers
a raised semaphore and otherwise does nothing, while ``up(i)`` raises a
lowered semaphore and blocks while it is already raised.  A thread that
blocks with no one left to lower the semaphore is stuck; if both threads
stand before blocking ``up`` calls at once, the whole program is
deadlocked.
"""

from paircheck import EngineError, ExplorationConfig, explore, parse, replay, step

EXHAUSTIVE = ExplorationConfig(pruning=False, race_detection=False)

# Each thread raises its own semaphore twice.  The second up can only
# proceed after a down that never comes.
deadlock = parse("""
semaphores 2;
thread0 { up(0); up(0); }
thread1 { up(1); up(1); }
""")
report = explore(deadlock, EXHAUSTIVE)
print("=== double-up deadlock ===")
for finding in report.deadlocks:
    print(f"deadlock after trace {finding.trace!r} at counter {tuple(finding.counter)}")

# The witness trace replays to the stuck state: from there, each thread's
# next statement is an up on a raised semaphore, so step refuses both.
witness = report.deadlocks[0]
stuck = replay(deadlock, witness.trace)
for tid in (0, 1):
    try:
        step(deadlock, stuck, tid)
    except EngineError as exc:
        print(f"thread {tid} cannot step: {exc}")

# One thread finishing while the other waits is an error too: the waiter
# will block forever.
print()
print("=== blocking forever ===")
stuck_forever = parse("""
semaphores 1;
thread0 { up(0); up(0); }
thread1 { emit "z"; }
""")
report = explore(stuck_forever, EXHAUSTIVE)
for finding in report.block_forever:
    print(f"blocks forever after trace {finding.trace!r} at counter {tuple(finding.counter)}")

# And because down() on a lowered semaphore is a no-op, order can leak
# into the semaphore bank itself:
print()
print("=== up/down ordering leaves different bank states ===")
updown = parse("semaphores 1; thread0 { up(0); } thread1 { down(0); }")
report = explore(updown, EXHAUSTIVE)
for outcome in report.outcomes:
    bank = "".join("U" if up else "D" for up in outcome.snapshot.semaphores)
    print(f"  trace {outcome.trace}: semaphore bank {bank}")
print("race verdict:", report.race_found)
