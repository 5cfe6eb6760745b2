"""Program generators shared by the test suite.

``random_pair`` draws small two-thread programs (assignments, emits,
semaphore ups/downs) from a seeded RNG so the randomized corpora are
identical on every run.  ``widen`` adds variables that no statement
touches, so that the search holds a program's values in chunks.
"""

from __future__ import annotations

import random

from paircheck.toylang import (
    Assign,
    BinOp,
    Emit,
    IntLit,
    ProgramPair,
    SemDown,
    SemUp,
    ThreadProgram,
    Var,
)

_VARS = ("x", "y", "z")
_CHARS = "ab12"
_OPS = ("+", "-", "*")


def _random_expr(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return IntLit(rng.randrange(0, 4))
    if kind == 1:
        return Var(rng.choice(_VARS))
    left = Var(rng.choice(_VARS)) if rng.random() < 0.6 else IntLit(rng.randrange(0, 4))
    right = IntLit(rng.randrange(0, 4)) if rng.random() < 0.6 else Var(rng.choice(_VARS))
    return BinOp(rng.choice(_OPS), left, right)


def _random_statement(rng: random.Random, num_semaphores: int):
    kinds = ["assign", "assign", "emit"]
    if num_semaphores:
        kinds += ["up", "up", "down"]
    kind = rng.choice(kinds)
    if kind == "assign":
        return Assign(rng.choice(_VARS), _random_expr(rng))
    if kind == "emit":
        return Emit(rng.choice(_CHARS))
    sem = rng.randrange(num_semaphores)
    return SemUp(sem) if kind == "up" else SemDown(sem)


def random_pair(
    rng: random.Random, max_statements: int = 4, max_semaphores: int = 2
) -> ProgramPair:
    num_semaphores = rng.choice(range(max_semaphores + 1))
    threads = []
    for _ in range(2):
        count = rng.randrange(max_statements + 1)
        threads.append(
            ThreadProgram(
                tuple(_random_statement(rng, num_semaphores) for _ in range(count))
            )
        )
    return ProgramPair(
        thread0=threads[0],
        thread1=threads[1],
        num_semaphores=num_semaphores,
        variables=tuple((name, 0) for name in _VARS),
    )


def fixed_corpus(size: int = 200, seed: int = 20240817) -> list[ProgramPair]:
    """The frozen randomized corpus used by the acceptance suite."""
    rng = random.Random(seed)
    return [random_pair(rng) for _ in range(size)]


# Untouched variables to add before x, between x and y, and between y and z.
# With 16 values to a chunk, the programs have 17, 18 and 33 variables, and
# x, y and z fall in chunks (0, 0, 1), (0, 1, 1) and (0, 1, 2).
PADDINGS = ((7, 7, 0), (8, 7, 0), (10, 12, 8))


def widen(pair: ProgramPair, padding: tuple[int, int, int]) -> ProgramPair:
    """``pair`` with padding variables whose names sort before and between x, y and z.

    Each padding variable starts at its own non-zero value, so a read or a
    write of the wrong slot changes what the program computes or ends with.
    """
    pads = [f"{prefix}{k:02d}" for prefix, count in zip("pxy", padding) for k in range(count)]
    variables = pair.variables + tuple((name, 100 + k) for k, name in enumerate(pads))
    return ProgramPair(pair.thread0, pair.thread1, pair.num_semaphores, variables)


def wide_corpus(size: int = 60) -> list[tuple[ProgramPair, ProgramPair]]:
    """``(narrow, wide)`` for the first ``size`` programs of the fixed corpus, in each padding."""
    return [(pair, widen(pair, padding)) for pair in fixed_corpus(size) for padding in PADDINGS]
