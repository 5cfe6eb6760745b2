"""The pruning-effectiveness benchmark, and the program renderer it is written with.

The benchmark workload pairs two threads each executing ``n`` independent
assignments to thread-disjoint variables (``a0_k = k`` against
``a1_k = k``).  All statements commute, every equal-counter state
coincides, and pruning collapses the search to one visit per lattice
point.  The two reported columns follow closed forms:

* exhaustive (statements executed while exactly one thread was live,
  pruning off): ``2 * C(2n, n-1)``
* pruned (statements executed from two-live-thread states, pruning on):
  ``2 * n**2``

:func:`render` writes a program back as canonical (unrolled) source that
parses to the same :class:`~paircheck.toylang.ProgramPair`; it is how a
benchmark program becomes a file.  ``check`` loads none of this module.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .engine import ExplorationConfig, explore
from .state import _escape
from .toylang import (
    Assign, BinOp, Emit, Expr, IntLit, ProgramPair, SemDown, SemUp, Statement, Var, parse,
)

__all__ = [
    "BenchRow",
    "BudgetExceeded",
    "bench_table",
    "disjoint_pair",
    "render",
]


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------


class BudgetExceeded(Exception):
    """A bench run hit its statement budget (raised by ``bench_table``, not ``explore``)."""


class BenchRow(NamedTuple):
    n: int  # statements per thread
    exhaustive_count: int
    pruned_count: int


def disjoint_pair(n: int):
    """The canonical benchmark program: n disjoint assignments per thread."""
    decls = []
    bodies = ["", ""]
    for tid in (0, 1):
        for k in range(n):
            decls.append(f"var a{tid}_{k};")
            bodies[tid] += f" a{tid}_{k} = {k};"
    source = "\n".join(decls) + f"\nthread0 {{{bodies[0]} }}\nthread1 {{{bodies[1]} }}\n"
    return parse(source, unroll_limit=max(n, 1))


def bench_table(
    n_min: int, n_max: int, *, max_total_steps: int = 10_000_000
) -> list[BenchRow]:
    """Run the benchmark workload for each n, exhaustively and with pruning.

    Raises :class:`BudgetExceeded`, before running anything, if an
    exhaustive run would not finish within ``max_total_steps``.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    exhaustive_cfg = ExplorationConfig(
        pruning=False, race_detection=False, max_total_steps=max_total_steps
    )
    pruned_cfg = ExplorationConfig(pruning=True, race_detection=True, max_total_steps=max_total_steps)

    def fits(n: int) -> bool:
        # The exhaustive run executes C(2n+2, n+1) - 2 statements, one per
        # nonempty prefix of an interleaving.  That grows with n and is at
        # least 2**(n+1) - 2, so it is over any budget of fewer than n bits.
        return n <= max_total_steps.bit_length() and comb(2 * n + 2, n + 1) - 2 <= max_total_steps

    if not fits(n_max):
        n = n_min
        while fits(n):
            n += 1
        raise BudgetExceeded(f"exhaustive run for n={n} exceeded the step budget")
    rows = []
    for n in range(n_min, n_max + 1):
        pair = disjoint_pair(n)
        full = explore(pair, exhaustive_cfg)
        pruned = explore(pair, pruned_cfg)  # a subset of the run above: within budget
        rows.append(
            BenchRow(
                n=n,
                exhaustive_count=full.stats.completion_statements,
                pruned_count=pruned.stats.branch_statements,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Canonical renderer (round-trip aid)
# ---------------------------------------------------------------------------


def _render_expr(expr: Expr) -> str:
    match expr:
        case IntLit(value):
            return str(value) if value >= 0 else f"(0 - {-value})"
        case Var(name):
            return name
        case BinOp(op, left, right):
            return f"({_render_expr(left)} {op} {_render_expr(right)})"
    raise TypeError(f"not an expression: {expr!r}")


def _render_stmt(stmt: Statement) -> str:
    match stmt:
        case Assign(target, expr):
            return f"{target} = {_render_expr(expr)};"
        case Emit(text):
            return f'emit "{_escape(text)}";'
        case SemUp(index):
            return f"up({index});"
        case SemDown(index):
            return f"down({index});"
    raise TypeError(f"not a statement: {stmt!r}")


def render(pair: ProgramPair) -> str:
    """Render a program back to canonical (unrolled) source text."""
    lines: list[str] = []
    for name, init in pair.variables:
        lines.append(f"var {name};" if init == 0 else f"var {name} = {init};")
    if pair.num_semaphores:
        lines.append(f"semaphores {pair.num_semaphores};")
    for label, thread in (("thread0", pair.thread0), ("thread1", pair.thread1)):
        lines.append(label + " {")
        for stmt in thread.statements:
            lines.append("  " + _render_stmt(stmt))
        lines.append("}")
    return "\n".join(lines) + "\n"
