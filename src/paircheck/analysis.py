"""Report rendering and the pruning-effectiveness benchmark.

The benchmark workload pairs two threads each executing ``n`` independent
assignments to thread-disjoint variables (``a0_k = k`` against
``a1_k = k``).  All statements commute, every equal-counter state
coincides, and pruning collapses the search to one visit per lattice
point.  The two reported columns follow closed forms:

* exhaustive (statements executed while exactly one thread was live,
  pruning off): ``2 * C(2n, n-1)``
* pruned (statements executed from two-live-thread states, pruning on):
  ``2 * n**2``
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .engine import (
    BudgetExceeded,
    ExplorationConfig,
    ExplorationReport,
    RaceRecord,
    explore,
)
from .state import DIGEST_ALGORITHM, Snapshot
from .toylang import parse

__all__ = ["BenchRow", "bench_table", "disjoint_pair", "render_report", "report_to_dict"]


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
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

    Raises :class:`BudgetExceeded` if an exhaustive run does not finish
    within ``max_total_steps``.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    rows = []
    for n in range(n_min, n_max + 1):
        pair = disjoint_pair(n)
        exhaustive_cfg = ExplorationConfig(
            pruning=False, race_detection=False, max_total_steps=max_total_steps
        )
        pruned_cfg = ExplorationConfig(
            pruning=True, race_detection=True, max_total_steps=max_total_steps
        )
        full = explore(pair, exhaustive_cfg)
        if not full.complete:
            raise BudgetExceeded(f"exhaustive run for n={n} exceeded the step budget")
        pruned = explore(pair, pruned_cfg)
        if not pruned.complete:
            raise BudgetExceeded(f"pruned run for n={n} exceeded the step budget")
        rows.append(
            BenchRow(
                n=n,
                exhaustive_count=full.stats.completion_statements,
                pruned_count=pruned.stats.branch_statements,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _snapshot_dict(snapshot: Snapshot) -> dict:
    return {
        "variables": dict(zip(snapshot.names, snapshot.values)),
        "output": snapshot.output,
        "semaphores": "".join("U" if up else "D" for up in snapshot.semaphores),
    }


def _race_dict(race: RaceRecord) -> dict:
    stored: dict = {"trace": race.stored_trace}
    if race.stored_snapshot is not None:
        stored["snapshot"] = _snapshot_dict(race.stored_snapshot)
    if race.stored_digest is not None:
        stored["digest"] = race.stored_digest.hex()
    return {
        "counter": list(race.counter),
        "stored": stored,
        "current": {
            "trace": race.current_trace,
            "snapshot": _snapshot_dict(race.current_snapshot),
        },
    }


def report_to_dict(report: ExplorationReport) -> dict:
    """Stable machine-readable mirror of a report (the JSON schema)."""
    return {
        "complete": report.complete,
        "race_found": report.race_found,
        "digest_algorithm": DIGEST_ALGORITHM if report.digest_mode else None,
        "outcomes": [
            {"trace": o.trace, **_snapshot_dict(o.snapshot)} for o in report.outcomes
        ],
        "races": [_race_dict(r) for r in report.races],
        "deadlocks": [
            {"counter": list(f.counter), "trace": f.trace} for f in report.deadlocks
        ],
        "block_forever": [
            {"counter": list(f.counter), "trace": f.trace} for f in report.block_forever
        ],
        "stats": {
            "branch_statements": report.stats.branch_statements,
            "completion_statements": report.stats.completion_statements,
            "complete_interleavings": report.stats.complete_interleavings,
            "pruned_subtrees": report.stats.pruned_subtrees,
            "races_found": report.stats.races_found,
            "table_entries": report.stats.table_entries,
        },
    }


def render_report(report: ExplorationReport, format: str = "text") -> str:
    """Render a report for terminals (``text``) or machines (``json``)."""
    if format == "json":
        return json.dumps(report_to_dict(report), indent=2) + "\n"
    if format != "text":
        raise ValueError(f"unknown format {format!r}")

    lines: list[str] = []
    if report.digest_mode:
        lines.append(f"state table digests: {DIGEST_ALGORITHM}")
    if not report.complete:
        lines.append("WARNING: step budget exhausted; report is incomplete")

    lines.append(f"outcomes: {len(report.outcomes)}")
    for k, outcome in enumerate(report.outcomes, 1):
        lines.append(f"  [{k}] trace={outcome.trace or '(empty)'}")
        lines.append(f"      {outcome.snapshot.canonical()}")

    lines.append(f"races: {len(report.races)}")
    for k, race in enumerate(report.races, 1):
        lines.append(f"  [{k}] at counter {tuple(race.counter)}")
        if race.stored_snapshot is not None:
            lines.append(f"      stored : trace={race.stored_trace or '(empty)'}")
            lines.append(f"               {race.stored_snapshot.canonical()}")
        else:
            assert race.stored_digest is not None
            lines.append(
                f"      stored : trace={race.stored_trace or '(empty)'} "
                f"digest={race.stored_digest.hex()} (digest only)"
            )
        lines.append(f"      current: trace={race.current_trace or '(empty)'}")
        lines.append(f"               {race.current_snapshot.canonical()}")
    if report.races:
        lines.append(
            "  note: schedules beyond a recorded race are not explored; "
            "rerun with race detection off for the full outcome set"
        )

    lines.append(f"deadlocks: {len(report.deadlocks)}")
    for k, finding in enumerate(report.deadlocks, 1):
        lines.append(
            f"  [{k}] at counter {tuple(finding.counter)} trace={finding.trace or '(empty)'}"
        )

    lines.append(f"block-forever: {len(report.block_forever)}")
    for k, finding in enumerate(report.block_forever, 1):
        lines.append(
            f"  [{k}] at counter {tuple(finding.counter)} trace={finding.trace or '(empty)'}"
        )

    stats = report.stats
    lines.append(
        "stats: "
        f"branch={stats.branch_statements} "
        f"completion={stats.completion_statements} "
        f"interleavings={stats.complete_interleavings} "
        f"pruned={stats.pruned_subtrees} "
        f"races={stats.races_found} "
        f"table={stats.table_entries}"
    )
    lines.append(f"verdict: {'race' if report.race_found else 'no race detected'}")
    return "\n".join(lines) + "\n"
