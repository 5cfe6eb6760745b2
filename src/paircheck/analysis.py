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

from collections.abc import Iterable, Iterator
from math import comb
from typing import NamedTuple

try:  # the C escaper of json.dumps, without loading the json package
    from _json import encode_basestring_ascii as _esc
except ImportError:
    from json.encoder import encode_basestring_ascii as _esc

from .engine import BudgetExceeded, ExplorationConfig, ExplorationReport, explore
from .state import DIGEST_ALGORITHM, PartialInterleaving, Race, Snapshot
from .toylang import parse

__all__ = [
    "BenchRow",
    "bench_table",
    "disjoint_pair",
    "iter_report",
    "render_report",
]


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------


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
# Report rendering
# ---------------------------------------------------------------------------
#
# Both formats are written one record (outcome, race or finding) per chunk,
# so no report is ever held whole.  The JSON writer spells out the
# ``json.dumps(..., indent=2)`` layout of the fixed schema and escapes every
# string with the C escaper ``json.dumps`` uses under its default
# ``ensure_ascii=True``, so it writes the same bytes, all of them ASCII.


def _json_object(pad: str, members: list[str]) -> str:
    """An object whose closing brace sits at indent ``pad``; ``{}`` if empty."""
    if not members:
        return "{}"
    inner = pad + "  "
    return "{\n" + inner + f",\n{inner}".join(members) + f"\n{pad}}}"


def _json_counter(pad: str, counter: tuple[int, int]) -> str:
    inner = pad + "  "
    return f"[\n{inner}{counter[0]},\n{inner}{counter[1]}\n{pad}]"


def _json_snapshot_members(pad: str, snapshot: Snapshot) -> list[str]:
    """The ``variables``, ``output`` and ``semaphores`` members, at indent ``pad``."""
    pairs = zip(snapshot.names, snapshot.values)
    variables = _json_object(pad, [f"{_esc(name)}: {value}" for name, value in pairs])
    semaphores = "".join("U" if up else "D" for up in snapshot.semaphores)
    return [
        f'"variables": {variables}',
        f'"output": {_esc(snapshot.output)}',
        f'"semaphores": {_esc(semaphores)}',
    ]


def _json_snapshot(pad: str, snapshot: Snapshot) -> str:
    return _json_object(pad, _json_snapshot_members(pad + "  ", snapshot))


# Records are items of a top-level array: braces at indent 4, members at 6.


def _json_outcome(outcome: PartialInterleaving) -> str:
    members = [f'"trace": {_esc(outcome.trace)}']
    members += _json_snapshot_members("      ", outcome.snapshot)
    return "    " + _json_object("    ", members)


def _json_race(race: Race) -> str:
    stored = [f'"trace": {_esc(race.stored_trace)}']
    if race.stored_snapshot is not None:
        stored.append(f'"snapshot": {_json_snapshot("        ", race.stored_snapshot)}')
    if race.stored_digest is not None:
        stored.append(f'"digest": {_esc(race.stored_digest.hex())}')
    current = [
        f'"trace": {_esc(race.current_trace)}',
        f'"snapshot": {_json_snapshot("        ", race.current_snapshot)}',
    ]
    members = [
        f'"counter": {_json_counter("      ", race.counter)}',
        f'"stored": {_json_object("      ", stored)}',
        f'"current": {_json_object("      ", current)}',
    ]
    return "    " + _json_object("    ", members)


def _json_finding(finding: PartialInterleaving) -> str:
    members = [
        f'"counter": {_json_counter("      ", finding.counter)}',
        f'"trace": {_esc(finding.trace)}',
    ]
    return "    " + _json_object("    ", members)


def _json_array(key: str, records: Iterable[str]) -> Iterator[str]:
    """A top-level array member, one chunk per record, ending in ``,\\n``."""
    opened = False
    for record in records:
        yield (",\n" if opened else f'  "{key}": [\n') + record
        opened = True
    yield "\n  ],\n" if opened else f'  "{key}": [],\n'


def _json_chunks(report: ExplorationReport) -> Iterator[str]:
    algorithm = _esc(DIGEST_ALGORITHM) if report.digest_mode else "null"
    yield (
        "{\n"
        f'  "complete": {"true" if report.complete else "false"},\n'
        f'  "race_found": {"true" if report.race_found else "false"},\n'
        f'  "digest_algorithm": {algorithm},\n'
    )
    yield from _json_array("outcomes", map(_json_outcome, report.outcomes))
    yield from _json_array("races", map(_json_race, report.races))
    yield from _json_array("deadlocks", map(_json_finding, report.deadlocks))
    yield from _json_array("block_forever", map(_json_finding, report.block_forever))
    stats = [f'"{name}": {value}' for name, value in zip(report.stats._fields, report.stats)]
    yield f'  "stats": {_json_object("  ", stats)}\n}}\n'


def _text_chunks(report: ExplorationReport) -> Iterator[str]:
    head = ""
    if report.digest_mode:
        head += f"state table digests: {DIGEST_ALGORITHM}\n"
    if not report.complete:
        head += "WARNING: step budget exhausted; report is incomplete\n"
    yield head + f"outcomes: {len(report.outcomes)}\n"
    for k, outcome in enumerate(report.outcomes, 1):
        yield (
            f"  [{k}] trace={outcome.trace or '(empty)'}\n"
            f"      {outcome.snapshot.canonical()}\n"
        )

    yield f"races: {len(report.races)}\n"
    for k, race in enumerate(report.races, 1):
        if race.stored_snapshot is not None:
            stored = (
                f"      stored : trace={race.stored_trace or '(empty)'}\n"
                f"               {race.stored_snapshot.canonical()}\n"
            )
        else:
            assert race.stored_digest is not None
            stored = (
                f"      stored : trace={race.stored_trace or '(empty)'} "
                f"digest={race.stored_digest.hex()} (digest only)\n"
            )
        yield (
            f"  [{k}] at counter {race.counter}\n"
            + stored
            + f"      current: trace={race.current_trace or '(empty)'}\n"
            f"               {race.current_snapshot.canonical()}\n"
        )
    if report.races:
        yield (
            "  note: schedules beyond a recorded race are not explored; "
            "rerun with race detection off for the full outcome set\n"
        )

    sections = (("deadlocks", report.deadlocks), ("block-forever", report.block_forever))
    for title, findings in sections:
        yield f"{title}: {len(findings)}\n"
        for k, finding in enumerate(findings, 1):
            trace = finding.trace or "(empty)"
            yield f"  [{k}] at counter {finding.counter} trace={trace}\n"

    stats = report.stats
    yield (
        "stats: "
        f"branch={stats.branch_statements} "
        f"completion={stats.completion_statements} "
        f"interleavings={stats.complete_interleavings} "
        f"pruned={stats.pruned_subtrees} "
        f"races={stats.races_found} "
        f"table={stats.table_entries}\n"
        f"verdict: {'race' if report.race_found else 'no race detected'}\n"
    )


def iter_report(report: ExplorationReport, format: str = "text") -> Iterator[str]:
    """Yield a rendering of a report, one record at a time.

    ``text`` is for terminals and ``json`` for machines; the JSON chunks
    are ASCII.  An unknown format raises ``ValueError`` here, before any
    chunk is made.
    """
    if format == "json":
        return _json_chunks(report)
    if format == "text":
        return _text_chunks(report)
    raise ValueError(f"unknown format {format!r}")


def render_report(report: ExplorationReport, format: str = "text") -> str:
    """Render a report for terminals (``text``) or machines (``json``)."""
    return "".join(iter_report(report, format))

