"""Report writer: an :class:`~paircheck.engine.ExplorationReport` as text or JSON.

Both formats are made one record (outcome, race or finding) per chunk;
``check`` writes whole chunks in 64 KiB blocks, never the whole report.  The
JSON writer spells out the ``json.dumps(..., indent=2)`` layout of the fixed
schema and escapes every string with the C escaper ``json.dumps`` uses under
its default ``ensure_ascii=True``, so it writes the same bytes, all of them
ASCII.  Each outcome and race record is one ``%``-format over a fixed
template, whose snapshot members come from ``state.snapshot_formatter``; the
text report's snapshot lines do too.  A formatter is built once per report for
each program whose snapshots the report holds.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING

from .state import DIGEST_ALGORITHM, PartialInterleaving, Race, Snapshot, _esc, snapshot_formatter

if TYPE_CHECKING:  # the engine is loaded by whoever built the report
    from .engine import ExplorationReport

__all__ = ["iter_report", "render_report"]


def _formatter(pad: str | None = None) -> Callable[[Snapshot], str]:
    """Format each snapshot with its names' ``snapshot_formatter``, built on first use."""
    built: dict[tuple[str, ...], Callable[[Snapshot], str]] = {}

    def format(snapshot: Snapshot) -> str:
        names = snapshot.names
        formatter = built.get(names)
        if formatter is None:  # a hand-built report may mix programs
            formatter = built[names] = snapshot_formatter(names, pad)
        return formatter(snapshot)

    return format


def _json_object(pad: str, members: list[str]) -> str:
    """A non-empty object whose closing brace sits at indent ``pad``."""
    inner = pad + "  "
    return "{\n" + inner + f",\n{inner}".join(members) + f"\n{pad}}}"


def _json_counter(pad: str, counter: tuple[int, int]) -> str:
    inner = pad + "  "
    return f"[\n{inner}{counter[0]},\n{inner}{counter[1]}\n{pad}]"


# Records are items of a top-level array: braces at indent 4, members at 6.
# An outcome's snapshot members sit at indent 6, a race's at 10.


def _json_record(*members: str) -> str:
    return "    " + _json_object("    ", list(members))


_OUTCOME = _json_record('"trace": %s', "%s")
_COUNTER = f'"counter": {_json_counter(" " * 6, ("%s", "%s"))}'
_SNAPSHOT = '"snapshot": ' + _json_object(" " * 8, ["%s"])
_CURRENT = '"current": ' + _json_object(" " * 6, ['"trace": %s', _SNAPSHOT])
_DIGEST_RACE, _FULL_RACE = (
    _json_record(_COUNTER, '"stored": ' + _json_object(" " * 6, ['"trace": %s', stored]), _CURRENT)
    for stored in ('"digest": "%s"', _SNAPSHOT)
)
_FINDING = _json_record(_COUNTER, '"trace": %s')


def _json_outcomes(outcomes: Iterable[PartialInterleaving]) -> Iterator[str]:
    members = _formatter(" " * 6)
    for snapshot, trace, _ in outcomes:
        yield _OUTCOME % (_esc(trace), members(snapshot))


def _json_races(races: Iterable[Race]) -> Iterator[str]:
    members = _formatter(" " * 10)
    for counter, stored_trace, stored, digest, trace, current in races:
        current_side = (_esc(trace), members(current))
        if stored is None:  # digest mode: the stored side is a trace and a digest
            yield _DIGEST_RACE % (*counter, _esc(stored_trace), digest.hex(), *current_side)
        else:
            yield _FULL_RACE % (*counter, _esc(stored_trace), members(stored), *current_side)


def _json_findings(findings: Iterable[PartialInterleaving]) -> Iterator[str]:
    for _, trace, counter in findings:
        yield _FINDING % (*counter, _esc(trace))


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
    yield from _json_array("outcomes", _json_outcomes(report.outcomes))
    yield from _json_array("races", _json_races(report.races))
    yield from _json_array("deadlocks", _json_findings(report.deadlocks))
    yield from _json_array("block_forever", _json_findings(report.block_forever))
    stats = [f'"{name}": {value}' for name, value in zip(report.stats._fields, report.stats)]
    yield f'  "stats": {_json_object("  ", stats)}\n}}\n'


def _text_chunks(report: ExplorationReport) -> Iterator[str]:
    head = ""
    if report.digest_mode:
        head += f"state table digests: {DIGEST_ALGORITHM}\n"
    if not report.complete:
        head += "WARNING: step budget exhausted; report is incomplete\n"
    yield head + f"outcomes: {len(report.outcomes)}\n"
    canonical = _formatter()
    for k, outcome in enumerate(report.outcomes, 1):
        yield (
            f"  [{k}] trace={outcome.trace or '(empty)'}\n"
            f"      {canonical(outcome.snapshot)}\n"
        )

    yield f"races: {len(report.races)}\n"
    for k, race in enumerate(report.races, 1):
        if race.stored_snapshot is not None:
            stored = (
                f"      stored : trace={race.stored_trace or '(empty)'}\n"
                f"               {canonical(race.stored_snapshot)}\n"
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
            f"               {canonical(race.current_snapshot)}\n"
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

