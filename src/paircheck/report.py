"""Report writer: an :class:`~paircheck.engine.ExplorationReport` as text or JSON.

Both formats are written one record (outcome, race or finding) per chunk,
so no report is ever held whole.  The JSON writer spells out the
``json.dumps(..., indent=2)`` layout of the fixed schema and escapes every
string with the C escaper ``json.dumps`` uses under its default
``ensure_ascii=True``, so it writes the same bytes, all of them ASCII.
Each outcome and race record is one ``%``-format over a template built from
its variable names, once per report and again when a record's names differ.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

try:  # the C escaper of json.dumps, without loading the json package
    from _json import encode_basestring_ascii as _esc
except ImportError:
    from json.encoder import encode_basestring_ascii as _esc

from .state import _UD, DIGEST_ALGORITHM, PartialInterleaving, Race

if TYPE_CHECKING:  # the engine is loaded by whoever built the report
    from .engine import ExplorationReport

__all__ = ["iter_report", "render_report"]


def _json_object(pad: str, members: list[str]) -> str:
    """An object whose closing brace sits at indent ``pad``; ``{}`` if empty."""
    if not members:
        return "{}"
    inner = pad + "  "
    return "{\n" + inner + f",\n{inner}".join(members) + f"\n{pad}}}"


def _json_counter(pad: str, counter: tuple[int, int]) -> str:
    inner = pad + "  "
    return f"[\n{inner}{counter[0]},\n{inner}{counter[1]}\n{pad}]"


def _json_snapshot_members(pad: str, names: tuple[str, ...]) -> list[str]:
    """Snapshot members at ``pad``: ``%s`` per value, the escaped output and U/D bank."""
    variables = [_esc(name).replace("%", "%%") + ": %s" for name in names]
    return [f'"variables": {_json_object(pad, variables)}', '"output": %s', '"semaphores": "%s"']


# Records are items of a top-level array: braces at indent 4, members at 6.


def _json_templates(stored: tuple[str, ...], names: tuple[str, ...]) -> tuple[str, ...]:
    """Outcome and race templates over ``names``, and ``stored`` for a full race's stored side."""
    trace, counter = '"trace": %s', f'"counter": {_json_counter(" " * 6, ("%s", "%s"))}'
    stored_snapshot, current_snapshot = (
        _json_object(" " * 8, _json_snapshot_members(" " * 10, n)) for n in (stored, names)
    )
    current = '"current": ' + _json_object(" " * 6, [trace, f'"snapshot": {current_snapshot}'])
    records = [[trace, *_json_snapshot_members(" " * 6, names)]]
    for stored_member in ('"digest": "%s"', f'"snapshot": {stored_snapshot}'):
        stored_side = '"stored": ' + _json_object(" " * 6, [trace, stored_member])
        records.append([counter, stored_side, current])
    return tuple("    " + _json_object("    ", members) for members in records)


def _json_outcomes(outcomes: Iterable[PartialInterleaving]) -> Iterator[str]:
    names = None
    for snapshot, trace, _ in outcomes:
        if snapshot.names != names:
            names = snapshot.names
            template = _json_templates(names, names)[0]
        bank = bytes(snapshot.semaphores).translate(_UD).decode()
        yield template % (_esc(trace), *snapshot.values, _esc(snapshot.output), bank)


def _json_races(races: Iterable[Race]) -> Iterator[str]:
    stored_names = names = None
    for counter, stored_trace, stored, digest, trace, current in races:
        # a digest-mode race has no stored snapshot: its template uses the current names
        if current.names != names or (stored or current).names != stored_names:
            names, stored_names = current.names, (stored or current).names
            _, digest_race, full_race = _json_templates(stored_names, names)
        bank = bytes(current.semaphores).translate(_UD).decode()
        current_side = (_esc(trace), *current.values, _esc(current.output), bank)
        if stored is None:  # digest mode: the stored side is a trace and a digest
            yield digest_race % (*counter, _esc(stored_trace), digest.hex(), *current_side)
        else:
            bank = bytes(stored.semaphores).translate(_UD).decode()
            stored_side = (_esc(stored_trace), *stored.values, _esc(stored.output), bank)
            yield full_race % (*counter, *stored_side, *current_side)


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
    yield from _json_array("outcomes", _json_outcomes(report.outcomes))
    yield from _json_array("races", _json_races(report.races))
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

