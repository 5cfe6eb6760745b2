"""Report writer: an :class:`~paircheck.engine.ExplorationReport` as text or JSON.

Both formats are made one record (outcome, race or finding) per chunk;
``check`` writes whole chunks in 64 KiB blocks, never the whole report.  The
JSON writer spells out the ``json.dumps(..., indent=2)`` layout of the fixed
schema and escapes every string with the C escaper ``json.dumps`` uses under
its default ``ensure_ascii=True``, so it writes the same bytes, all of them
ASCII.  Each outcome, race and finding record is one f-string with the
layout spelled out in its literal, whose snapshot members come from
:func:`_json_members`, the one writer of the JSON snapshot layout; the text
report's snapshot lines are ``Snapshot.canonical``.  Each finds its writer
from the snapshot's own ``names``, keeping the last writer built.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING

from .state import _UD, DIGEST_ALGORITHM, _remember

try:  # the C escaper of json.dumps, without loading the json package
    from _json import encode_basestring_ascii as _esc
except ImportError:
    from json.encoder import encode_basestring_ascii as _esc

if TYPE_CHECKING:  # the engine is loaded by whoever built the report
    from .engine import ExplorationReport
    from .state import PartialInterleaving, Race, Snapshot

__all__ = ["iter_report", "render_report"]

_kept_members: tuple = (object(), None, None)  # (names, pad, writer); not (), which is shared


def _json_members(names: tuple[str, ...], pad: str) -> Callable[[Snapshot], str]:
    """The JSON members (variables, output, semaphores; no status) of snapshots of ``names``.

    The layout is ``json.dumps(..., indent=2)``'s with the last two at indent
    ``pad``, made and kept as ``state.snapshot_formatter`` makes and keeps the
    canonical writer: the last one, for its ``names`` object and ``pad``.
    """
    global _kept_members
    kept_names, kept_pad, kept = _kept_members
    if kept_names is names and kept_pad == pad:
        return kept
    inner = pad + "  "
    variables = f",\n{inner}".join(_esc(name).replace("%", "%%") + ": %s" for name in names)
    head = f'"variables": {{\n{inner}{variables}\n{pad}}},' if names else '"variables": {},'
    banks: dict[tuple[bool, ...], str] = {}

    def members(snapshot: Snapshot) -> str:
        _, values, output, bank, _, _ = snapshot
        try:
            sems = banks[bank]
        except KeyError:
            sems = _remember(banks, bank, bytes(bank).translate(_UD).decode())
        return head % values + f'\n{pad}"output": {_esc(output)},\n{pad}"semaphores": "{sems}"'

    _kept_members = names, pad, members
    return members


# Records are items of a top-level array: braces at indent 4, members at 6.
# An outcome's snapshot members sit at indent 6, a race's at 10.


def _json_outcomes(outcomes: Iterable[PartialInterleaving]) -> Iterator[str]:
    for snapshot, trace, _ in outcomes:
        members = _json_members(snapshot[0], " " * 6)(snapshot)
        yield f'    {{\n      "trace": {_esc(trace)},\n      {members}\n    }}'


def _json_races(races: Iterable[Race]) -> Iterator[str]:
    for (s0, s1), stored_trace, stored, digest, trace, current in races:
        if stored is None:  # digest mode: the stored side is a trace and a digest
            stored_side = f'"digest": "{digest.hex()}"'
        else:
            members = _json_members(stored[0], " " * 10)(stored)
            stored_side = f'"snapshot": {{\n          {members}\n        }}'
        members = _json_members(current[0], " " * 10)(current)
        yield (
            f'    {{\n      "counter": [\n        {s0},\n        {s1}\n      ],\n'
            f'      "stored": {{\n        "trace": {_esc(stored_trace)},\n'
            f'        {stored_side}\n      }},\n'
            f'      "current": {{\n        "trace": {_esc(trace)},\n'
            f'        "snapshot": {{\n          {members}\n        }}\n      }}\n    }}'
        )


def _json_findings(findings: Iterable[PartialInterleaving]) -> Iterator[str]:
    for _, trace, (s0, s1) in findings:
        yield (
            f'    {{\n      "counter": [\n        {s0},\n        {s1}\n      ],\n'
            f'      "trace": {_esc(trace)}\n    }}'
        )


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
    stats = ",\n    ".join(map('"{}": {}'.format, report.stats._fields, report.stats))
    yield f'  "stats": {{\n    {stats}\n  }}\n}}\n'


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
    for k, (counter, stored_trace, stored, digest, trace, current) in enumerate(report.races, 1):
        if stored is None:  # digest mode: the stored side is a trace and a digest
            stored_side = f" digest={digest.hex()} (digest only)\n"
        else:
            stored_side = f"\n               {stored.canonical()}\n"
        yield (
            f"  [{k}] at counter {counter}\n"
            f"      stored : trace={stored_trace or '(empty)'}{stored_side}"
            f"      current: trace={trace or '(empty)'}\n"
            f"               {current.canonical()}\n"
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

