"""Reference report renderer used to cross-check ``paircheck.analysis``.

The renderer the reports were first written with: the JSON report is a
dict tree handed to ``json.dumps(..., indent=2)``, and the text report is
a list of lines joined at the end.  It builds the whole report in memory
more than once, which is what the streaming writer replaced; the
differential tests in ``test_analysis.py`` require the writer to give the
same bytes as this module on every report.

:func:`canonical` is the reference for the canonical snapshot layout,
written from README's description and using none of paircheck's
formatting code, so that ``Snapshot.canonical`` is never checked against
itself.
"""

from __future__ import annotations

import json

from paircheck.engine import ExplorationReport
from paircheck.state import DIGEST_ALGORITHM, DONE, Race, Snapshot

# README: backslash, double quote, newline, tab and carriage return are backslash-escaped
_CANONICAL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def canonical(snapshot: Snapshot) -> str:
    """``vars{name=value,...};out="...";sems=UD...;st0=...;st1=...``, as README lays it out."""
    variables = ",".join(f"{name}={value}" for name, value in zip(snapshot.names, snapshot.values))
    output = "".join(_CANONICAL_ESCAPES.get(char, char) for char in snapshot.output)
    semaphores = "".join("U" if up else "D" for up in snapshot.semaphores)
    status0, status1 = (
        "done" if status == DONE else f"run@{status}"
        for status in (snapshot.status0, snapshot.status1)
    )
    return f'vars{{{variables}}};out="{output}";sems={semaphores};st0={status0};st1={status1}'


def _snapshot_dict(snapshot: Snapshot) -> dict:
    return {
        "variables": dict(zip(snapshot.names, snapshot.values)),
        "output": snapshot.output,
        "semaphores": "".join("U" if up else "D" for up in snapshot.semaphores),
    }


def _race_dict(race: Race) -> dict:
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
        lines.append(f"      {canonical(outcome.snapshot)}")

    lines.append(f"races: {len(report.races)}")
    for k, race in enumerate(report.races, 1):
        lines.append(f"  [{k}] at counter {tuple(race.counter)}")
        if race.stored_snapshot is not None:
            lines.append(f"      stored : trace={race.stored_trace or '(empty)'}")
            lines.append(f"               {canonical(race.stored_snapshot)}")
        else:
            assert race.stored_digest is not None
            lines.append(
                f"      stored : trace={race.stored_trace or '(empty)'} "
                f"digest={race.stored_digest.hex()} (digest only)"
            )
        lines.append(f"      current: trace={race.current_trace or '(empty)'}")
        lines.append(f"               {canonical(race.current_snapshot)}")
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
