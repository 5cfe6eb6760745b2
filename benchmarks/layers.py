"""Traced in-process run: per-layer call counts and times, from outside the package.

Nothing inside ``paircheck`` is changed.  For the length of one traced
``explore`` call, the names that callers look up at call time are replaced by
wrappers that count calls and sum their inclusive time:

* ``paircheck.engine.step`` (split by statement kind, read from the public
  ``ProgramPair`` at the stepping thread's counter),
  ``paircheck.engine.unblock_check`` and ``paircheck.engine.eval_expr``;
* ``paircheck.state.StateTable.visit`` (split by outcome),
  ``paircheck.state.digest`` and ``paircheck.state.snapshot_equal``.

``parse``, ``explore``, ``render_report``, ``instrument`` and ``strip`` are
timed directly as spans.  A name that no longer exists is reported as absent
and its metrics read 0.  Spans stay in memory and are returned at the end; the
wrapped calls are too many to keep one span each, so each explore span carries
their counts and summed times instead.

Table memory is measured in its own pass: ``StateTable.__init__`` is wrapped to
capture the table, and its objects are walked with ``sys.getsizeof``, each
object counted once.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import speed

ns = time.perf_counter_ns

STEP_KINDS = {"Assign": "assign", "Emit": "emit", "SemDown": "down", "SemUp": "up"}
VISIT_OUTCOMES = {"FirstVisit": "first", "PrunedEqual": "equal", "Race": "race"}

# Every per-layer metric with its unit; those a workload does not exercise read 0.
PER_LAYER = {
    **{f"engine.step_calls.{k}": "count" for k in STEP_KINDS.values()},
    **{f"engine.step_s.{k}": "s" for k in STEP_KINDS.values()},
    "toylang.eval_expr_calls": "count",
    "toylang.eval_expr_s": "s",
    "engine.unblock_check_calls": "count",
    "engine.unblock_check_s": "s",
    "engine.dfs_self_s": "s",
    "engine.explore_s": "s",
    "state.visit_calls": "count",
    "state.visit_s": "s",
    "state.visit_first": "count",
    "state.visit_equal": "count",
    "state.visit_race": "count",
    "state.prune_ratio": "ratio",
    "state.snapshot_equal_calls": "count",
    "state.snapshot_equal_s": "s",
    "state.digest_calls": "count",
    "state.digest_s": "s",
    "state.table_entries": "count",
    "state.bytes_per_entry": "B",
    "analysis.render_s": "s",
    "analysis.report_bytes": "B",
    "toylang.parse_s": "s",
    "toylang.parse_stmts": "count",
    "instrument.instrument_s": "s",
    "instrument.strip_s": "s",
    "instrument.hooks": "count",
    "cli.wait_s": "s",
    "trace.overhead_s": "s",
}


class Spans:
    """Spans kept in memory: name, start and end (ns), parent index, extras."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **extra):
        record = {"name": name, "parent": self._open[-1] if self._open else None, **extra}
        self.records.append(record)
        self._open.append(len(self.records) - 1)
        record["start_ns"] = ns()
        try:
            yield record
        finally:
            record["end_ns"] = ns()
            self._open.pop()

    @staticmethod
    def seconds(record: dict) -> float:
        return (record["end_ns"] - record["start_ns"]) / 1e9


class LayerTracer:
    """Installs counting wrappers on the package's lookup points."""

    def __init__(self, pc, pair) -> None:
        self.pc = pc
        self.calls: dict[str, int] = defaultdict(int)
        self.ns: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self.kinds = [
            [STEP_KINDS.get(type(stmt).__name__, "other") for stmt in pair.thread(tid).statements]
            for tid in (0, 1)
        ]

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def _timed(self, key: str):
        calls, total = self.calls, self.ns

        def make(fn):
            def wrapper(*args, **kwargs):
                start = ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    total[key] += ns() - start
                    calls[key] += 1

            return wrapper

        return make

    def _step(self, fn):
        calls, total, kinds = self.calls, self.ns, self.kinds

        def step(pair, i, tid):
            start = ns()
            try:
                return fn(pair, i, tid)
            finally:
                # a thread's next statement index is its counter minus one
                kind = "engine.step." + kinds[tid][i.counter[tid] - 1]
                total[kind] += ns() - start
                calls[kind] += 1

        return step

    def _visit(self, fn):
        calls, total = self.calls, self.ns

        def visit(table, interleaving):
            start = ns()
            outcome = fn(table, interleaving)
            total["state.visit"] += ns() - start
            calls["state.visit"] += 1
            calls["state.visit_" + VISIT_OUTCOMES.get(type(outcome).__name__, "other")] += 1
            return outcome

        return visit

    @contextmanager
    def installed(self):
        engine, state = self.pc.engine, self.pc.state
        self._patch(engine, "step", self._step)
        self._patch(engine, "unblock_check", self._timed("engine.unblock_check"))
        self._patch(engine, "eval_expr", self._timed("toylang.eval_expr"))
        self._patch(state.StateTable, "visit", self._visit)
        self._patch(state, "digest", self._timed("state.digest"))
        self._patch(state, "snapshot_equal", self._timed("state.snapshot_equal"))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()


def deep_size(root) -> int:
    """Bytes of every object reachable from ``root``, each counted once."""
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.append(obj.__dict__)
    return total


def table_bytes_per_entry(pc, pair, config) -> float | None:
    """Explore once with the table captured; None if no table was built."""
    tables = []
    table_cls = pc.state.StateTable
    original = table_cls.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        tables.append(self)

    table_cls.__init__ = init
    try:
        pc.explore(pair, config)
    finally:
        table_cls.__init__ = original
    if not tables or not len(tables[0]):
        return None
    return deep_size(tables[0]) / len(tables[0])


def _median_index(values: list[float]) -> int:
    return sorted(range(len(values)), key=values.__getitem__)[(len(values) - 1) // 2]


def trace_check(wl, pc, seconds: float, spans: Spans) -> tuple[dict, list[str], str | None]:
    """Per-layer metrics of one check workload.

    Alternates untraced and traced ``explore`` calls until ``seconds`` pass,
    and reports the traced call with the median explore time.  Times are
    scaled to the nominal machine speed by the bracket around each call.  Each
    traced report must render to exactly the CLI's stdout.
    """
    with speed.Bracket() as bracket, spans.span("toylang.parse") as parse_span:
        pair = pc.parse(wl.source)
    parse_s = Spans.seconds(parse_span) * bracket.scale
    config = pc.ExplorationConfig(**wl.config)
    plain: list[float] = []
    traced: list[dict] = []
    absent: list[str] = []
    error = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        for tracing in (False, True) if len(plain) % 2 == 0 else (True, False):
            if not tracing:
                with speed.Bracket() as bracket, spans.span("engine.explore", traced=False) as span:
                    pc.explore(pair, config)
                plain.append(Spans.seconds(span) * bracket.scale)
                continue
            tracer = LayerTracer(pc, pair)
            with speed.Bracket() as bracket:
                with tracer.installed(), spans.span("engine.explore", traced=True) as span:
                    report = pc.explore(pair, config)
                with spans.span("analysis.render_report") as render:
                    text = pc.render_report(report, "json")
            span["calls"], span["ns"] = dict(tracer.calls), dict(tracer.ns)
            span["scale"] = bracket.scale
            absent = tracer.absent
            if error is None and text.encode("utf-8") != wl.reference.get(False):
                error = "traced report differs from the CLI's stdout"
            traced.append({
                "explore_s": Spans.seconds(span) * bracket.scale,
                "render_s": Spans.seconds(render) * bracket.scale,
                "report_bytes": len(text.encode("utf-8")),
                "calls": tracer.calls,
                "secs": {k: v / 1e9 * bracket.scale for k, v in tracer.ns.items()},
                "table_entries": report.stats.table_entries,
            })
    best = traced[_median_index([t["explore_s"] for t in traced])]
    calls, secs = best["calls"], best["secs"]
    m = {
        "engine.explore_s": best["explore_s"],
        "toylang.parse_s": parse_s,
        "toylang.parse_stmts": len(pair.thread0.statements) + len(pair.thread1.statements),
        "analysis.render_s": best["render_s"],
        "analysis.report_bytes": best["report_bytes"],
        "state.table_entries": best["table_entries"],
        "trace.overhead_s": statistics.median(t["explore_s"] for t in traced)
        - statistics.median(plain),
    }
    for kind in STEP_KINDS.values():
        m[f"engine.step_calls.{kind}"] = calls.get(f"engine.step.{kind}", 0)
        m[f"engine.step_s.{kind}"] = secs.get(f"engine.step.{kind}", 0.0)
    for name in (
        "toylang.eval_expr",
        "engine.unblock_check",
        "state.visit",
        "state.snapshot_equal",
        "state.digest",
    ):
        m[f"{name}_calls"] = calls.get(name, 0)
        m[f"{name}_s"] = secs.get(name, 0.0)
    for outcome in VISIT_OUTCOMES.values():
        m[f"state.visit_{outcome}"] = calls.get(f"state.visit_{outcome}", 0)
    visits = m["state.visit_calls"]
    m["state.prune_ratio"] = m["state.visit_equal"] / visits if visits else 0.0
    step_s = sum(m[f"engine.step_s.{kind}"] for kind in STEP_KINDS.values())
    m["engine.dfs_self_s"] = (
        m["engine.explore_s"] - step_s - m["engine.unblock_check_s"] - m["state.visit_s"]
    )
    with spans.span("state.bytes_per_entry_pass"):
        per_entry = table_bytes_per_entry(pc, pair, config)
    if per_entry is None:
        absent.append("state.bytes_per_entry (no state table)")
    m["state.bytes_per_entry"] = per_entry or 0.0
    return m, absent, error


def trace_instrument(wl, pc, seconds: float, spans: Spans) -> tuple[dict, list[str], str | None]:
    """Per-layer metrics of instrument-roundtrip: median instrument and strip times."""
    inst, strp = [], []
    error = None
    deadline = time.perf_counter() + seconds
    while not inst or time.perf_counter() < deadline:
        with speed.Bracket() as bracket:
            with spans.span("instrument.instrument") as first:
                hooked = pc.instrument(wl.source)
            with spans.span("instrument.strip") as second:
                back = pc.strip(hooked)
        inst.append(Spans.seconds(first) * bracket.scale)
        strp.append(Spans.seconds(second) * bracket.scale)
        if error is None and (hooked != wl.expected or back != wl.source):
            error = "in-process instrument/strip output differs from the expected bytes"
    hook = pc.InstrumentOptions().hook_token + " "
    m = {
        "instrument.instrument_s": statistics.median(inst),
        "instrument.strip_s": statistics.median(strp),
        "instrument.hooks": (len(hooked) - len(wl.source)) // len(hook),
    }
    return m, [], error
