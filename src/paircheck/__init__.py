"""Explicit-state model checking for two-thread programs.

Parses a small deterministic imperative language into pairs of atomic
statement lists, enumerates thread interleavings depth-first, detects
race conditions and deadlocks, and prunes the search with a state table
keyed on combined execution counters.  A token-level instrumenter for
C-like source demonstrates how the per-statement hook points would be
added to real code.
"""

from .analysis import (
    BenchRow,
    bench_table,
    disjoint_pair,
    iter_report,
    render_report,
    report_to_dict,
)
from .engine import (
    BudgetExceeded,
    EngineError,
    ExplorationConfig,
    ExplorationReport,
    ExplorationStats,
    Finding,
    Outcome,
    RaceRecord,
    ReplayError,
    explore,
    initial_interleaving,
    replay,
    step,
)
from .instrument import InstrumentError, InstrumentOptions, instrument, strip
from .state import (
    DIGEST_ALGORITHM,
    CombinedCounter,
    PartialInterleaving,
    Snapshot,
    StateTable,
    digest,
)
from .toylang import ParseError, ProgramPair, ThreadProgram, parse, render

__version__ = "0.1.0"

__all__ = [
    "BenchRow",
    "BudgetExceeded",
    "CombinedCounter",
    "DIGEST_ALGORITHM",
    "EngineError",
    "ExplorationConfig",
    "ExplorationReport",
    "ExplorationStats",
    "Finding",
    "InstrumentError",
    "InstrumentOptions",
    "Outcome",
    "ParseError",
    "PartialInterleaving",
    "ProgramPair",
    "RaceRecord",
    "ReplayError",
    "Snapshot",
    "StateTable",
    "ThreadProgram",
    "__version__",
    "bench_table",
    "digest",
    "disjoint_pair",
    "explore",
    "initial_interleaving",
    "instrument",
    "iter_report",
    "parse",
    "render",
    "render_report",
    "replay",
    "report_to_dict",
    "step",
    "strip",
]
