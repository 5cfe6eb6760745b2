"""Explicit-state model checking for two-thread programs.

Parses a small deterministic imperative language into pairs of atomic
statement lists, enumerates thread interleavings depth-first, detects
race conditions and deadlocks, and prunes the search with a state table
keyed on combined execution counters.  A token-level instrumenter for
C-like source demonstrates how the per-statement hook points would be
added to real code.

The public names are exported lazily (PEP 562): ``import paircheck``
loads no submodule, and each name imports its own submodule on first
access, so a command pays only for the modules it runs.
"""

import importlib
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "BenchRow", "bench_table", "disjoint_pair", "iter_report", "render_report",
        "report_to_dict",
    ),
    "engine": (
        "BudgetExceeded", "EngineError", "ExplorationConfig", "ExplorationReport",
        "ExplorationStats", "ReplayError", "explore", "initial_interleaving", "replay",
        "step",
    ),
    "instrument": ("InstrumentError", "InstrumentOptions", "instrument", "strip"),
    "state": (
        "DIGEST_ALGORITHM", "PartialInterleaving", "Race", "Snapshot", "StateTable",
        "digest",
    ),
    "toylang": ("ParseError", "ProgramPair", "ThreadProgram", "parse", "render"),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SUBMODULE_OF, "__version__"])


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        globals()[name] = value  # later lookups skip this function
        return value
    if name in _EXPORTS:  # a submodule not loaded yet
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(type(sys)):
    def __setattr__(self, name: str, value) -> None:
        # The import system binds each submodule on the package as it first
        # loads it; ``paircheck.instrument`` stays the function of that name.
        if name == "instrument" and value is sys.modules.get(f"{__name__}.instrument"):
            value = value.instrument
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
