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

The package root also holds the rules its modules share, since every
command loads it anyway: :class:`Record`, the frozen slotted base of the
package's records (the AST, programs, ``ExplorationConfig`` and
``InstrumentOptions``); :func:`_require`, the exact-type refusal of a
record's typed input; and :class:`_LocatedError` with :func:`_position`,
the error at a line and column of a source text that ``ParseError`` and
``InstrumentError`` are.
"""

import importlib
import sys
from operator import attrgetter

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": ("BenchRow", "BudgetExceeded", "bench_table", "disjoint_pair", "render"),
    "engine": (
        "EngineError", "ExplorationConfig", "ExplorationReport", "ExplorationStats",
        "ReplayError", "explore", "initial_interleaving", "replay", "step",
    ),
    "instrument": ("InstrumentError", "InstrumentOptions", "instrument", "strip"),
    "report": ("iter_report", "render_report"),
    "state": (
        "DIGEST_ALGORITHM", "PartialInterleaving", "Race", "Snapshot", "StateTable",
        "digest",
    ),
    "toylang": ("ParseError", "ProgramPair", "ThreadProgram", "parse"),
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


class Record:
    """Base of the package's records: ``__init__``, field-wise ``==``, hash and repr; frozen.

    A subclass declares ``__slots__ = __match_args__ = (...)``.  ``__init__``
    takes each field once, by position or keyword, else ``TypeError``; a record
    with more slots, defaults or checks sets its fields with ``super().__init__``.
    ``==``, hash and repr cover ``__match_args__``, and records of two classes
    are never equal.  Setting or deleting a field raises ``AttributeError``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = cls.__match_args__
        get = attrgetter(*fields)  # the fields as a tuple, or one field as itself
        cls._key = get if len(fields) > 1 else staticmethod(lambda record: (get(record),))

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self.__match_args__
        if kwargs or len(args) != len(fields):  # the parser gives every field by position
            rest = fields[len(args):]  # the fields the keywords must give
            if len(args) > len(fields) or kwargs.keys() != set(rest):
                raise TypeError(f"{type(self).__name__}() takes each of the fields {fields} once")
            args += tuple(map(kwargs.get, rest))
        k = 0  # a counter: cheaper than zip or enumerate, and the parser builds many nodes
        for name in fields:
            _set(self, name, args[k])
            k += 1

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__match_args__, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


_set = object.__setattr__  # how a record sets its fields past __setattr__


def _require(what: str, value: object, kind: type) -> None:
    """``TypeError`` naming ``what`` unless ``value`` is exactly a ``kind`` (a bool is no int)."""
    if type(value) is not kind:
        article = "an" if kind.__name__[0] in "aeiou" else "a"
        raise TypeError(f"{what} is not {article} {kind.__name__}: {value!r}")


class _LocatedError(Exception):
    """An error at a 1-based line and column of a source text: ``"line:col: message"``."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col

    def __reduce__(self):  # copy and pickle rebuild through __init__, as records do
        message = self.args[0].partition(": ")[2]  # "line:col: " holds no other ": "
        return type(self), (message, self.line, self.col)


def _position(source: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset`` in ``source``; a ``\\r`` counts as a column."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)
