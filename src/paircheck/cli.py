"""Command-line interface: ``check``, ``bench``, and ``instrument``.

Exit codes:

* 0 — clean: no races, deadlocks, or block-forever errors
* 1 — race(s) found
* 2 — deadlock found
* 3 — block-forever found
* 4 — input, usage, or parse error
* 5 — step budget exhausted
* 6 — internal error: an unexpected exception inside paircheck
* 130 — interrupted (SIGINT): one ``interrupted`` line on stderr, no traceback

When several findings apply, the lowest nonzero code wins.

Every command writes stdout through one writer, as UTF-8 whatever the
locale's encoding, in blocks of whole chunks of at least 64 KiB.  A closed
stdout or a closed or unwritable stderr keeps the exit code, and errors
never go to stdout; a closed stdin read as ``-`` is an input error.

Each ``_cmd_*`` imports the modules it runs.  No command loads
``dataclasses``: the records are NamedTuples or plain slotted classes.
``instrument`` loads no parser, engine, state table, ``hashlib`` or
``json``.  ``check`` loads no benchmark or instrumenter, no report writer
on a parse error, no ``hashlib`` or ``json``, and ``_blake2`` only with
``--digest``.
``bench`` loads no report writer, and only it imports ``json`` here.

The console script and ``python -m paircheck`` run through :func:`entry`,
which turns the cyclic garbage collector off for the whole process, since
nothing the checker allocates can form a reference cycle, and freezes what
is live at exit, and which alone catches Ctrl-C.  :func:`main` leaves the
collector as its caller set it, and raises ``KeyboardInterrupt``.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from collections.abc import Iterable, Iterator
from enum import IntEnum

__all__ = ["ExitStatus", "main", "entry"]

_BLOCK = 1 << 16  # characters: every block of stdout but the last is at least 64 KiB of UTF-8


class ExitStatus(IntEnum):
    CLEAN = 0
    RACE = 1
    DEADLOCK = 2
    BLOCK_FOREVER = 3
    INPUT_ERROR = 4
    BUDGET_EXHAUSTED = 5
    INTERNAL_ERROR = 6
    INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process the signal ended


class _InputError(Exception):
    """A refusal of usage or input; ``main`` prints one ``error:`` line and exits ``status``."""

    def __init__(self, message: object, status: int = ExitStatus.INPUT_ERROR):
        super().__init__(message)
        self.status = status


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; route through INPUT_ERROR instead
    def error(self, message: str):  # noqa: A003 - argparse API
        raise _InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="paircheck",
        description="Explicit-state model checker for two-thread programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="explore a program and report findings")
    check.add_argument("file", help="program source file")
    check.add_argument("--no-prune", action="store_true", help="do not cut equal-state subtrees")
    check.add_argument(
        "--no-race-detect",
        action="store_true",
        help="drop the state table entirely (exhaustive search, no pruning)",
    )
    check.add_argument(
        "--digest", action="store_true", help="store 128-bit snapshot digests in the table"
    )
    check.add_argument("--max-steps", type=int, default=1_000_000, metavar="N")
    check.add_argument("--format", choices=("text", "json"), default="text")

    bench = sub.add_parser("bench", help="pruning-effectiveness benchmark table")
    bench.add_argument("--min", type=int, default=3, dest="n_min", metavar="N")
    bench.add_argument("--max", type=int, default=8, dest="n_max", metavar="N")
    bench.add_argument("--max-steps", type=int, default=10_000_000, metavar="N")
    bench.add_argument("--format", choices=("text", "json"), default="text")

    instr = sub.add_parser("instrument", help="insert hook tokens into C-like source")
    instr.add_argument("file", help="source file, or - for standard input")
    instr.add_argument("--hook-token", default="hook();", metavar="TOKEN")
    instr.add_argument("--skip-redundant", action="store_true")
    instr.add_argument("--strip", action="store_true", help="remove hook tokens instead")
    instr.add_argument("-o", dest="output", metavar="FILE", help="write here instead of stdout")
    return parser


def _read_source(path: str, newline: str | None = None) -> str:
    """Read UTF-8 text from a file or ``-``; ``newline=""`` keeps line endings."""
    try:
        if path == "-":
            if sys.stdin is None:  # fd 0 was closed at start-up (``<&-``)
                raise _InputError("-: standard input is closed")
            stream = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline=newline)
            try:
                return stream.read()
            finally:
                stream.detach()  # leave sys.stdin open
        with open(path, encoding="utf-8", newline=newline) as handle:
            return handle.read()
    except OSError as exc:
        raise _InputError(exc) from None
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: not valid UTF-8: {exc}") from None


def _to_devnull(stream) -> None:
    """Point a stream whose reader has gone at the null device.

    What is still buffered is then flushed there at exit, quietly (the
    recipe in the ``signal`` module's documentation).
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _blocks(chunks: Iterable[str]) -> Iterator[str]:
    """Whole chunks joined into blocks of at least ``_BLOCK`` characters; the last may be less."""
    block, size = [], 0
    for chunk in chunks:
        block.append(chunk)
        if (size := size + len(chunk)) >= _BLOCK:
            yield "".join(block)
            block, size = [], 0
    yield "".join(block)


def _write_stdout(chunks: Iterable[str]) -> None:
    """Write text chunks to stdout as UTF-8 bytes, each of :func:`_blocks` encoded once.

    A stdout with no byte layer under it (an ``io.StringIO`` put in place by
    ``contextlib.redirect_stdout``) takes the text as it is.  If the reader
    closes the pipe, the rest is dropped; the caller's exit code stands.  Any
    other error, a full non-blocking pipe too, is raised with stdout on the
    null device, so that the interpreter's flush at exit cannot fail again.
    """
    stdout = sys.stdout
    if stdout is None:  # fd 1 was closed at start-up (``>&-``)
        return
    buffer = getattr(stdout, "buffer", None)
    try:
        stdout.flush()  # text written earlier through sys.stdout goes first
        if buffer is None:
            stdout.writelines(chunks)
            return
        for block in _blocks(chunks):
            data = memoryview(block.encode("utf-8"))
            while data:  # an unbuffered stdout may write less than it is given
                if (written := buffer.write(data)) is None:  # a non-blocking one took nothing
                    raise BlockingIOError("stdout would block")
                data = data[written:]
        buffer.flush()
    except OSError as exc:
        _to_devnull(stdout)
        if not isinstance(exc, BrokenPipeError):
            raise


def _write_stderr(message: str) -> None:
    """Write one line to stderr, never stdout; a closed or unwritable stderr drops it."""
    if sys.stderr is not None:  # None: fd 2 was closed at start-up (``2>&-``)
        try:
            print(message, file=sys.stderr, flush=True)
        except OSError:
            _to_devnull(sys.stderr)


def _cmd_check(args: argparse.Namespace) -> int:
    from .engine import ExplorationConfig, explore
    from .toylang import ParseError, parse

    try:
        cfg = ExplorationConfig(
            pruning=not args.no_prune,
            race_detection=not args.no_race_detect,
            digest_mode=args.digest,
            max_total_steps=args.max_steps,
        )
    except ValueError as exc:
        raise _InputError(exc) from None
    source = _read_source(args.file).removeprefix("\ufeff")  # a byte-order mark, as Notepad saves
    try:
        pair = parse(source)
    except ParseError as exc:
        raise _InputError(f"{args.file}:{exc}") from None

    from .report import iter_report  # here, so a parse error loads no report writer

    report = explore(pair, cfg)
    _write_stdout(iter_report(report, args.format))

    if report.race_found:
        return ExitStatus.RACE
    if report.deadlocks:
        return ExitStatus.DEADLOCK
    if report.block_forever:
        return ExitStatus.BLOCK_FOREVER
    if not report.complete:
        return ExitStatus.BUDGET_EXHAUSTED
    return ExitStatus.CLEAN


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from .analysis import BudgetExceeded, bench_table

    try:
        rows = bench_table(args.n_min, args.n_max, max_total_steps=args.max_steps)
    except ValueError as exc:
        raise _InputError(exc) from None
    except BudgetExceeded as exc:
        raise _InputError(exc, ExitStatus.BUDGET_EXHAUSTED) from None
    if args.format == "json":
        payload = [
            {"n": r.n, "exhaustive": r.exhaustive_count, "pruned": r.pruned_count}
            for r in rows
        ]
        _write_stdout((json.dumps(payload, indent=2), "\n"))
        return ExitStatus.CLEAN
    width = max(10, *(len(str(r.exhaustive_count)) for r in rows))
    row = f"{{:>3}} {{:>{width}}} {{:>{width}}}\n".format
    _write_stdout(
        [row("n", "exhaustive", "pruned")]
        + [row(r.n, r.exhaustive_count, r.pruned_count) for r in rows]
    )
    return ExitStatus.CLEAN


def _cmd_instrument(args: argparse.Namespace) -> int:
    from .instrument import InstrumentError, InstrumentOptions, instrument, strip

    try:
        opts = InstrumentOptions(hook_token=args.hook_token, skip_redundant=args.skip_redundant)
    except ValueError as exc:
        raise _InputError(exc) from None
    source = _read_source(args.file, newline="")
    try:
        result = strip(source, opts) if args.strip else instrument(source, opts)
    except InstrumentError as exc:
        raise _InputError(f"{args.file}:{exc}") from None
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                handle.write(result)
        except OSError as exc:
            raise _InputError(exc) from None
    else:
        _write_stdout((result,))
    return ExitStatus.CLEAN


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        command = {"check": _cmd_check, "bench": _cmd_bench, "instrument": _cmd_instrument}
        return command[args.command](args)
    except _InputError as exc:
        _write_stderr(f"error: {exc}")
        return exc.status
    except Exception as exc:  # noqa: BLE001 - a crash must not exit 1, which means "race"
        # imported only here: it costs about a millisecond of start-up on every run
        import traceback

        trace = traceback.format_exc().rstrip("\n")
        _write_stderr(f"internal error: {type(exc).__name__}: {exc}\n{trace}")
        return ExitStatus.INTERNAL_ERROR


def entry() -> None:
    """Run :func:`main` on ``sys.argv``, collector off; exit with its code, or 130 on Ctrl-C.

    Nothing paircheck allocates refers back to itself, so the cyclic
    collector would free nothing here: it would only scan the tuples that
    every step allocates.  Peak memory stays the same.  The process ends
    with the command, so the setting is not restored, and ``gc.freeze()``
    then leaves the interpreter's last collection at exit nothing to scan.
    """
    gc.disable()
    try:
        status = main()
    except KeyboardInterrupt:
        _write_stderr("interrupted")
        status = ExitStatus.INTERRUPTED
    gc.freeze()
    raise SystemExit(status)
