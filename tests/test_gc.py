"""Nothing paircheck allocates forms a reference cycle.

The console script runs with the cyclic garbage collector off (``cli.entry``),
which is sound only while the checker's states, reports and errors are plain
acyclic data: the collector would never have freed any of them.  These tests
run the library with the collector off and then ask it what is left to free.
Once the command is done, ``cli.entry`` also freezes what is live, so the
interpreter's last collection at exit has nothing to scan.
"""

import contextlib
import gc
import io
import subprocess
import sys

import pytest

from conftest import PROGRAMS_DIR, child_env, program_paths
from corpus import fixed_corpus
from paircheck import (
    ExplorationConfig,
    ParseError,
    ReplayError,
    bench_table,
    disjoint_pair,
    explore,
    iter_report,
    parse,
    render,
    replay,
)
from paircheck.cli import main
from paircheck.instrument import InstrumentOptions, instrument, strip
from test_analysis import RACY_24
from test_package import command_code, value_at_exit
from test_report_pins import MODES

C_SOURCE = """\
/* a counter */ int n = 0;
void count(char *s) {
  int i;
  for (i = 0; s[i]; i++) { n++; }   // per character
  if (n > 3) { puts("many; {}"); } else report('}', n);
}
"""


@pytest.fixture
def collector_setting():
    """Put ``gc.isenabled()`` back as it was when the test ends."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.fixture
def collector_off(collector_setting):
    """Clear what earlier code left to collect, then turn the collector off."""
    gc.collect()
    gc.disable()


def test_library_allocates_no_cycles(collector_off):
    programs = [parse(path.read_text(encoding="utf-8")) for path in program_paths()]
    programs += fixed_corpus(200)
    for pair in programs:
        for options in MODES.values():
            for budget in (0, 3, 1_000_000):
                report = explore(pair, ExplorationConfig(max_total_steps=budget, **options))
                for fmt in ("json", "text"):
                    for _ in iter_report(report, fmt):
                        pass
    bench_table(1, 5)
    opts = InstrumentOptions()
    assert strip(instrument(C_SOURCE, opts), opts) == C_SOURCE
    ab12 = programs[0]
    try:
        replay(ab12, "0" * 100)  # thread 0 finishes first
    except ReplayError:
        pass
    else:
        pytest.fail("no ReplayError")
    try:
        parse("thread0 { x = 1; } thread1 { }")
    except ParseError:
        pass
    else:
        pytest.fail("no ParseError")
    assert gc.collect() == 0


def garbage_after(argv: list[str]) -> int:
    """What the collector finds after ``main(argv)`` has run with it off."""
    with contextlib.redirect_stdout(io.StringIO()):
        gc.collect()
        main(argv)
        return gc.collect()


def test_command_garbage_does_not_grow_with_the_search(collector_off, tmp_path):
    # what is left is argparse's parser, the same for every command and size
    commands = []
    for n in (3, 30):
        path = tmp_path / f"disjoint{n}.toy"
        path.write_text(render(disjoint_pair(n)), encoding="utf-8")
        commands.append(["check", str(path)])
    source = tmp_path / "count.c"
    source.write_text(C_SOURCE, encoding="utf-8")
    commands += [["bench", "--min", "1", "--max", "4"], ["instrument", str(source)]]
    for argv in commands:  # the first run of each command imports its modules
        garbage_after(argv)
    counts = {" ".join(argv): garbage_after(argv) for argv in commands}
    assert len(set(counts.values())) == 1, counts


def test_console_entry_runs_with_the_collector_off(tmp_path):
    command = command_code("check", str(PROGRAMS_DIR / "ab12.toy"))
    assert value_at_exit(tmp_path, command, "__import__('gc').isenabled()") == (1, "False")


# main() with the collector on, collecting at almost every allocation
COLLECTING = (
    "import gc, sys; gc.enable(); gc.set_threshold(1)\n"
    "from paircheck.cli import main; sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "name, flags, want",
    [("racy24", [], 1), ("racy24", ["--digest"], 1), ("disjoint12", [], 0)],
    ids=["racy24", "racy24-digest", "disjoint12"],
)
def test_report_does_not_depend_on_the_collector(tmp_path, name, flags, want, fmt):
    source = RACY_24 if name == "racy24" else render(disjoint_pair(12))
    path = tmp_path / f"{name}.toy"
    path.write_text(source, encoding="utf-8")
    argv = ["check", "--format", fmt, *flags, str(path)]
    # ``python -m paircheck`` runs ``cli.entry``, which turns the collector off
    off, on = (
        subprocess.run([sys.executable, *run, *argv], env=child_env(), capture_output=True, timeout=60)
        for run in (["-m", "paircheck"], ["-c", COLLECTING])
    )
    assert (off.returncode, off.stderr) == (on.returncode, on.stderr) == (want, b"")
    assert off.stdout == on.stdout


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_leaves_the_collector_as_it_found_it(collector_setting, enabled):
    (gc.enable if enabled else gc.disable)()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", str(PROGRAMS_DIR / "ab12.toy")]) == 1
    assert gc.isenabled() is enabled


def test_console_entry_freezes_what_is_live_at_exit(tmp_path):
    command = command_code("check", str(PROGRAMS_DIR / "ab12.toy"))
    expression = "__import__('gc').get_freeze_count() > 0"
    assert value_at_exit(tmp_path, command, expression) == (1, "True")


@pytest.mark.parametrize("command", ["check", "bench", "instrument"])
def test_main_leaves_the_collector_and_the_frozen_objects_as_it_found_them(
    collector_setting, tmp_path, command
):
    source = tmp_path / "count.c"
    source.write_text(C_SOURCE, encoding="utf-8")
    argv = {
        "check": ["check", str(PROGRAMS_DIR / "ab12.toy")],
        "bench": ["bench", "--max", "3"],
        "instrument": ["instrument", str(source)],
    }[command]
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        frozen = gc.get_freeze_count()
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
