"""Nothing paircheck allocates forms a reference cycle.

The console script runs with the cyclic garbage collector off (``cli.entry``),
which is sound only while the checker's states, reports and errors are plain
acyclic data: the collector would never have freed any of them.  These tests
run the library with the collector off and then ask it what is left to free.
"""

import contextlib
import gc
import io

import pytest

from conftest import PROGRAMS_DIR, program_paths
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


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_leaves_the_collector_as_it_found_it(collector_setting, enabled):
    (gc.enable if enabled else gc.disable)()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", str(PROGRAMS_DIR / "ab12.toy")]) == 1
    assert gc.isenabled() is enabled
