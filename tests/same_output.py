"""Run paircheck from two source trees over the same inputs and list where they differ.

Usage::

    python3 tests/same_output.py PARENT_TREE CHANGE_TREE

Each tree is a directory holding ``src/paircheck``: a checkout, or a copy
made with ``git archive``.  Every case runs ``python -m paircheck`` once
with each tree's ``src`` first on ``PYTHONPATH`` (and no bytecode written
into the tree) and compares stdout, stderr and the exit code.  The inputs
come from the repository this script is in:

* every ``programs/*.toy``, ``benchmarks/gen.py racy --seed 1`` at
  ``--length`` 24 and 80, and the length-24 program with 30 padding ``var``
  lines prepended (34 variables, which the search holds in chunks of 16),
  each checked in text and JSON under the default flags, ``--digest``,
  ``--no-prune`` and ``--no-race-detect``;
* ``gen.py disjoint --n 60``, a wide program of 120 variables, checked in
  text and JSON under the default flags and ``--digest`` (under
  ``--no-race-detect`` it would only run into the step budget);
* ``bench --max 6`` in text and JSON;
* ``instrument`` of ``gen.py csource --seed 1 --kib 32``, plain and with
  ``--hook-token 'trace();'``; ``instrument --skip-redundant`` and
  ``--strip`` of the hooked source it expects (the generated source holds
  no ``hook``, so only the hooked one has statements to skip), and
  ``--strip --hook-token 'trace();'`` of that source with ``trace();`` in
  place of each ``hook();``;
* ``instrument`` of ``gen.py csource --seed 1 --kib 256``, whose output
  spans several 64 KiB blocks, ``--strip`` of the hooked source it
  expects, and ``instrument`` of that source with a ``{`` appended, which
  is refused with exit code 4 after several blocks.

``gen.py`` is run, never edited.  Each case that differs is printed, and
the exit code is 1 if any case differs, else 0.  Standard library only;
pytest does not collect this file (``tests/test_same_output.py`` runs two
cases of it).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECK_FLAGS = ([], ["--digest"], ["--no-prune"], ["--no-race-detect"])
FORMATS = ("text", "json")


def all_cases(workdir: Path) -> list[list[str]]:
    """Each case's arguments after ``python -m paircheck``; generated inputs go in ``workdir``."""

    def generate(name: str, *args: str) -> Path:
        out = workdir / name
        gen = [sys.executable, str(REPO_ROOT / "benchmarks" / "gen.py"), *args, "-o", str(out)]
        subprocess.run(gen, check=True)
        return out

    programs = sorted((REPO_ROOT / "programs").glob("*.toy"))
    for n in (24, 80):
        programs.append(generate(f"racy{n}.toy", "racy", "--seed", "1", "--length", str(n)))
    padded = workdir / "racy24-padded.toy"
    padding = "".join(f"var p{k:02d};\n" for k in range(30))
    padded.write_text(padding + programs[-2].read_text(encoding="utf-8"), encoding="utf-8")
    programs.append(padded)
    cases = [
        ["check", str(path), *flags, "--format", fmt]
        for path in programs
        for flags in CHECK_FLAGS
        for fmt in FORMATS
    ]
    wide = generate("disjoint60.toy", "disjoint", "--n", "60")
    for flags in ([], ["--digest"]):
        cases += [["check", str(wide), *flags, "--format", fmt] for fmt in FORMATS]
    cases += [["bench", "--max", "6", "--format", fmt] for fmt in FORMATS]
    source = generate("csource.c", "csource", "--seed", "1", "--kib", "32")
    expected = Path(f"{source}.expected")
    traced = workdir / "csource.traced.c"
    traced.write_bytes(expected.read_bytes().replace(b"hook(); ", b"trace(); "))
    trace = ["--hook-token", "trace();"]
    cases += [
        ["instrument", str(source)],
        ["instrument", "--skip-redundant", str(expected)],
        ["instrument", *trace, str(source)],
        ["instrument", "--strip", str(expected)],
        ["instrument", "--strip", *trace, str(traced)],
    ]
    large = generate("csource256.c", "csource", "--seed", "1", "--kib", "256")
    unclosed = workdir / "csource256.unclosed.c"
    unclosed.write_bytes(large.read_bytes() + b"{")
    cases += [
        ["instrument", str(large)],
        ["instrument", "--strip", f"{large}.expected"],
        ["instrument", str(unclosed)],
    ]
    return cases


def run(tree: Path, argv: list[str]) -> tuple[bytes, bytes, int]:
    """Stdout, stderr and exit code of ``python -m paircheck`` run from ``tree``'s sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "paircheck", *argv], capture_output=True, env=env)
    return proc.stdout, proc.stderr, proc.returncode


def differences(parent: Path, change: Path, cases: list[list[str]]) -> list[str]:
    """One line for each case whose stdout, stderr or exit code differs between the trees."""

    def compare(argv: list[str]) -> str | None:
        old, new = run(parent, argv), run(change, argv)
        name = " ".join(Path(arg).name if os.sep in arg else arg for arg in argv)
        parts = [part for part, a, b in zip(("stdout", "stderr", "exit code"), old, new) if a != b]
        if not parts:
            return None
        return f"{name}: differs in {' and '.join(parts)} (exit codes {old[2]} and {new[2]})"

    with ThreadPoolExecutor(max_workers=2) as pool:  # two children at a time
        return [line for line in pool.map(compare, cases) if line is not None]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    parent, change = map(Path, argv)
    with tempfile.TemporaryDirectory() as workdir:
        cases = all_cases(Path(workdir))
        lines = differences(parent, change, cases)
    for line in lines:
        print(line)
    print(f"{len(cases)} cases, {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
