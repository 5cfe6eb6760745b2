"""Time paircheck's search from two source trees in one process, pair by pair.

Usage::

    python3 tests/same_speed.py PARENT_TREE CHANGE_TREE [--pairs N]

Each tree is a directory holding ``src/paircheck``: a checkout, or a copy
made with ``git archive``.  Both trees' packages are loaded into this one
process, each as its own module objects, and no bytecode is written into
either tree.  A tree's modules are in ``sys.modules`` while its programs
are built and while its search runs, since ``ProgramPair`` compiles its
program through a lazy import of the engine and the package root resolves
its exports lazily.  The cases, each one ``explore`` call built by its own
tree:

* ``benchmarks/gen.py``'s ``racy_source(1, 80)``, in full and digest mode;
* ``disjoint_pair(60)``, in full and digest mode.

Each of the ``N`` pairs (default 50) times every case once in each tree,
the parent first in even pairs and the change first in odd ones.  For each
case the script prints both trees' median time and the median and
quartiles of the change/parent ratio of the pairs, so a shift of the
machine's speed between pairs moves both sides of a ratio alike.
``gen.py`` is read, never edited.  Standard library only; pytest does not
collect this file (``tests/test_same_speed.py`` runs two pairs of it).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CASES = ("racy L=80 full", "racy L=80 digest", "disjoint_pair(60) full",
         "disjoint_pair(60) digest")


def _racy_source(seed: int, length: int) -> str:
    spec = importlib.util.spec_from_file_location("_same_speed_gen",
                                                  REPO_ROOT / "benchmarks" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.racy_source(seed, length)


def _own_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "paircheck" or name.startswith("paircheck.")}


class Tree:
    """One tree's paircheck modules and, built by them, each case's ``explore`` and arguments."""

    def __init__(self, root: Path, racy: str):
        for name in _own_modules():
            del sys.modules[name]
        sys.path.insert(0, str(root / "src"))
        try:
            pc = importlib.import_module("paircheck")
            explore, config = pc.explore, pc.ExplorationConfig
            racy_pair, disjoint = pc.parse(racy), pc.disjoint_pair(60)
        finally:
            sys.path.remove(str(root / "src"))
        self.cases = {
            name: (explore, pair, config(digest_mode=digest_mode))
            for name, pair, digest_mode in zip(
                CASES, (racy_pair, racy_pair, disjoint, disjoint), (False, True) * 2)
        }
        self.modules = _own_modules()

    def time(self, case: str) -> float:
        """Seconds one ``explore`` call of ``case`` takes, this tree's modules in place."""
        sys.modules.update(self.modules)
        explore, pair, cfg = self.cases[case]
        gc.collect()
        start = time.perf_counter()
        explore(pair, cfg)
        return time.perf_counter() - start


def compare(parent: Path, change: Path, pairs: int) -> list[str]:
    """One line per case: both trees' median time and the change/parent ratio's quartiles."""
    racy = _racy_source(1, 80)
    trees = Tree(parent, racy), Tree(change, racy)
    for tree in trees:  # warm up: the first search of a tree fills its memos
        for case in CASES:
            tree.time(case)
    times: dict[str, tuple[list[float], list[float]]] = {case: ([], []) for case in CASES}
    for k in range(pairs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        for case in CASES:
            for side in order:
                times[case][side].append(trees[side].time(case))
    lines = []
    for case in CASES:
        old, new = times[case]
        ratios = [b / a for a, b in zip(old, new)]
        low, mid, high = statistics.quantiles(ratios, n=4, method="inclusive")
        lines.append(f"{case}: parent {statistics.median(old) * 1e3:.2f} ms, "
                     f"change {statistics.median(new) * 1e3:.2f} ms, change/parent "
                     f"{mid:.3f} (IQR {low:.3f}-{high:.3f}) over {pairs} pairs")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="same_speed.py", description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=50, help="pairs of runs (at least 2)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sys.dont_write_bytecode = True
    for line in compare(args.parent, args.change, args.pairs):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
