"""Seeded input generators for the benchmark.

Each generator is a pure function of its seed and size, so the same seed
always gives the same bytes.  Run as a script to write one input file::

    python3 benchmarks/gen.py disjoint --n 60 -o pair.toy
    python3 benchmarks/gen.py racy --seed 7 --length 80 -o racy.toy
    python3 benchmarks/gen.py csource --seed 7 --kib 512 -o src.c

``csource`` also writes ``<output>.expected``: the source with a hook
inserted exactly where the instrumenter's documented rules place one, so
a check can compare the instrumenter's output byte for byte.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
HOOK = "hook(); "  # default hook token plus the one space the instrumenter adds


def import_paircheck():
    """Import the package from the checkout's ``src`` tree."""
    src = REPO_ROOT / "src"
    if not (src / "paircheck" / "__init__.py").is_file():
        raise FileNotFoundError(f"no paircheck sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import paircheck

    return paircheck


def disjoint_source(n: int) -> str:
    """The paper's pruning benchmark program, 2n thread-disjoint variables."""
    pc = import_paircheck()
    return pc.render(pc.disjoint_pair(n))


# ---------------------------------------------------------------------------
# racy-digest: a two-thread program whose schedules disagree everywhere
# ---------------------------------------------------------------------------

RACY_VARS = 4
RACY_SEMS = 2
_EMITS = ("ab", "xy")  # thread-distinct characters, so outputs always race


def racy_source(seed: int, length: int) -> str:
    """Two threads of ``length`` statements over 4 shared variables.

    Assignments mix ``+ - *``; each thread emits its own characters; ``down(i)``
    and ``up(i); down(i)`` pairs use 2 semaphores.  Every ``up`` is followed
    by a ``down`` of the same semaphore in the same thread, so a thread can
    only wait on a semaphore the other thread is about to lower: the program
    never deadlocks or blocks forever, and its verdict is always a race.
    """
    rng = random.Random(seed)
    lines = [f"var v{k} = {rng.randint(-9, 9)};" for k in range(RACY_VARS)]
    lines.append(f"semaphores {RACY_SEMS};")
    # Fixed statement mix per thread; the seed moves only order and operands,
    # which keeps the search cost close across seeds.
    pairs, downs, emits = length // 20, length // 10, length // 4
    units = ["pair"] * pairs + ["down"] * downs + ["emit"] * emits
    units += ["assign"] * (length - 2 * pairs - downs - emits)
    for tid in (0, 1):
        rng.shuffle(units)
        body: list[str] = []
        for unit in units:
            if unit == "assign":
                a, b, c = (rng.randrange(RACY_VARS) for _ in range(3))
                op1, op2 = rng.choice("+-*"), rng.choice("+-")
                body.append(f"v{a} = v{b} {op1} v{c} {op2} {rng.randint(1, 99)};")
            elif unit == "emit":
                body.append(f'emit "{rng.choice(_EMITS[tid])}";')
            elif unit == "down":
                body.append(f"down({rng.randrange(RACY_SEMS)});")
            else:
                sem = rng.randrange(RACY_SEMS)
                body += [f"up({sem});", f"down({sem});"]
        lines.append(f"thread{tid} {{")
        lines += ["  " + stmt for stmt in body]
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# instrument-roundtrip: C-like source full of things a hook must not enter
# ---------------------------------------------------------------------------


class _CWriter:
    """Builds the source and its expected instrumentation side by side."""

    def __init__(self) -> None:
        self.src: list[str] = []
        self.expected: list[str] = []
        self.size = 0

    def raw(self, text: str) -> None:
        self.src.append(text)
        self.expected.append(text)
        self.size += len(text)

    def stmt(self, indent: str, text: str, hooked: bool, lead: str = "") -> None:
        """One statement line; ``lead`` is a comment before its first token."""
        self.raw(indent + lead)
        if hooked:
            self.expected.append(HOOK)
        self.raw(text + "\n")


def _simple_statement(w: _CWriter, rng: random.Random, indent: str, uid: int) -> None:
    """One statement ending in ``;``, hooked or not, or one comment."""
    roll = rng.randrange(9)
    lead = f"/* c{uid} {{ ; }} */ " if rng.random() < 0.15 else ""
    if roll == 0:
        w.stmt(indent, f"v{uid % 7} = v{uid % 5} + {rng.randint(0, 999)};", True, lead)
    elif roll == 1:
        w.stmt(indent, f'msg = "S{uid} {{ ; }} \\"q;\\" {{";', True, lead)
    elif roll == 2:
        ch = rng.choice(["'{'", "'}'", "';'", "'\\''", "'('"])
        w.stmt(indent, f"ch{uid % 3} = {ch};", True, lead)
    elif roll == 3:
        w.stmt(indent, f'log_{uid % 11}("a;b{{c}}", (v1 + {uid}), \';\');', True, lead)
    elif roll == 4:
        kw = rng.choice(["int", "unsigned", "const char *", "static long"])
        init = f'"d{uid};{{"' if kw.startswith("const") else str(uid)
        w.stmt(indent, f"{kw} t{uid} = {init};", False, lead)
    elif roll == 5:
        w.raw(f"{indent}// line {uid}; {{ }} ( \"\n")
    elif roll == 6:
        w.raw(f"{indent}/* block {uid}\n{indent}   {{ ; }} ' \" */\n")
    elif roll == 7:
        w.stmt(indent, f"v{uid % 7} = f{uid % 13}(v2 * {uid}, '{{', \"}}\");", True, lead)
    else:
        w.stmt(indent, f"total += v{uid % 7} - {uid};", True, lead)


def _compound_statement(w: _CWriter, rng: random.Random, uid: int) -> None:
    """A loop or branch; its body statements are hooked, continuations not."""
    ind, inner = "    ", "        "
    roll = rng.randrange(3)
    if roll == 0:
        w.stmt(ind, f"for (i = 0; i < {uid % 97 + 1}; i++) {{", True)
    elif roll == 1:
        w.stmt(ind, f'if (strcmp(msg, "{uid};{{") == 0) {{', True)
    else:
        w.stmt(ind, "do {", True)
    for k in range(rng.randint(1, 4)):
        _simple_statement(w, rng, inner, uid * 10 + k)
    if roll == 1 and rng.random() < 0.6:
        w.stmt(ind, "} else {", False)
        _simple_statement(w, rng, inner, uid * 10 + 7)
        w.raw(ind + "}\n")
    elif roll == 2:
        w.stmt(ind, f"}} while (v{uid % 7} < {uid});", False)
    else:
        w.raw(ind + "}\n")


def c_source(seed: int, kib: int) -> tuple[str, str]:
    """C-like source of about ``kib`` KiB and its expected instrumentation."""
    rng = random.Random(seed)
    w = _CWriter()
    w.raw(f"/* generated, seed {seed} {{ ; }} */\n#include <stdio.h>\n\n")
    uid = 0
    while w.size < kib * 1024:
        uid += 1
        w.raw(f"static int g{uid} = {rng.randint(0, 99)};\n")
        w.raw(f"int fn{uid}(int a, const char *s) {{\n")
        for _ in range(rng.randint(8, 30)):
            uid += 1
            if rng.random() < 0.2:
                _compound_statement(w, rng, uid)
            else:
                _simple_statement(w, rng, "    ", uid)
        if rng.random() < 0.3:
            w.stmt("    ", "done();", False)
        w.stmt("    ", f"return v{uid % 7};", True)
        w.raw("}\n\n")
    return "".join(w.src), "".join(w.expected)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("disjoint", "racy", "csource"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=60, help="disjoint: statements per thread")
    parser.add_argument("--length", type=int, default=80, help="racy: statements per thread")
    parser.add_argument("--kib", type=int, default=512, help="csource: approximate size")
    parser.add_argument("-o", dest="output", required=True, metavar="FILE")
    args = parser.parse_args(argv)
    out = Path(args.output)
    if args.kind == "disjoint":
        out.write_text(disjoint_source(args.n), encoding="utf-8")
    elif args.kind == "racy":
        out.write_text(racy_source(args.seed, args.length), encoding="utf-8")
    else:
        src, expected = c_source(args.seed, args.kib)
        out.write_text(src, encoding="utf-8")
        Path(f"{out}.expected").write_text(expected, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
