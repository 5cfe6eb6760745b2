"""Run the ``paircheck`` command line and record this process's own peak RSS.

Usage: ``python3 benchmarks/launch.py PEAK_FILE ARG...`` behaves like
``python3 -m paircheck ARG...`` and, as it exits, writes the process's
``VmHWM`` (KiB) to ``PEAK_FILE``.

The parent cannot take this figure from ``os.wait4``: a child started with
vfork, as ``subprocess`` does, inherits the parent's high-water RSS into its
``ru_maxrss`` at exec, so small children would report the parent's peak.
``VmHWM`` belongs to the memory map made at exec and so counts only this
process.
"""

from __future__ import annotations

import runpy
import sys


def peak_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    peak_file = sys.argv[1]
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    del sys.path[0]  # this directory; the CLI sees the path ``-m`` would give
    try:
        runpy.run_module("paircheck", run_name="__main__", alter_sys=True)
    finally:
        with open(peak_file, "w", encoding="ascii") as out:
            out.write(f"{peak_kib()}\n")


if __name__ == "__main__":
    main()
