"""paircheck benchmark: time to verdict, throughput and memory, plus a layer trace.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload racy-digest --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 benchmarks/run.py --workload all --seed 1 --seconds 1 --trace 0 --smoke

Workloads are listed in ``BENCHMARK.json`` with the reason each was chosen.
Inputs come from ``--seed`` (see ``gen.py``).  One child process runs at a
time; every output is checked after the child exits.

``--trace 0`` measures end to end with no tracing.  The window of ``--seconds``
alternates timed invocations with set-up invocations (``--max-steps 0``, or
instrumenting an empty file), after one untimed warm-up invocation:

* ``verdict_s``: seconds from child start to exit (instrument plus strip on
  instrument-roundtrip);
* ``stmts_per_s``: statements executed (hooked, on instrument-roundtrip)
  per verdict second;
* ``src_mib_per_s``: input source MiB per verdict second;
* ``peak_rss_mib``: the child's own peak RSS (``VmHWM``, see ``launch.py``);
* ``setup_s``: seconds of a set-up invocation.

Seconds are wall seconds scaled to the nominal machine speed measured around
each invocation (``speed.py``).  Each value is the median over the window;
quartiles, sample counts, raw wall seconds, child CPU time and wait time (wall
minus CPU) are printed above the result line.

``--trace 1`` runs the per-layer trace of ``layers.py`` in this process, after
a few CLI invocations that give ``cli.wait_s``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details of every sample, and the spans of a
traced run, go to ``.bench_work/results/``.  Exits 2 without a result when
the ``src`` tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import layers  # noqa: E402
from workloads import SIZES, WORKLOADS, CheckWorkload, Sample  # noqa: E402

WORK_DIR = gen.REPO_ROOT / ".bench_work"
MIB = 1024 * 1024
CLI_SAMPLES_TRACED = 3

END_TO_END = {
    "verdict_s": "s",
    "stmts_per_s": "1/s",
    "src_mib_per_s": "MiB/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def measure(wl, seconds: float) -> tuple[list[Sample], list[Sample]]:
    """Warm up once, then alternate timed and set-up invocations for ``seconds``."""
    warm = wl.invoke()
    timed: list[Sample] = []
    setups: list[Sample] = [warm]  # counted as attempted, not as a timing
    deadline = time.perf_counter() + seconds
    while not timed or time.perf_counter() < deadline:
        timed.append(wl.invoke())
        setups.append(wl.invoke(setup=True))
    return timed, setups


def end_to_end(wl, pc, seconds: float) -> tuple[dict, dict, list[str | None]]:
    timed, setups = measure(wl, seconds)
    ok = [s for s in timed if s.error is None] or timed
    series = {
        "verdict_s": [s.nominal_s for s in ok],
        "stmts_per_s": [s.statements / s.nominal_s for s in ok],
        "src_mib_per_s": [wl.source_bytes / MIB / s.nominal_s for s in ok],
        "peak_rss_mib": [s.rss_mib for s in ok],
        "setup_s": [s.nominal_s for s in setups[1:]],
        "verdict_wall_s": [s.wall_s for s in ok],
        "setup_wall_s": [s.wall_s for s in setups[1:]],
        "child_cpu_s": [s.cpu_s for s in ok],
        "cli.wait_s": [s.wall_s - s.cpu_s for s in ok],
    }
    stats = {name: summary(values) for name, values in series.items()}
    metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in END_TO_END.items()}
    samples = timed + setups
    detail = {**stats, "samples": [vars(s) for s in samples]}
    return metrics, detail, [s.error for s in samples]


def traced(wl, pc, seconds: float) -> tuple[dict, dict, list[str | None]]:
    """Per-layer metrics, after a few CLI invocations that give ``cli.wait_s``."""
    samples = [wl.invoke() for _ in range(CLI_SAMPLES_TRACED)]
    spans = layers.Spans()
    layer = layers.trace_check if isinstance(wl, CheckWorkload) else layers.trace_instrument
    values, absent, error = layer(wl, pc, seconds, spans)
    values["cli.wait_s"] = statistics.median(s.wall_s - s.cpu_s for s in samples[1:])
    for name in layers.PER_LAYER:
        values.setdefault(name, 0)
    for name in absent:
        print(f"absent: {name} (reported as 0)", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER.items()}
    detail = {"absent": absent, "spans": spans.records, "samples": [vars(s) for s in samples]}
    return metrics, detail, [s.error for s in samples] + [error]


def run_workload(name: str, args, pc) -> dict:
    wl = WORKLOADS[name]
    work = WORK_DIR / name
    work.mkdir(parents=True, exist_ok=True)
    size = SIZES["smoke" if args.smoke else "full"][name]
    wl.prepare(work, args.seed, size)
    measure_run = traced if args.trace else end_to_end
    metrics, detail, errors = measure_run(wl, pc, args.seconds)
    failures = [error for error in errors if error is not None]
    result = {
        "correct": not failures,
        "attempted": len(errors),
        "failed": len(failures),
        "metrics": metrics,
    }
    for message in sorted(set(failures)):
        print(f"FAILED {name}: {message}", file=sys.stderr)
    record = {
        "workload": name,
        "seed": args.seed,
        "size": size,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "machine": platform.platform(),
        "result": result,
        "detail": detail,
    }
    results = WORK_DIR / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"# {name}: seed {args.seed}, size {size}, attempted {result['attempted']}, "
          f"failed_ratio {result['failed'] / result['attempted']:.3f}")
    for metric, value in metrics.items():
        extra = detail.get(metric) if not args.trace else None
        spread = (f"  q1 {extra['q1']:.6g}  q3 {extra['q3']:.6g}  n {extra['n']}" if extra else "")
        print(f"#   {metric:32s} {value['value']:>14.6g} {value['unit']:6s}{spread}")
    if not args.trace:
        for metric in ("verdict_wall_s", "setup_wall_s", "child_cpu_s", "cli.wait_s"):
            print(f"#   {metric:32s} {detail[metric]['median']:>14.6g} s       n {detail[metric]['n']}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    try:
        pc = gen.import_paircheck()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Children inherit this affinity: the speed kernel and every timed child
    # then run on the same CPU, whose speed is what the kernel measures.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload != "all":
        result = run_workload(args.workload, args, pc)
        print(json.dumps(result))
        return 0
    # Alternate the workload order between seeds, so no workload always runs
    # first on a machine whose load drifts.
    names = list(WORKLOADS) if args.seed % 2 == 0 else list(WORKLOADS)[::-1]
    results = {name: run_workload(name, args, pc) for name in names}
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": value
            for name in WORKLOADS
            for metric, value in results[name]["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
