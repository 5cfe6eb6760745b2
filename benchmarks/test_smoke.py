"""Self-test of the benchmark on tiny inputs; finishes in seconds.

Run from the repository root with ``python3 -m pytest benchmarks -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import gen
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((gen.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = gen.REPO_ROOT, script: Path = RUN):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_smoke_runs_report_every_metric_correctly():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"]: m["unit"] for m in SPEC[section]}
        proc = run_bench("--workload", "all", "--seed", "3", "--seconds", "0.2",
                         "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stderr
        for workload in WORKLOADS:
            got = {
                key.split("/", 1)[1]: value["unit"]
                for key, value in result["metrics"].items()
                if key.startswith(workload + "/")
            }
            assert got == names, workload


def test_inputs_depend_only_on_the_seed():
    assert gen.racy_source(5, 40) == gen.racy_source(5, 40) != gen.racy_source(6, 40)
    assert gen.c_source(5, 4) == gen.c_source(5, 4) != gen.c_source(6, 4)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(gen.REPO_ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "exhaustive", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path, script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
