"""Smoke test of the benchmark: every workload at minimal size.

Each workload runs once untraced and once traced on a 70 s scene for one
second of operations; every metric that BENCHMARK.json names must be
printed with its unit, and the benchmark must refuse to run without the
package sources.  Takes about a minute:

    python3 perfbench/smoke_test.py
    python3 -m pytest perfbench/smoke_test.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--duration", "70"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)


def check_workload(workload: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert set(result["metrics"]) == set(expected), (
            set(result["metrics"]) ^ set(expected))
        for name, unit in expected.items():
            metric = result["metrics"][name]
            assert metric["unit"] == unit, (name, metric)
            assert isinstance(metric["value"], (int, float)), (name, metric)
            assert math.isfinite(metric["value"]), (name, metric)
            if key == "end_to_end":
                assert metric["value"] > 0, (name, metric)


def test_radar_cli():
    check_workload("radar-cli")


def test_audio_cli():
    check_workload("audio-cli")


def test_wire_ingest():
    check_workload("wire-ingest")


def test_refuses_without_sources():
    bare = BENCH_DIR / "work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_radar_cli, test_audio_cli, test_wire_ingest, test_refuses_without_sources):
        test()
        print(f"ok {test.__name__}")
