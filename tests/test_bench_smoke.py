"""The benchmark harness runs one tiny workload and reports every gated metric."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _listing(directory: pathlib.Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir()) if directory.is_dir() else []


def test_tiny_ring_benchmark_runs():
    out_dir = ROOT / "perfbench" / "out"
    before = _listing(out_dir)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring", "--size", "tiny",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"] for m in declared} <= set(result["metrics"])
    assert _listing(out_dir) == before
