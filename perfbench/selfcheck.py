"""Smoke self-check of the benchmark: every workload at a tiny size.

Run from the root of a source checkout:

    python3 perfbench/selfcheck.py

For each workload it runs one untraced run and two traced runs in child
processes, the traced ones under PYTHONHASHSEED 0 and 1. It checks that
every op passed, that each run reports exactly the metrics BENCHMARK.json
names, and that the count metrics and the outputs digest are identical
across the two hash seeds. Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
TIMEOUT_S = 170


def run(workload: str, trace: int, hash_seed: str) -> tuple[dict, dict]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for trace, hash_seed in ((0, "0"), (1, "0"), (1, "1")):
            info, result = run(workload, trace, hash_seed)
            runs[trace, hash_seed] = (info, result)
            label = f"{workload} trace={trace} PYTHONHASHSEED={hash_seed}"
            if not result["correct"] or result["failed"] or info["outcomes"]["budget_exceeded"]:
                problems.append(f"{label}: failed ops {info['failures']}")
            if set(result["metrics"]) != names[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ names[trace])}")
        (info_a, result_a), (info_b, result_b) = runs[1, "0"], runs[1, "1"]
        digests = {info["outputs_digest"] for info, _ in runs.values()}
        if len(digests) != 1:
            problems.append(f"{workload}: outputs_digest differs between runs: {sorted(digests)}")
        counts = [name for name, m in result_a["metrics"].items() if m["unit"] == "count"]
        for name in counts:
            a, b = result_a["metrics"][name]["value"], result_b["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} is {a} under hash seed 0, {b} under 1")
        print(f"{workload}: digest {info_a['outputs_digest'][:16]}, "
              f"{len(counts)} counts compared, {info_a['ops_per_pass']} ops per pass")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
