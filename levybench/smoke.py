"""Tiny-scale smoke test of the benchmark.

    python3 levybench/smoke.py

Runs every workload (paper_suite too, which BENCHMARK.json does not gate)
at a small sample scale with tracing off and on, and checks that each run
exits 0 with a correct result that carries every metric named in
BENCHMARK.json, each with its unit.  Exits 1 if any run fails the check.
Takes about a minute and a half on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.05"


def check(workload: str, trace: int, expected: list) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--scale", SCALE]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if res.returncode != 0:
        return [f"exit code {res.returncode}: {res.stderr.strip()[-2000:]}"]
    result = json.loads(res.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in WORKLOADS:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            problems = check(workload, trace, expected)
            print(f"{workload:20s} trace={trace} {'ok' if not problems else 'FAIL'}", flush=True)
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
