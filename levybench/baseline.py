"""Repeat the benchmark over seeds and record medians, spreads and facts.

    python3 levybench/baseline.py --seeds 1-10 \
        --workloads face_exits,full_support_paths,paper_suite --out levybench/baseline.json

Runs `run.py` once per (workload, seed) with tracing off, one traced run per
workload, and reports for each end-to-end metric the median, the quartiles
and the spread (interquartile distance over the median) next to its bound
from BENCHMARK.json.  A spread at or above a third of the bound is marked
unsteady; only workloads listed in BENCHMARK.json count toward the exit
status.
The facts section records the numbers ROADMAP item 1 asks the first bench
to confirm; it needs paper_suite among the workloads.  Runs are sequential, never in parallel.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_TRACE = 7


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if res.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    lines = [json.loads(line) for line in res.stdout.strip().splitlines()]
    out = lines[-1]
    out["environment"] = lines[0]["environment"]
    out["raw"] = next((line["raw"] for line in lines if "raw" in line), None)
    out["run_s"] = time.perf_counter() - t0
    return out


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def facts(spans_file: Path, layer_metrics: dict) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import layers
    import tracing

    spans = json.loads(spans_file.read_text())["spans"]
    return {
        "sample_increments_share_of_reduced_projection": tracing.share_within(
            spans, "suite.reduced_projection", "measures.sample_increments"
        ),
        "normal_ns": {
            "philox": layers.normal_ns(np.random.Philox(key=layers.SEED)),
            "pcg64": layers.normal_ns(np.random.PCG64(layers.SEED)),
            "sfc64": layers.normal_ns(np.random.SFC64(layers.SEED)),
        },
        "scipy_stats_share_of_import": layer_metrics["harness.import_scipy_stats_frac"],
        "verdict_us": layer_metrics["measures.verdict_us"],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out", default=None, help="write the report here as JSON")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    gated = {w["name"] for w in spec["workloads"]}
    seconds = spec["run_seconds"]
    report = {"seeds": seed_list(args.seeds), "run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, seconds, 0) for s in report["seeds"]]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "run_s": max(r["run_s"] for r in runs),
            "raw": [r["raw"] for r in runs],
            "environment": runs[0]["environment"],
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            s["steady"] = s["spread"] < bound / 3
            if workload in gated:
                steady &= s["steady"] and entry["correct"]
            entry["end_to_end"][name] = s
            print(f"{workload:20s} {name:18s} median {s['median']:.6g} spread {s['spread']:.4f}"
                  f" bound {bound} {'ok' if s['steady'] else 'UNSTEADY'}", flush=True)
        print(f"{workload:20s} correct {entry['correct']} failed {sum(entry['failed'])}"
              f" longest run {entry['run_s']:.1f}s{'' if workload in gated else ' (not in BENCHMARK.json)'}",
              flush=True)
        traced_run = run_once(workload, SEED_TRACE, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced_run["metrics"].items()}
        entry["per_layer_correct"] = traced_run["correct"]
        entry["per_layer_run_s"] = traced_run["run_s"]
        if workload == "paper_suite":
            report["facts"] = facts(
                ROOT / ".levybench" / f"trace-paper_suite-{SEED_TRACE}.json", entry["per_layer"]
            )
        report["workloads"][workload] = entry
    report["steady"] = steady
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
