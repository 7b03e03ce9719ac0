"""levylab benchmark: one command, three workloads, checked outputs.

    python3 levybench/run.py --workload face_exits --seed 1 --seconds 55 --trace 0

Run from anywhere inside a checkout of the repository; the library is
imported from the checkout's `src/`.  With `--trace 0` the last stdout line
is a JSON object with the end-to-end metrics named in BENCHMARK.json; with
`--trace 1` it carries the per-layer metrics instead.  An earlier stdout
line records the environment (nproc, Python, numpy, scipy, thread pins).
Scratch output goes to `.levybench/` at the checkout root.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here in a fresh probe interpreter

import os

# one BLAS thread per process, so a two-worker batch uses at most two
# compute threads; set before numpy is imported here or in any child
THREAD_PINS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".levybench"
WORKLOADS = ("paper_suite", "face_exits", "full_support_paths")
PROBES = 3  # fresh interpreters per traced run for harness.import_s
TINY_SCALE = 0.01  # sample scale of the repeat-determinism warm-up batches


def parse_args(argv):
    p = argparse.ArgumentParser(prog="levybench", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0, help="sample-count scale (smoke tests)")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe(args) -> dict:
    """Import the library and build the workload's inputs in this fresh
    interpreter; report both times from interpreter start."""
    import levylab.harness  # noqa: F401  (the whole library, as `levylab run` loads it)

    import_s = time.perf_counter() - T0
    import workloads

    SCRATCH.mkdir(exist_ok=True)
    workloads.prepare(args.workload, ROOT, args.seed, args.scale, SCRATCH)
    return {"import_s": import_s, "setup_s": time.perf_counter() - T0}


def setup_probe(args) -> dict:
    """import_s and setup_s of one fresh interpreter (`probe`)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--scale", str(args.scale)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def import_scipy_stats_frac() -> float:
    """scipy.stats share of the cumulative import time of levylab.harness."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import levylab.harness"],
        capture_output=True, text=True, timeout=120, check=True, env=env,
    )
    cumulative = {}
    for line in res.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]))
    return cumulative.get("scipy.stats", 0) / cumulative["levylab.harness"]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREAD_PINS,
        "max_workers": 2,
    }


def tally(batches) -> tuple:
    """(verdict rows attempted, fail + error rows) over the batches."""
    rows = [r for b in batches for r in b.rows if r.verdict != "info"]
    return len(rows), sum(r.verdict in ("fail", "error") for r in rows)


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.  ru_maxrss is not used:
    Linux carries the parent's peak into it across fork and exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def geo_mean_var(batch) -> float:
    logs = [2.0 * math.log(r.stderr) for r in batch.rows if r.stderr > 0]
    return math.exp(sum(logs) / len(logs))


def timed(args, workloads) -> tuple:
    """End-to-end metrics.  Each round of the timed loop runs one full
    batch at workers=1, and every other round, the first included, also one
    set-up probe, until the next round would overrun --seconds.  Batch and
    set-up times are taken at the reference speed (clock.py); the raw times
    are printed on their own line.  paper_suite also runs one batch at
    workers=2 through the harness's thread pool, for the determinism check."""
    from clock import REF_IMPORT_S, PlainClock, SpeedClock, reference_import

    tiny = workloads.prepare(args.workload, ROOT, args.seed, TINY_SCALE, SCRATCH)
    repeat = [tiny.run(PlainClock()) for _ in range(2)]  # also warms caches
    prepared = workloads.prepare(args.workload, ROOT, args.seed, args.scale, SCRATCH)
    clock = SpeedClock()
    batches, setup, reference = [], [], []
    start = time.perf_counter()
    while True:
        batches.append(prepared.run(clock))
        if len(batches) % 2:  # set-up probes take longer than a path batch
            reference.append(reference_import())
            setup.append(setup_probe(args)["setup_s"])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(batches) > args.seconds:
            break
    raw = {
        "wall_s": [b.wall_s for b in batches],
        "scaled_s": [b.scaled_s for b in batches],
        "setup_s": setup,
        "reference_import_s": reference,
    }
    checked = batches
    if isinstance(prepared, workloads.PaperSuite):
        w2 = prepared.run(clock, workers=2)
        raw["wall_s_w2"], raw["scaled_s_w2"] = w2.wall_s, w2.scaled_s
        checked = batches + [w2]
    deterministic = (
        repeat[0].fingerprint == repeat[1].fingerprint
        and len({b.fingerprint for b in checked}) == 1
    )
    wall_s = statistics.median(b.scaled_s for b in batches)
    metrics = {
        "wall_s": wall_s,
        "setup_s": REF_IMPORT_S * statistics.median(s / r for s, r in zip(setup, reference)),
        "cost_per_variance": wall_s * geo_mean_var(batches[0]),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(json.dumps({"raw": raw}))
    return metrics, checked, deterministic


def traced(args, workloads) -> tuple:
    """Per-layer metrics: micro-timings, suite and harness times from one
    untraced paper_suite harness run at workers=1, and span summaries of one
    traced batch of the workload next to an untraced one (their difference
    is the overhead)."""
    import layers
    import tracing
    from clock import PlainClock

    metrics = {
        "harness.import_s": statistics.median(setup_probe(args)["import_s"] for _ in range(PROBES)),
        "harness.import_scipy_stats_frac": import_scipy_stats_frac(),
    }
    metrics.update(layers.measure())

    clock = PlainClock()  # probes between units would land inside the root span
    suite_run = workloads.prepare("paper_suite", ROOT, args.seed, args.scale, SCRATCH)
    suite_batch = suite_run.run(clock)
    for rec in suite_run.records:
        metrics[f"suite.{rec.spec.name}_s"] = rec.seconds
    metrics["harness.self_s"] = suite_batch.wall_s - sum(rec.seconds for rec in suite_run.records)
    if args.workload == "paper_suite":
        plain, batches = suite_batch, [suite_batch]
    else:
        plain = workloads.prepare(args.workload, ROOT, args.seed, args.scale, SCRATCH).run(clock)
        batches = [suite_batch, plain]

    tracer = tracing.Tracer()
    with tracer.patched(extra_modules=[workloads]):
        prepared = workloads.prepare(args.workload, ROOT, args.seed, args.scale, SCRATCH)
        tracer.spans.clear()
        with tracer.span("benchmark.batch", workload=args.workload, seed=args.seed):
            traced_batch = prepared.run(clock)
    metrics.update(tracing.summary(tracer.spans))
    metrics["trace.overhead_frac"] = traced_batch.wall_s / plain.wall_s - 1.0
    spans_path = SCRATCH / f"trace-{args.workload}-{args.seed}.json"
    spans_path.write_text(json.dumps({"run": tracer.run_id, "spans": tracer.spans}) + "\n")
    deterministic = traced_batch.fingerprint == plain.fingerprint
    return metrics, batches + [traced_batch], deterministic


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "levylab" / "__init__.py").is_file():
        print(f"levybench: no levylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        print(json.dumps(probe(args)))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    SCRATCH.mkdir(exist_ok=True)
    print(json.dumps({"environment": environment(), "workload": args.workload, "seed": args.seed}))

    import workloads

    metrics, batches, deterministic = (traced if args.trace else timed)(args, workloads)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"levybench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    attempted, failed = tally(batches)
    for b in batches:
        for r in b.rows:
            if r.verdict in ("fail", "error"):
                print(f"levybench: {r.verdict}: {r.label} mean={r.mean!r}", file=sys.stderr)
    if not deterministic:
        print("levybench: outputs differ between repeats or worker counts", file=sys.stderr)
    result = {
        "correct": bool(deterministic and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
