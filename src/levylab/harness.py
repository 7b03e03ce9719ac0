"""Experiment orchestration: config ingestion, execution, persistence.

Determinism contract: a fixed (config, seed) pair produces byte-identical
CSV output across runs and across worker counts.  Every experiment draws
from its own SFC64 stream, seeded through `SeedSequence` from the SHA-256 of
the seed and the experiment's name (unique within a config, defaulting to
its operation), and rows are written in config order, so parallel
scheduling never reaches the output.
Wall-clock times are reported only in the JSON detail, never in the CSV.
"""

import csv
import ctypes
import fnmatch
import hashlib
import json
import numbers
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .measures import DEFAULT_CONFIDENCE
from .rng import ALGORITHM
from .suite import PARAMETERS, REGISTRY

CSV_COLUMNS = ("experiment", "op", "param_hash", "mean", "stderr", "n", "target", "verdict", "seconds")


class ConfigError(ValueError):
    """The configuration file failed to parse or validate."""


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    operation: str
    parameters: dict = field(default_factory=dict)
    samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.operation not in REGISTRY:
            raise ConfigError(
                f"experiment {self.name!r}: unknown operation {self.operation!r}"
            )
        if self.samples < 100:
            raise ConfigError(f"experiment {self.name!r}: samples must be >= 100")

    @property
    def param_hash(self) -> str:
        payload = json.dumps(
            {
                "operation": self.operation,
                "parameters": self.parameters,
                "samples": self.samples,
                "seed": self.seed,
                # the band level stays in the payload: the hash keys every CSV row
                "confidence": DEFAULT_CONFIDENCE,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class RunRecord:
    spec: ExperimentSpec
    rows: list
    seconds: float
    error: str | None = None  # traceback of an experiment that raised


_TOP_KEYS = {"seed", "workers", "experiments"}
_EXP_KEYS = {"name", "operation", "parameters", "samples"}


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)  # JSON true is a bool


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _check_workers(workers):
    if not (_is_int(workers) and workers >= 1):
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")


def _check_parameters(i, operation, params):
    """Every key is one the operation reads (see suite.PARAMETERS), with an
    integer for its value: each is a count."""
    reads = PARAMETERS.get(operation, ())
    unread = set(params) - set(reads)
    if unread:
        raise ConfigError(
            f"experiment #{i}: {operation} reads no parameters {sorted(unread)}; "
            f"it reads {list(reads) or 'none'}"
        )
    for key, value in params.items():
        if not _is_int(value):
            raise ConfigError(
                f"experiment #{i}: parameter {key!r} must be an integer, got {value!r}"
            )


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read the config: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "seed" in raw and not _is_int(raw["seed"]):
        raise ConfigError("seed must be an integer")
    if "workers" in raw:
        _check_workers(raw["workers"])
    experiments = raw.get("experiments", [])
    if not (isinstance(experiments, list) and all(isinstance(e, dict) for e in experiments)):
        raise ConfigError("experiments must be a list of objects")
    names = set()
    for i, exp in enumerate(experiments):
        bad = set(exp) - _EXP_KEYS
        if bad:
            raise ConfigError(f"experiment #{i}: unknown keys {sorted(bad)}")
        if "operation" not in exp:
            raise ConfigError(f"experiment #{i}: missing 'operation'")
        if not (isinstance(exp["operation"], str) and exp["operation"] in REGISTRY):
            raise ConfigError(f"experiment #{i}: unknown operation {exp['operation']!r}")
        if not isinstance(exp.get("parameters", {}), dict):
            raise ConfigError(f"experiment #{i}: parameters must be an object")
        _check_parameters(i, exp["operation"], exp.get("parameters", {}))
        if "samples" in exp and not (_is_int(exp["samples"]) and exp["samples"] >= 100):
            # only the scaled count is floored at 100
            raise ConfigError(f"experiment #{i}: samples must be an integer >= 100")
        name = exp.get("name", exp["operation"])
        if name in names:
            # the name keys the experiment's random stream
            raise ConfigError(f"experiment #{i}: duplicate name {name!r}")
        names.add(name)
    return raw


def _execute(spec: ExperimentSpec) -> RunRecord:
    t0 = time.perf_counter()
    try:
        rows = REGISTRY[spec.operation](spec.parameters, spec.samples, spec.seed, spec.name)
        return RunRecord(spec, rows, time.perf_counter() - t0)
    except Exception:  # recorded with its traceback, run continues
        return RunRecord(spec, [], time.perf_counter() - t0, error=traceback.format_exc())


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


# (get, set) thread-count functions of OpenBLAS builds; numpy's wheels
# bundle one whose symbols carry the scipy_openblas prefix and a 64_ suffix
_BLAS_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


def _blas_threads():
    """(library file, get, set) of the BLAS loaded in this process, found
    among its mapped files (Linux); None when none exports a known setter."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    for path in sorted({line.split()[-1] for line in maps if "blas" in line.lower()}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _BLAS_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                get, set_ = getattr(lib, get), getattr(lib, set_)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return Path(path).name, get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Pin BLAS to one thread and restore its count on exit, so worker
    threads do not each start a full BLAS pool on a shared core budget.
    Yields the library and its pinned thread count, or None (no-op) when no
    setter is found."""
    found = _blas_threads()
    if found is None:
        yield None
        return
    library, get, set_ = found
    before = get()
    set_(1)
    try:
        yield {"library": library, "threads": get(), "threads_outside_run": before}
    finally:
        set_(before)


def run(
    config_path,
    seed: int | None = None,
    samples_scale: float = 1.0,
    out_dir=".",
    name_filter: str | None = None,
    workers: int | None = None,
) -> dict:
    """Execute a config; returns a summary dict with the written paths and
    the exit code (0 clean, 1 when any experiment failed or errored).
    `workers` overrides the config's "workers" (default 1)."""
    raw = load_config(config_path)
    base_seed = int(seed if seed is not None else raw.get("seed", 0))
    out = Path(out_dir)
    workers = workers if workers is not None else raw.get("workers", 1)
    _check_workers(workers)
    if not (_is_number(samples_scale) and 0 < samples_scale < float("inf")):
        raise ConfigError(f"samples_scale must be a finite number > 0, got {samples_scale!r}")
    specs = []
    for exp in raw.get("experiments", []):
        op = exp["operation"]
        name = exp.get("name", op)
        samples = exp.get("samples", 1000) * samples_scale
        if not samples < 2.0**63:  # also false for inf and nan
            raise ConfigError(
                f"experiment {name!r}: samples times samples_scale is {samples!r}, "
                "not a finite count below 2^63"
            )
        specs.append(
            ExperimentSpec(
                name=name,
                operation=op,
                parameters=exp.get("parameters", {}),
                samples=max(100, int(samples)),
                seed=base_seed,
            )
        )
    if name_filter:
        specs = [s for s in specs if fnmatch.fnmatch(s.name, name_filter)]
        if not specs:
            raise ConfigError(f"filter {name_filter!r} matches no experiment")

    with _one_blas_thread() as blas:
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(_execute, specs))
        else:
            records = [_execute(s) for s in specs]

    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "summary.csv"
    json_path = out / "detail.json"
    lines = [CSV_COLUMNS]
    counts = {"pass": 0, "fail": 0, "inconclusive": 0, "error": 0, "info": 0}
    for rec in records:
        rows = rec.rows if rec.error is None else [{"op": "error", "verdict": "error"}]
        for row in rows:
            verdict = row.get("verdict")
            counts[verdict if verdict in counts else "info"] += 1
            stats = [_fmt(row.get(k)) for k in ("mean", "stderr", "n", "target")]
            # wall time kept out of the CSV for determinism
            lines.append(
                [rec.spec.name, str(row["op"]), rec.spec.param_hash, *stats, verdict or "", ""]
            )
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(lines)
    detail = {
        "version": __version__,
        "rng_algorithm": ALGORITHM,
        "seed": base_seed,
        "confidence": DEFAULT_CONFIDENCE,
        "workers": workers,
        "blas": blas,
        "counts": counts,
        "experiments": [
            {
                "name": rec.spec.name,
                "operation": rec.spec.operation,
                "param_hash": rec.spec.param_hash,
                "samples": rec.spec.samples,
                "seconds": rec.seconds,
                "error": rec.error,
                "rows": [
                    {k: row.get(k) for k in ("op", "mean", "stderr", "n", "target", "verdict")}
                    for row in rec.rows
                ],
            }
            for rec in records
        ],
    }
    json_path.write_text(json.dumps(detail, indent=2) + "\n")
    exit_code = 1 if (counts["fail"] or counts["error"]) else 0
    return {
        "csv": csv_path,
        "json": json_path,
        "counts": counts,
        "exit_code": exit_code,
        "records": records,
    }

