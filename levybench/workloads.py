"""The three benchmark workloads, built only from levylab's public API.

Each workload is prepared once from the workload seed (`prepare`) and then
run as a closed-loop batch (`run(clock)`), one estimator call after another;
the clock times each call.  `paper_suite` also runs at two workers through
the harness's thread pool.  Every estimator call draws from its own Philox
substream keyed by the seed, the workload and the task name, so a batch gives
identical numbers on every repeat (and, for `paper_suite`, at either worker
count); `Batch.fingerprint` carries those numbers for the determinism checks.
"""

import json
import tempfile
from functools import partial
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from levylab import JumpMeasure, LevyTriplet, McEstimate, brownian_triplet, make_space, substream
from levylab import dirichlet, harness, lyapunov, potential, suite
from levylab.space import build_growth_basis, canonical_x

DIM = 32
C1 = dirichlet.BoundaryData(lambda y: y[..., 0], name="c1")  # first coordinate as boundary data


@dataclass
class Row:
    """One checked output: an estimate (or a flag) and its verdict."""

    label: str
    mean: float
    stderr: float
    verdict: str  # pass | inconclusive | fail | error | info


@dataclass
class Batch:
    wall_s: float  # raw wall time of the batch
    scaled_s: float  # the same at the reference speed (clock.SpeedClock)
    rows: list
    fingerprint: bytes


def _est_row(label, est: McEstimate, verdict="info") -> Row:
    return Row(label, float(est.mean), float(est.stderr), verdict)


def _flag_row(label, ok: bool, value=None) -> Row:
    return Row(label, float(ok if value is None else value), 0.0, "pass" if ok else "fail")


def jump_triplet(model) -> LevyTriplet:
    """Unit Brownian part plus symmetric point-mass jumps in the first two
    coordinates (intensity 2), so every coordinate stays a martingale."""
    atoms = np.zeros((2, model.dim))
    atoms[0, :2] = (0.6, 0.5)
    atoms[1, :2] = (-0.6, -0.5)
    return LevyTriplet(
        model, np.zeros(model.dim), np.ones(model.dim),
        JumpMeasure(intensity=2.0, kind="pointmass", atoms=atoms),
    )


# -- paper_suite ----------------------------------------------------------------


class PaperSuite:
    """`levylab.harness.run` on the shipped paper_suite config: one harness
    run per batch, at one or two workers (the harness's own thread pool)."""

    def __init__(self, root: Path, seed: int, scale: float, scratch: Path):
        self.config = root / "src" / "levylab" / "configs" / "paper_suite.json"
        harness.load_config(self.config)  # validate before any timing
        self.seed = seed
        self.scale = scale
        self.scratch = scratch
        self.records = []  # harness records of the latest run, for per-layer timings

    def _harness(self, workers):
        with tempfile.TemporaryDirectory(dir=self.scratch) as out:
            res = harness.run(
                self.config, seed=self.seed, samples_scale=self.scale, out_dir=out, workers=workers
            )
            res["csv_bytes"] = Path(res["csv"]).read_bytes()
        return res

    def run(self, clock, workers: int = 1) -> Batch:
        (res,), wall, scaled = clock.time([lambda: self._harness(workers)])
        self.records = res["records"]
        rows = []
        for rec in self.records:
            if rec.error is not None:
                rows.append(Row(f"{rec.spec.name}:error", 0.0, 0.0, "error"))
                continue
            for r in rec.rows:
                rows.append(
                    Row(
                        f"{rec.spec.name}:{r['op']}",
                        float(r["mean"]) if r.get("mean") is not None else 0.0,
                        float(r["stderr"]) if r.get("stderr") is not None else 0.0,
                        r.get("verdict") or "info",
                    )
                )
        if res["exit_code"] != 0:
            rows.append(Row("harness_exit_code", float(res["exit_code"]), 0.0, "fail"))
        return Batch(wall, scaled, rows, res["csv_bytes"])


# -- path workloads ---------------------------------------------------------------


class PathWorkload:
    """A fixed list of estimator tasks; each task maps a generator to rows."""

    def __init__(self, name: str, seed: int, tasks):
        self.name = name
        self.seed = seed
        self.tasks = tasks  # list of (task name, callable(rng) -> list[Row])

    def run(self, clock) -> Batch:
        per_task, wall, scaled = clock.time(
            [partial(fn, substream(self.seed, "levybench", self.name, label)) for label, fn in self.tasks]
        )
        rows = [row for rows in per_task for row in rows]
        fingerprint = json.dumps(
            [(r.label, r.mean.hex(), r.stderr.hex(), r.verdict) for r in rows]
        ).encode()
        return Batch(wall, scaled, rows, fingerprint)


def _n(n: int, scale: float) -> int:
    return max(100, int(n * scale))


def _solve_rows(label, triplet, domain, f, z, n, cfg, rng, target):
    res = dirichlet.solve(triplet, domain, f, z, n, cfg, rng)
    return [
        _est_row(label, res.estimate, res.estimate.verdict(target)),
        # exit mass is a failure signal of its own: flagged means the horizon
        # truncated more than the solver's tolerated share of paths
        _flag_row(f"non_exit{label}", not res.flagged, res.non_exit_fraction),
    ]


def face_exits(seed: int, scale: float) -> PathWorkload:
    """Continuous Brownian paths at N=32 whose targets read one or two
    coordinates (slab and box faces, coordinate halfspaces)."""
    model = make_space(DIM)
    bm = brownian_triplet(model)
    tasks = []

    a, b, fa, fb = -1.0, 2.0, 3.0, -1.0
    slab = dirichlet.slab_domain(model, 1, a, b)
    f_faces = dirichlet.BoundaryData(
        lambda y: np.where(np.abs(y[..., 0] - a) < np.abs(y[..., 0] - b), fa, fb),
        bound=max(abs(fa), abs(fb)),
        name="slab_faces",
    )
    slab_cfg = potential.PathConfig(dt=0.01, horizon=40.0)
    for x in (-0.5, 0.5, 1.5):
        z = np.zeros(DIM)
        z[0] = x
        target = dirichlet.gambler_ruin_value(slab, fa, fb, x)
        tasks.append(
            (
                f"slab_ruin[x={x}]",
                lambda rng, z=z, x=x, target=target: _solve_rows(
                    f"[gambler_ruin,x={x}]", bm, slab, f_faces, z, _n(250, scale),
                    slab_cfg, rng, target,
                ),
            )
        )

    # linear data is harmonic, so the solution at z is z_1 (optional stopping)
    box = dirichlet.box_domain(model, [-1.0, -1.0], [1.0, 1.0])
    z_box = np.zeros(DIM)
    z_box[:2] = (0.3, -0.2)
    tasks.append(
        (
            "box2d",
            lambda rng: _solve_rows(
                "[box2d,c1]", bm, box, C1, z_box, _n(300, scale),
                potential.PathConfig(dt=0.01, horizon=40.0), rng, 0.3,
            ),
        )
    )

    one = lambda y: np.ones(y.shape[:-1])
    reduced_cfg = potential.PathConfig(dt=0.02, horizon=8.0)
    for label, M, M_proj in suite.reduced_projection_cases(model):

        def reduced(rng, M=M, M_proj=M_proj, label=label):
            n = _n(400, scale)
            _, samp = potential.reduced_function_family(
                bm, one, [M, M_proj], 1.0, np.zeros(DIM), n, reduced_cfg, rng
            )
            diff = McEstimate.from_samples(samp[1] - samp[0])
            return [
                _est_row(f"projection_gap[{label}]", diff, diff.verdict_at_least(0.0)),
                _flag_row(f"projection_per_sample[{label}]", bool(np.all(samp[1] >= samp[0] - 1e-12))),
            ]

        tasks.append((f"reduced[{label}]", reduced))

    # E[exp(-beta T)] for a unit Brownian coordinate crossing level 1 from 0
    beta, level, mass = 1.0, 1.0, 2.0
    half = potential.coord_halfspace(model, 1, level, +1)
    cloud = potential.PointCloud(np.zeros((1, DIM)), np.array([mass]))
    cap_target = mass / beta * np.exp(-level * np.sqrt(2.0 * beta))

    def cap(rng):
        est = potential.capacity(
            bm, cloud, half, beta, _n(300, scale), potential.PathConfig(dt=0.01, horizon=10.0), rng
        )
        return [_est_row("capacity_halfspace", est, est.verdict(cap_target))]

    tasks.append(("capacity_halfspace", cap))

    F_specs = [
        {"target": potential.coord_halfspace(model, 1, 1.5, +1), "inside": True},
        {"target": potential.coord_halfspace(model, 1, -1.0, -1), "inside": False},
    ]
    nu = potential.PointCloud(np.zeros((1, DIM)), np.array([1.0]))

    def balayage(rng):
        rep = potential.balayage_check(
            bm, nu, half, 1.0, F_specs, _n(400, scale),
            potential.PathConfig(dt=0.02, horizon=12.0), rng,
        )
        rows = [
            _est_row(f"balayage[{r['F']},inside={r['inside']}]", r["difference"], r["verdict"])
            for r in rep["rows"]
        ]
        rows.append(_flag_row("balayage_per_sample", rep["per_sample_inequality"]))
        rows.append(_flag_row("balayage_carrier", rep["carrier_ok"]))
        rows.append(_flag_row("balayage_nondegenerate", not rep["degenerate"]))
        return rows

    tasks.append(("balayage", balayage))
    return PathWorkload("face_exits", seed, tasks)


def full_support_paths(seed: int, scale: float) -> PathWorkload:
    """Path estimators that read every coordinate (E-ball exit, q_x level
    sets) or step a jump process, where no face shortcut applies."""
    model = make_space(DIM)
    bm = brownian_triplet(model)
    tasks = []

    # odd data on a centred ball from starts with c1 = 0: reflecting c1 maps
    # the ball and the start to themselves, so the symmetry oracle is 0
    ball = dirichlet.e_ball_domain(model, np.zeros(DIM), 1.0)
    ball_cfg = potential.PathConfig(dt=0.005, horizon=30.0)
    for c2 in (0.0, 0.3):
        z = np.zeros(DIM)
        z[1] = c2
        tasks.append(
            (
                f"eball_symmetry[c2={c2}]",
                lambda rng, z=z, c2=c2: _solve_rows(
                    f"[eball_symmetry,c2={c2}]", bm, ball, C1, z, _n(400, scale), ball_cfg, rng, 0.0
                ),
            )
        )

    # symmetric point-mass jumps keep c1 a martingale, so E[c1 at exit] = z_1
    # whatever the overshoot; jumps take the compound-Poisson branch each step
    jump = jump_triplet(model)
    jslab = dirichlet.slab_domain(model, 1, -1.0, 1.5)
    z_j = np.zeros(DIM)
    z_j[0] = 0.25
    tasks.append(
        (
            "jump_slab",
            lambda rng: _solve_rows(
                "[jump_slab,c1]", jump, jslab, C1, z_j, _n(1500, scale),
                potential.PathConfig(dt=0.01, horizon=40.0), rng, 0.25,
            ),
        )
    )

    norm = lyapunov.gaussian_norm(model, build_growth_basis(model, canonical_x(model)))
    cloud = potential.PointCloud(np.zeros((1, DIM)), np.array([2.0]))
    levels = [1.0, 2.0, 3.0]

    def tightness(rng):
        prof = potential.capacity_tightness_profile(
            norm, bm, cloud, levels, 1.0, _n(1000, scale),
            potential.PathConfig(dt=0.05, horizon=20.0), rng,
        )
        means = [p["estimate"].mean for p in prof]
        rows = [_est_row(f"capacity_level[{p['level']}]", p["estimate"]) for p in prof]
        rows.append(_flag_row("capacity_trend", all(m1 <= m0 for m0, m1 in zip(means, means[1:]))))
        return rows

    tasks.append(("capacity_tightness", tightness))
    return PathWorkload("full_support_paths", seed, tasks)


WORKLOADS = ("paper_suite", "face_exits", "full_support_paths")


def prepare(name: str, root: Path, seed: int, scale: float, scratch: Path):
    if name == "paper_suite":
        return PaperSuite(root, seed, scale, scratch)
    if name == "face_exits":
        return face_exits(seed, scale)
    if name == "full_support_paths":
        return full_support_paths(seed, scale)
    raise ValueError(f"unknown workload {name!r}")
