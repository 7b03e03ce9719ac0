"""Micro-timings of single layers on fixed inputs through public calls.

Each timing is the median over repeats.  Path engines are rated in useful
path-steps per second: the sum over paths of monitored steps until the
path's stop (its last target hit) or the horizon, read from the returned
hit times, so an engine that keeps stepping finished paths rates lower.
"""

import statistics
import time

import numpy as np

from levylab import (
    McEstimate,
    brownian_triplet,
    make_space,
    sample_increments,
    substream,
)
from levylab import dirichlet, lyapunov, operators, potential
from levylab.space import build_growth_basis, canonical_x
from workloads import jump_triplet

DIM = 32
SEED = 20100713  # fixed inputs: micro-timings do not vary with the workload seed


def _median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def useful_steps(times, cfg) -> int:
    """Monitored steps summed over paths, each until its stop (its last
    target hit, the max over a leading target axis) or the horizon."""
    times = np.atleast_2d(np.asarray(times, dtype=float))
    horizon_steps = int(np.ceil(cfg.horizon / cfg.dt))
    steps = np.where(np.isfinite(times), np.rint(times / cfg.dt), horizon_steps)
    return int(steps.max(axis=0).sum())


def _steps_per_s(call, times_of, cfg, reps: int) -> float:
    """Median useful path-steps per second of an engine call (fresh stream
    per repeat, same inputs)."""
    rates = []
    for r in range(reps):
        rng = substream(SEED, "steps", r)
        t0 = time.perf_counter()
        out = call(rng)
        dt = time.perf_counter() - t0
        rates.append(useful_steps(times_of(out), cfg) / dt)
    return statistics.median(rates)


def normal_ns(bit_generator) -> float:
    """ns per standard normal in a (2000, 32) batch."""
    g = np.random.Generator(bit_generator)
    return _median_s(lambda: g.standard_normal((2000, DIM)), 30) / (2000 * DIM) * 1e9


def measure() -> dict:
    model = make_space(DIM)
    bm = brownian_triplet(model)
    jump = jump_triplet(model)
    rng = substream(SEED, "micro")
    out = {}

    out["rng.normal_ns"] = normal_ns(np.random.Philox(key=SEED))
    out["rng.substream_us"] = _median_s(lambda: substream(SEED, "cell", 3), 200) * 1e6

    bm1 = brownian_triplet(make_space(1))
    out["measures.sample_increments.cont32_us"] = _median_s(lambda: sample_increments(bm, 0.01, 2000, rng), 30) * 1e6
    out["measures.sample_increments.cont1_us"] = _median_s(lambda: sample_increments(bm1, 0.01, 2000, rng), 30) * 1e6
    out["measures.sample_increments.jump32_us"] = _median_s(lambda: sample_increments(jump, 0.01, 2000, rng), 30) * 1e6
    t_exp = rng.exponential(1.0, size=20000)
    out["measures.sample_increments.exptime_ms"] = _median_s(lambda: sample_increments(bm, t_exp, 20000, rng), 10) * 1e3

    est = McEstimate(0.1, 0.01, 2000)
    samples = rng.standard_normal(2000)
    out["measures.verdict_us"] = _median_s(lambda: est.verdict(0.12), 200) * 1e6
    out["measures.from_samples_us"] = _median_s(lambda: McEstimate.from_samples(samples), 200) * 1e6

    z = rng.standard_normal((2000, DIM))
    out["space.e_norm2_ns"] = _median_s(lambda: model.e_norm2(z), 50) / 2000 * 1e9
    basis = build_growth_basis(model, canonical_x(model))
    g_norm = lyapunov.gaussian_norm(model, basis)
    l_norm = lyapunov.levy_norm(model, basis)
    out["lyapunov.q_x_eval.gaussian_ns"] = _median_s(lambda: lyapunov.q_x_eval(g_norm, z), 50) / 2000 * 1e9
    out["lyapunov.q_x_eval.levy_ns"] = _median_s(lambda: lyapunov.q_x_eval(l_norm, z), 50) / 2000 * 1e9
    z0 = rng.standard_normal(DIM)
    out["lyapunov.v0_estimate_ms"] = _median_s(lambda: lyapunov.v0_estimate(g_norm, bm, z0, 20000, rng), 5) * 1e3
    f_cos = operators.TestFunction(lambda y: np.cos(np.sum(y[..., :2], axis=-1)), bound=1.0, cylinder=2)
    out["operators.apply_Ualpha_ms"] = _median_s(lambda: operators.apply_Ualpha(bm, f_cos, 1.0, z0, 20000, rng), 5) * 1e3

    start = np.zeros(DIM)
    half = potential.coord_halfspace(model, 1, 1.0, +1)
    shell = potential.e_ball_complement(model, start, 1.0)
    cfg = potential.PathConfig(dt=0.01, horizon=2.0)
    cfg_nb = potential.PathConfig(dt=0.01, horizon=2.0, bridge=False)
    hit_times = lambda out: out[1]
    for label, triplet, target, c in (
        ("halfspace", bm, half, cfg),
        ("halfspace_nobridge", bm, half, cfg_nb),
        ("eball", bm, shell, cfg),
        ("jump", jump, half, cfg),
    ):
        out[f"potential.simulate_hit_batch.{label}_steps_per_s"] = _steps_per_s(
            lambda r, t=triplet, g=target, c=c: potential.simulate_hit_batch(t, start, g, c, 1000, r),
            hit_times, c, 3,
        )
    half2 = potential.coord_halfspace(model, 2, 1.0, +1)
    cfg_m = potential.PathConfig(dt=0.02, horizon=4.0)
    out["potential.multi_target_hit_steps_per_s"] = _steps_per_s(
        lambda r: potential.multi_target_hit(bm, start, [half, half2], cfg_m, 1000, r),
        lambda o: o[0], cfg_m, 3,
    )
    F = [potential.coord_halfspace(model, 1, 1.5, +1), potential.coord_halfspace(model, 1, -1.0, -1)]
    out["potential.discounted_occupancy_steps_per_s"] = _steps_per_s(
        lambda r: potential.discounted_occupancy(bm, start, half, F, 1.0, cfg_m, 1000, r),
        lambda o: o[0], cfg_m, 3,
    )
    cfg_q = potential.PathConfig(dt=0.05, horizon=5.0)
    out["potential.level_crossing_times_steps_per_s"] = _steps_per_s(
        lambda r: potential.level_crossing_times(g_norm, bm, start, [1.0, 2.0, 3.0], cfg_q, 1000, r),
        lambda o: o, cfg_q, 3,
    )

    slab = dirichlet.slab_domain(model, 1, -1.0, 2.0)
    ball = dirichlet.e_ball_domain(model, start, 1.0)
    f_c1 = dirichlet.BoundaryData(lambda y: y[..., 0])
    cfg_s = potential.PathConfig(dt=0.01, horizon=40.0)
    out["dirichlet.solve.slab_ms"] = _median_s(
        lambda: dirichlet.solve(bm, slab, f_c1, start, 500, cfg_s, substream(SEED, "slab")), 3
    ) * 1e3
    ball_s = _median_s(lambda: dirichlet.solve(bm, ball, f_c1, start, 500, cfg_s, substream(SEED, "ball")), 3)
    hit_s = _median_s(
        lambda: potential.simulate_hit_batch(bm, start, ball.exit_target, cfg_s, 500, substream(SEED, "ball")), 3
    )
    out["dirichlet.solve.eball_ms"] = ball_s * 1e3
    # refinement draws no random numbers, so both calls step the same paths
    out["dirichlet.refine_frac"] = 1.0 - hit_s / ball_s
    return out
