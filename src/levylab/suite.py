"""Registry of named experiments for the CLI harness.

Each experiment maps (parameters, samples, seed, confidence, name) to a list
of result rows.  Randomness is drawn only from the counter-based substream
keyed by the seed and the experiment's config name (which defaults to its
operation), so results are independent of worker scheduling, and two
experiments running one operation under different names draw independently.
"""

import numpy as np

from .lyapunov import (
    gaussian_norm,
    levy_norm,
    moment_constant_estimate,
    q_x_eval,
    qx_square_mean,
    v0_estimate,
)
from .measures import (
    JumpMeasure,
    LevyTriplet,
    McEstimate,
    brownian_triplet,
    pairing_second_moment,
    pairing_second_moment_target,
    poisson_example_triplet,
    sample_increments,
)
from .operators import TestFunction, apply_Ualpha, apply_Ualpha_projected
from .potential import (
    PathConfig,
    PointCloud,
    balayage_check,
    capacity,
    capacity_tightness_profile,
    coord_halfspace,
    empty_set,
    projection_convergence,
    reduced_function_family,
    whole_space,
)
from .rng import substream
from .space import build_growth_basis, canonical_x, make_space
from .dirichlet import BoundaryData, gambler_ruin_value, slab_domain, solve


def _row(op, est=None, target=None, verdict=None, mean=None, stderr=None, n=None):
    if est is not None:
        mean, stderr, n = est.mean, est.stderr, est.n_samples
    return {
        "op": op,
        "mean": mean,
        "stderr": stderr,
        "n": n,
        "target": target,
        "verdict": verdict,
    }


def _check(op, est, target):
    """Row of an estimate against its exact target."""
    return _row(op, est=est, target=target, verdict=est.verdict(target))


def _flag(op, ok, n):
    """Row of a structural check that holds or not."""
    return _row(op, mean=float(ok), stderr=0.0, n=n, target=1.0, verdict="pass" if ok else "fail")


def _default_norm(kind, dim=32):
    model = make_space(dim)
    growth_basis = build_growth_basis(model, canonical_x(model))
    if kind == "gaussian":
        return model, gaussian_norm(model, growth_basis)
    return model, levy_norm(model, growth_basis)


def variance_identity(params, samples, seed, confidence, name):
    dim = int(params.get("dim", 32))
    model = make_space(dim)
    triplet = brownian_triplet(model)
    rng = substream(seed, name)
    z_rand = rng.standard_normal(dim)
    xis = {
        "e1": model.basis_vector(1),
        "e3": model.basis_vector(3),
        "e1+e2": model.basis_vector(1) + model.basis_vector(2),
    }
    rows = []
    for xi_name, xi in xis.items():
        for t in (0.1, 1.0, 5.0):
            for z_name, z in (("0", np.zeros(dim)), ("rand", z_rand)):
                incr = sample_increments(triplet, t, samples, rng)
                vals = ((z + incr) @ xi) ** 2
                est = McEstimate.from_samples(vals, confidence)
                target = t * float(xi @ xi) + float(xi @ z) ** 2
                rows.append(_check(f"second_moment[xi={xi_name},t={t},z={z_name}]", est, target))
    return rows


def gaussian_lyapunov(params, samples, seed, confidence, name):
    dim = int(params.get("dim", 32))
    n_points = int(params.get("points", 5))
    model, norm = _default_norm("gaussian", dim)
    triplet = brownian_triplet(model)
    rng = substream(seed, name)
    mass = qx_square_mean(norm, triplet, 1.0, samples, rng, confidence)
    rows = [_row("qx2_mass_at_1", est=mass)]
    for i in range(n_points):
        z = rng.standard_normal(dim)
        q2 = float(q_x_eval(norm, z)) ** 2
        v0 = v0_estimate(norm, triplet, z, samples, rng, confidence)
        rows.append(
            _row(
                f"v0_lower[{i}]", est=v0, target=q2, verdict=v0.verdict_at_least(q2)
            )
        )
        upper = 2.0 * q2 + 2.0 * mass.mean
        rows.append(
            _row(
                f"v0_upper[{i}]", est=v0, target=upper, verdict=v0.verdict_at_most(upper)
            )
        )
    return rows


def _jump_triplet(dim):
    model = make_space(dim)
    atoms = np.zeros((2, dim))
    atoms[0, 0] = 1.0
    atoms[1, 1] = -0.5
    return LevyTriplet(
        model,
        np.zeros(dim),
        np.ones(dim),
        JumpMeasure(intensity=0.7, kind="pointmass", atoms=atoms),
    )


def levy_sandwich(params, samples, seed, confidence, name):
    dim = int(params.get("dim", 32))
    n_points = int(params.get("points", 5))
    model, norm = _default_norm("levy", dim)
    triplet = _jump_triplet(dim)
    rng = substream(seed, name)
    c_tilde = moment_constant_estimate(
        norm, triplet, (0.25, 0.5, 1.0, 2.0, 4.0), samples, rng
    )
    rows = [_row("moment_constant", mean=c_tilde, stderr=0.0, n=samples)]
    for i in range(n_points):
        z = rng.standard_normal(dim)
        q2 = float(q_x_eval(norm, z)) ** 2
        v0 = v0_estimate(norm, triplet, z, samples, rng, confidence)
        lo = 0.5 * q2 - 3.0 * c_tilde
        hi = 2.0 * q2 + 6.0 * c_tilde
        rows.append(
            _row(f"v0_lower[{i}]", est=v0, target=lo, verdict=v0.verdict_at_least(lo))
        )
        rows.append(
            _row(f"v0_upper[{i}]", est=v0, target=hi, verdict=v0.verdict_at_most(hi))
        )
    return rows


def _moment_rows(triplet, xis, times, samples, rng, confidence):
    """Second pairing moments against their closed form on an (xi, t) grid."""
    rows = []
    for xi_name, xi in xis:
        for t in times:
            est = pairing_second_moment(triplet, xi, t, samples, rng, confidence)
            target = pairing_second_moment_target(triplet, xi, t)
            rows.append(_check(f"second_moment[xi={xi_name},t={t}]", est, target))
    return rows


def moment_pointmass(params, samples, seed, confidence, name):
    triplet = _jump_triplet(int(params.get("dim", 32)))
    e = triplet.model.basis_vector
    xis = (("e1", e(1)), ("e2", e(2)), ("e1+e2", e(1) + e(2)))
    rng = substream(seed, name)
    return _moment_rows(triplet, xis, (0.5, 1.0, 2.0), samples, rng, confidence)


def moment_poisson01(params, samples, seed, confidence, name):
    triplet = poisson_example_triplet(int(params.get("dim", 32)))
    e = triplet.model.basis_vector
    xis = (("e1", e(1)), ("e2", e(2)), ("e1+2e3", e(1) + 2.0 * e(3)))
    rng = substream(seed, name)
    return _moment_rows(triplet, xis, (0.5, 1.0), samples, rng, confidence)


def projection_identity(params, samples, seed, confidence, name):
    dim = int(params.get("dim", 32))
    model = make_space(dim)
    triplet = brownian_triplet(model)
    rng = substream(seed, name)
    z = rng.standard_normal(dim)
    rows = []
    for k in (1, 2, 3):
        f = TestFunction(
            lambda y, k=k: np.cos(np.sum(y[..., :k], axis=-1)),
            bound=1.0,
            cylinder=k,
            name=f"cos_sum_{k}",
        )
        phi = lambda y, k=k: np.cos(np.sum(y[..., :k], axis=-1)) / 1.0
        for alpha in (0.5, 1.0, 2.0):
            full = apply_Ualpha(triplet, f, alpha, z, samples, rng, confidence)
            proj = apply_Ualpha_projected(
                triplet, phi, k, alpha, z, samples, rng, confidence
            )
            diff = McEstimate(
                full.mean - proj.mean,
                float(np.hypot(full.stderr, proj.stderr)),
                samples,
                confidence,
            )
            rows.append(
                _row(
                    f"resolvent_vs_projected[k={k},alpha={alpha}]",
                    est=diff,
                    target=0.0,
                    verdict=diff.verdict(0.0),
                )
            )
    return rows


def reduced_projection(params, samples, seed, confidence, name):
    dim = int(params.get("dim", 32))
    model = make_space(dim)
    triplet = brownian_triplet(model)
    rng = substream(seed, name)
    cfg = PathConfig(
        dt=float(params.get("dt", 0.02)), horizon=float(params.get("horizon", 8.0))
    )
    start = np.zeros(dim)
    beta = 1.0
    rows = []
    cases = reduced_projection_cases(model)
    v = TestFunction(lambda y: np.ones(y.shape[:-1]), bound=1.0, name="one")
    for label, M, M_proj in cases:
        ests, samp = reduced_function_family(
            triplet, v, [M, M_proj], beta, start, samples, cfg, rng, confidence
        )
        diff = McEstimate.from_samples(samp[1] - samp[0], confidence)
        per_sample = bool(np.all(samp[1] >= samp[0] - 1e-12))
        verdict = diff.verdict_at_least(0.0)
        if not per_sample and verdict == "pass":
            verdict = "inconclusive"
        rows.append(
            _row(
                f"projection_inequality[{label}]",
                est=diff,
                target=0.0,
                verdict=verdict,
            )
        )
    return rows


def reduced_projection_cases(model):
    """Five target sets with the membership test of their coordinate
    projection.  Projecting a path can only speed up entry, so the
    projected reduced value dominates the full one per shared path."""
    from .potential import TargetSet, coordinate_box, e_ball_complement

    dim = model.dim
    cases = []
    for coord, level, side in ((1, 1.0, +1), (1, -1.5, -1), (2, 1.0, +1)):
        M = coord_halfspace(model, coord, level, side)
        cases.append((f"{M.name}|k={coord}", M, M))
    box = coordinate_box(model, np.array([1.0, 1.0]), np.array([9.0, 9.0]))
    box1 = TargetSet(
        "box_proj_k1", lambda z: (z[..., 0] >= 1.0) & (z[..., 0] <= 9.0), coords=(0,)
    )
    cases.append(("box2d|k=1", box, box1))
    shell = e_ball_complement(model, np.zeros(dim), 1.5)
    # every k-dim point extends into the shell, so the projection is total
    whole = TargetSet("whole_proj", lambda z: np.ones(z.shape[:-1], dtype=bool), coords=())
    cases.append(("eball_shell|k=1", shell, whole))
    return cases


def dirichlet_slab(params, samples, seed, confidence, name):
    dim = int(params.get("dim", 32))
    model = make_space(dim)
    triplet = brownian_triplet(model)
    rng = substream(seed, name)
    a, b, fa, fb = -1.0, 2.0, 3.0, -1.0
    dom = slab_domain(model, 1, a, b)
    f = BoundaryData(
        lambda y: np.where(np.abs(y[..., 0] - a) < np.abs(y[..., 0] - b), fa, fb),
        bound=max(abs(fa), abs(fb)),
        name="slab_faces",
    )
    cfg = PathConfig(dt=float(params.get("dt", 0.01)), horizon=float(params.get("horizon", 40.0)))
    rows = []
    for x in (-0.5, 0.0, 0.5, 1.0, 1.5):
        z = np.zeros(dim)
        z[0] = x
        est = solve(triplet, dom, f, z, samples, rng=rng, cfg=cfg, confidence=confidence)
        target = gambler_ruin_value(dom, fa, fb, x)
        rows.append(_check(f"gambler_ruin[x={x}]", est.estimate, target))
    return rows


def capacity_basics(params, samples, seed, confidence, name):
    dim = int(params.get("dim", 16))
    model, norm = _default_norm("gaussian", dim)
    triplet = brownian_triplet(model)
    rng = substream(seed, name)
    beta = 1.0
    cloud = PointCloud(np.zeros((1, dim)), np.array([2.0]))
    cfg = PathConfig(dt=float(params.get("dt", 0.05)), horizon=float(params.get("horizon", 20.0)))
    rows = []
    c_empty = capacity(triplet, cloud, empty_set(model), beta, samples, cfg, rng, confidence)
    rows.append(_check("capacity_empty", c_empty, 0.0))
    c_whole = capacity(triplet, cloud, whole_space(model), beta, samples, cfg, rng, confidence)
    rows.append(_check("capacity_whole", c_whole, cloud.total_mass / beta))
    prof = capacity_tightness_profile(
        norm, triplet, cloud, [1.0, 2.0, 3.0], beta, samples, cfg, rng, confidence
    )
    means = [p["estimate"].mean for p in prof]
    decreasing = all(means[i + 1] <= means[i] for i in range(len(means) - 1))
    for p in prof:
        rows.append(_row(f"capacity_level[{p['level']}]", est=p["estimate"]))
    rows.append(_flag("capacity_tightness_trend", decreasing, samples))
    return rows


def balayage(params, samples, seed, confidence, name):
    dim = int(params.get("dim", 8))
    model = make_space(dim)
    triplet = brownian_triplet(model)
    rng = substream(seed, name)
    M = coord_halfspace(model, 1, 1.0, +1)
    start = np.zeros(dim)
    nu = PointCloud(start[None, :], np.array([1.0]))
    F_in = coord_halfspace(model, 1, 1.5, +1)
    F_out = coord_halfspace(model, 1, -1.0, -1)
    cfg = PathConfig(dt=float(params.get("dt", 0.02)), horizon=float(params.get("horizon", 12.0)))
    rep = balayage_check(
        triplet,
        nu,
        M,
        1.0,
        [{"target": F_in, "inside": True}, {"target": F_out, "inside": False}],
        samples,
        cfg,
        rng,
        confidence,
    )
    rows = []
    for r in rep["rows"]:
        rows.append(
            _row(
                f"balayage[{r['F']},inside={r['inside']}]",
                est=r["difference"],
                target=0.0,
                verdict=r["verdict"],
            )
        )
    rows.append(_flag("per_sample_inequality", rep["per_sample_inequality"], samples))
    return rows


def tail_projection(params, samples, seed, confidence, name):
    dim = int(params.get("dim", 32))
    model = make_space(dim)
    triplet = brownian_triplet(model)
    rng = substream(seed, name)
    rep = projection_convergence(triplet, 1.0, (4, 8, 16), samples, rng, confidence)
    rows = []
    for r in rep["rows"]:
        rows.append(
            _row(
                f"tail_norm[n={r['n']}]",
                est=r["estimate"],
                target=r.get("target"),
                verdict=r.get("verdict"),
            )
        )
    return rows


REGISTRY = {
    "variance_identity": variance_identity,
    "gaussian_lyapunov": gaussian_lyapunov,
    "levy_sandwich": levy_sandwich,
    "moment_pointmass": moment_pointmass,
    "moment_poisson01": moment_poisson01,
    "projection_identity": projection_identity,
    "reduced_projection": reduced_projection,
    "dirichlet_slab": dirichlet_slab,
    "capacity_basics": capacity_basics,
    "balayage": balayage,
    "tail_projection": tail_projection,
}
