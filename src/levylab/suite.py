"""Registry of named experiments for the CLI harness.

Each experiment maps (parameters, samples, rng) to a list of result rows,
and draws its randomness from `rng` alone.  The harness keys that stream
(`harness._execute`) by the seed and the experiment's config name (which
defaults to its operation), so results are independent of worker
scheduling, and two experiments running one operation under different
names draw independently.

An experiment's time grid and dimension are fixed here: the path
experiments each keep one `PathConfig`, and every experiment runs at N = 32
but two.  `PARAMETERS` lists the four settable keys and their least
values: `points` of gaussian_lyapunov and levy_sandwich (default 5), and
`dim` of capacity_basics (default 16) and balayage (default 8).

Each experiment is also an acceptance criterion, and its last row is the
criterion's gate, `gate[...]`.  The gate counts units (a row, or a cell of
rows that must all pass) against the criterion's threshold: at most so many
units may miss.  It is `pass` when the criterion holds, `fail` when the
failing units alone already break the threshold, and `inconclusive`
otherwise, so a down-scaled run never fails a gate that its rows do not
already fail.  Failure signals are rows too (Dirichlet non-exit mass,
balayage carrier and degeneracy), so the gates read them.  The shipped
`configs/acceptance.json` runs every criterion at full scale.
"""

import itertools

import numpy as np

from .dirichlet import (
    BoundaryData,
    approach_sequence,
    boundary_continuity_check,
    controlled_convergence_check,
    e_ball_domain,
    gambler_ruin_value,
    harmonicity_check,
    majorant_stability_check,
    slab_domain,
    solve,
)
from .lyapunov import (
    gaussian_norm,
    levy_norm,
    moment_constant_estimate,
    q_x_eval,
    qx_square_mean,
    v0_estimate,
)
from .measures import (
    DEFAULT_ATOL,
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
    coord_ball,
    coord_halfspace,
    coordinate_box,
    domination_check,
    e_ball,
    e_ball_complement,
    empty_set,
    h_ball,
    horizon_bias_bound,
    polarity_diagnostic,
    projection_convergence,
    reduced_function_family,
    simulate_hit_batch,
    whole_space,
)
from .space import PreconditionError, build_growth_basis, canonical_x, make_space


def _row(op, est=None, target=None, verdict=None, mean=None, stderr=None, n=None):
    if est is not None:
        mean, stderr, n = est.mean, est.stderr, est.n_samples
    return dict(op=op, mean=mean, stderr=stderr, n=n, target=target, verdict=verdict)


def _check(op, est, target, atol=DEFAULT_ATOL):
    """Row of an estimate against its exact target."""
    return _row(op, est=est, target=target, verdict=est.verdict(target, atol))


def _flag(op, ok, n):
    """Row of a structural check that holds or not."""
    return _row(op, mean=float(ok), stderr=0.0, n=n, target=1.0, verdict="pass" if ok else "fail")


def _non_exit(label, res):
    """Row of a Dirichlet solve's non-exit mass: `fail` when the horizon cut
    off more paths than the solver tolerates."""
    return _row(
        f"non_exit[{label}]",
        mean=res.non_exit_fraction,
        stderr=0.0,
        n=res.estimate.n_samples,
        verdict="fail" if res.flagged else "pass",
    )


def _verdicts(rows, not_fail=False):
    """Unit verdicts of the checked rows (info rows carry none).  With
    not_fail, a unit holds unless it fails (one-sided bounds that the
    criterion asks only not to be refuted)."""
    verdicts = [r["verdict"] for r in rows if r["verdict"] is not None]
    return ["fail" if v == "fail" else "pass" for v in verdicts] if not_fail else verdicts


def _cell(verdicts):
    """Verdict of a unit whose rows must all pass."""
    verdicts = set(verdicts)
    return "fail" if "fail" in verdicts else "pass" if verdicts == {"pass"} else "inconclusive"


def _gate(name, *groups):
    """The experiment's gate row.  Each group is (unit verdicts, misses
    allowed); the criterion holds when no group is empty or has more misses
    than it allows, since a group with no units checked nothing.  mean
    counts the passing units, target the units needed."""
    holds = all(vs and sum(v != "pass" for v in vs) <= m for vs, m in groups)
    broken = any(sum(v == "fail" for v in vs) > m for vs, m in groups)
    return _row(
        f"gate[{name}]",
        mean=sum(vs.count("pass") for vs, _ in groups),
        stderr=0.0,
        n=sum(len(vs) for vs, _ in groups),
        target=sum(len(vs) - m for vs, m in groups),
        verdict="pass" if holds else "fail" if broken else "inconclusive",
    )


# the dimension of every experiment but capacity_basics and balayage, which
# read theirs from `dim`
_DIM = 32

# the grid of each path experiment; a test swaps one to cut its horizon
_REDUCED_GRID = PathConfig(dt=0.02, horizon=8.0)
_SLAB_GRID = PathConfig(dt=0.01, horizon=40.0)
_CAPACITY_GRID = PathConfig(dt=0.05, horizon=20.0)
_BALAYAGE_GRID = PathConfig(dt=0.02, horizon=12.0)
_DOMINATION_GRID = PathConfig(dt=0.02, horizon=12.0)


def _brownian(dim):
    """Model of dimension `dim` and its unit Brownian triplet."""
    model = make_space(dim)
    return model, brownian_triplet(model)


def _norm(model, kind):
    growth_basis = build_growth_basis(model, canonical_x(model))
    if kind == "gaussian":
        return gaussian_norm(model, growth_basis)
    return levy_norm(model, growth_basis)


def variance_identity(params, samples, rng):
    """Criterion 1: E<xi, z + Z_t>^2 = t|xi|^2 + <xi, z>^2; a cell (xi, t)
    holds when both starts pass, and at least 8 of the 9 cells must."""
    model, triplet = _brownian(_DIM)
    dim = model.dim
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
                est = pairing_second_moment(triplet, xi, t, samples, rng, start=z)
                target = t * float(xi @ xi) + float(xi @ z) ** 2
                rows.append(_check(f"second_moment[xi={xi_name},t={t},z={z_name}]", est, target))
    cells = [_cell(_verdicts(rows[i : i + 2])) for i in range(0, len(rows), 2)]
    return rows + [_gate("cells", (cells, 1))]


def _v0_rows(norm, triplet, bounds, params, samples, rng):
    """v_0 = U_1 q_x^2 against (lower, upper) = bounds(q_x^2(z)) at `points`
    random starts z."""
    rows = []
    for i in range(params.get("points", 5)):
        z = rng.standard_normal(norm.model.dim)
        lo, hi = bounds(float(q_x_eval(norm, z)) ** 2)
        v0 = v0_estimate(norm, triplet, z, samples, rng)
        rows.append(_row(f"v0_lower[{i}]", est=v0, target=lo, verdict=v0.verdict_at_least(lo)))
        rows.append(_row(f"v0_upper[{i}]", est=v0, target=hi, verdict=v0.verdict_at_most(hi)))
    return rows


def gaussian_lyapunov(params, samples, rng):
    """Criterion 2: q_x^2 <= v_0 <= 2 q_x^2 + 2 E q_x^2(Z_1) at `points`
    random starts; every lower bound holds and at most one upper misses."""
    model, triplet = _brownian(_DIM)
    norm = _norm(model, "gaussian")
    mass = qx_square_mean(norm, triplet, 1.0, samples, rng)
    rows = [_row("qx2_mass_at_1", est=mass)]
    bounds = lambda q2: (q2, 2.0 * q2 + 2.0 * mass.mean)
    rows += _v0_rows(norm, triplet, bounds, params, samples, rng)
    return rows + [_gate("v0_bounds", (_verdicts(rows[1::2]), 0), (_verdicts(rows[2::2]), 1))]


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


def levy_sandwich(params, samples, rng):
    """Criterion 3: q_x^2/2 - 3C <= v_0 <= 2 q_x^2 + 6C for the jump triplet,
    at every one of `points` random starts."""
    norm = _norm(make_space(_DIM), "levy")
    triplet = _jump_triplet(_DIM)
    c_tilde = moment_constant_estimate(norm, triplet, (0.25, 0.5, 1.0, 2.0, 4.0), samples, rng)
    rows = [_row("moment_constant", mean=c_tilde, stderr=0.0, n=samples)]
    bounds = lambda q2: (0.5 * q2 - 3.0 * c_tilde, 2.0 * q2 + 6.0 * c_tilde)
    rows += _v0_rows(norm, triplet, bounds, params, samples, rng)
    return rows + [_gate("sandwich", (_verdicts(rows), 0))]


def _moment_rows(triplet, xis, times, samples, rng):
    """Criterion 4: second pairing moments against their closed form on an
    (xi, t) grid, every cell passing."""
    rows = []
    for xi_name, xi in xis:
        for t in times:
            est = pairing_second_moment(triplet, xi, t, samples, rng)
            target = pairing_second_moment_target(triplet, xi, t)
            rows.append(_check(f"second_moment[xi={xi_name},t={t}]", est, target))
    return rows + [_gate("moments", (_verdicts(rows), 0))]


def moment_pointmass(params, samples, rng):
    triplet = _jump_triplet(_DIM)
    e = triplet.model.basis_vector
    xis = (("e1", e(1)), ("e2", e(2)), ("e1+e2", e(1) + e(2)))
    return _moment_rows(triplet, xis, (0.5, 1.0, 2.0), samples, rng)


def moment_poisson01(params, samples, rng):
    triplet = poisson_example_triplet(_DIM)
    e = triplet.model.basis_vector
    xis = (("e1", e(1)), ("e2", e(2)), ("e1+2e3", e(1) + 2.0 * e(3)))
    return _moment_rows(triplet, xis, (0.5, 1.0), samples, rng)


def projection_identity(params, samples, rng):
    """Criterion 5: U_alpha of a k-cylinder function equals its projected
    estimate, for every k in 1..3 and alpha."""
    model, triplet = _brownian(_DIM)
    z = rng.standard_normal(model.dim)
    rows = []
    for k in (1, 2, 3):
        f = TestFunction(
            lambda y, k=k: np.cos(np.sum(y[..., :k], axis=-1)),
            bound=1.0,
            cylinder=k,
            name=f"cos_sum_{k}",
        )
        for alpha in (0.5, 1.0, 2.0):
            full = apply_Ualpha(triplet, f, alpha, z, samples, rng)
            proj = apply_Ualpha_projected(triplet, f, alpha, z, samples, rng)
            se = float(np.hypot(full.stderr, proj.stderr))
            diff = McEstimate(full.mean - proj.mean, se, samples)
            rows.append(_check(f"resolvent_vs_projected[k={k},alpha={alpha}]", diff, 0.0))
    return rows + [_gate("projection", (_verdicts(rows), 0))]


def reduced_projection(params, samples, rng):
    """Criterion 6: the projected reduced function dominates the full one
    per shared path (a violation fails its row), and no gap is refuted."""
    model, triplet = _brownian(_DIM)
    start = np.zeros(model.dim)
    beta = 1.0
    rows = []
    v = TestFunction(lambda y: np.ones(y.shape[:-1]), bound=1.0, name="one")
    for label, M, M_proj in reduced_projection_cases(model):
        _, samp = reduced_function_family(
            triplet, v, [M, M_proj], beta, start, samples, _REDUCED_GRID, rng
        )
        diff = McEstimate.from_samples(samp[1] - samp[0])
        per_sample = bool(np.all(samp[1] >= samp[0] - 1e-12))
        verdict = diff.verdict_at_least(0.0) if per_sample else "fail"
        rows.append(_row(f"projection_inequality[{label}]", est=diff, target=0.0, verdict=verdict))
    return rows + [_gate("dominance", (_verdicts(rows, not_fail=True), 0))]


def reduced_projection_cases(model):
    """Five target sets with the membership test of their coordinate
    projection.  Projecting a path can only speed up entry, so the
    projected reduced value dominates the full one per shared path."""
    dim = model.dim
    cases = []
    for coord, level, side in ((1, 1.0, +1), (1, -1.5, -1), (2, 1.0, +1)):
        M = coord_halfspace(model, coord, level, side)
        cases.append((f"{M.name}|k={coord}", M, M))
    box = coordinate_box(model, np.array([1.0, 1.0]), np.array([9.0, 9.0]))
    box1 = coordinate_box(model, [1.0], [9.0])
    cases.append(("box2d|k=1", box, box1))
    shell = e_ball_complement(model, np.zeros(dim), 1.5)
    # every k-dim point extends into the shell, so the projection is total
    whole = whole_space(model)
    cases.append(("eball_shell|k=1", shell, whole))
    return cases


def dirichlet_slab(params, samples, rng):
    """Criterion 7, gambler's ruin: the slab solution at five starts equals
    the linear interpolation of the face values, with every path exited."""
    model, triplet = _brownian(_DIM)
    a, b, fa, fb = -1.0, 2.0, 3.0, -1.0
    dom = slab_domain(model, 1, a, b)
    f = BoundaryData(
        lambda y: np.where(np.abs(y[..., 0] - a) < np.abs(y[..., 0] - b), fa, fb),
        bound=max(abs(fa), abs(fb)),
        name="slab_faces",
    )
    rows = []
    for x in (-0.5, 0.0, 0.5, 1.0, 1.5):
        z = np.zeros(model.dim)
        z[0] = x
        res = solve(triplet, dom, f, z, samples, rng=rng, cfg=_SLAB_GRID)
        target = gambler_ruin_value(dom, fa, fb, x)
        rows += [_check(f"gambler_ruin[x={x}]", res.estimate, target), _non_exit(f"x={x}", res)]
    return rows + [_gate("gambler_ruin", (_verdicts(rows), 0))]


def dirichlet_oracles(params, samples, rng):
    """Criterion 7 beyond the slab, on a unit E-ball and the slab |x1| < 1:
    the ball's center value for linear data is 0 by symmetry (`samples`
    paths, dt 0.005); the harmonicity tower at radii 0.2, 0.4, 0.6
    (samples/2, dt 0.01); the boundary-continuity trend toward x1 = 1
    (5/8 samples, dt 0.005); and its negative control, data with a point
    jump at that boundary point, which the checker must reject (3/10
    samples, dt 0.01, horizon 20; the others run to horizon 30).  Every
    solve must exit."""
    model, triplet = _brownian(_DIM)
    origin = np.zeros(model.dim)
    fine, coarse = PathConfig(dt=0.005, horizon=30.0), PathConfig(dt=0.01, horizon=30.0)
    short = PathConfig(dt=0.01, horizon=20.0)
    ball = e_ball_domain(model, origin, 1.0)
    f_lin = BoundaryData(lambda y: y[..., 0], bound=2.0 / float(np.sqrt(model.weights[0])))
    res = solve(triplet, ball, f_lin, origin, samples, fine, rng)
    rows = [_check("ball_center[linear]", res.estimate, 0.0), _non_exit("ball_center", res)]
    slab = slab_domain(model, 1, -1.0, 1.0)
    f_step = BoundaryData(lambda y: np.where(y[..., 0] > 0, 1.0, 0.0), bound=1.0)
    tower = harmonicity_check(
        triplet, slab, f_step, origin, [0.2, 0.4, 0.6], samples // 2, coarse, rng
    )
    for r in tower:
        rows.append(_check(f"harmonicity[r={r['r']}]", r["difference"], 0.0))
        for stage, sol in zip(("two_stage", "direct"), r["solves"]):
            rows.append(_non_exit(f"r={r['r']},{stage}", sol))
    y = origin.copy()
    y[0] = 1.0
    seq = approach_sequence(y, origin, n_points=5)
    f_cont = BoundaryData(lambda z: 0.5 * (z[..., 0] + 1.0), bound=1.0)
    f_jump = BoundaryData(
        lambda z: np.where(np.all(np.isclose(z, y, atol=1e-6), axis=-1), 5.0, 0.0), bound=5.0
    )
    for label, f, xs, n, cfg, want in (
        ("continuous", f_cont, seq, samples * 5 // 8, fine, "pass"),
        ("point_jump", f_jump, seq[:4], samples * 3 // 10, short, "fail"),
    ):
        rep = boundary_continuity_check(triplet, slab, f, y, xs, n, cfg, rng)
        rows.append(_flag(f"continuity[{label}]={want}", rep["verdict"] == want, n))
        rows += [_non_exit(f"{label},k={k}", r["solve"]) for k, r in enumerate(rep["rows"], 1)]
    return rows + [_gate("oracles", (_verdicts(rows), 0))]


def controlled_convergence(params, samples, rng):
    """Criterion 8 on the slab |x1| < 1 of the plane, where h = x1 is
    harmonic: the bounded-control branch c1 under a zero control, for
    linear data and for face data approached from both faces; and, on
    `points` random fixtures, every pass survives doubling the control."""
    origin, y_in, y_out = np.zeros(2), np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    seq_in, seq_out = approach_sequence(y_in, origin, 8), approach_sequence(y_out, origin, 8)
    V0 = lambda xs: np.ones(xs.shape[0], dtype=bool)
    zero = lambda xs: np.zeros(xs.shape[0])
    x1 = lambda xs: xs[:, 0]
    faces = lambda xs: np.where(xs[:, 0] > 0.0, 1.0, 0.0)
    rows = []
    for label, h, f, seqs, ys in (
        ("linear", x1, x1, [seq_in], [y_in]),
        ("faces", lambda xs: 0.5 * (xs[:, 0] + 1.0), faces, [seq_in, seq_out], [y_in, y_out]),
    ):
        rep = controlled_convergence_check(h, f, zero, V0, seqs, ys, tol=0.02)
        ok = rep.all_pass and all(r.branch == "c1" for r in rep.records)
        rows.append(_flag(f"c1[{label}]", ok, len(seqs)))
    for i in range(10):
        slope, k_slope, y1 = rng.uniform(0.5, 2.0), rng.uniform(0.0, 5.0), rng.uniform(0.5, 1.5)
        h = lambda xs, s=slope: s * xs[:, 0]
        k = lambda xs, s=k_slope: s * np.abs(xs[:, 0])
        yb = np.array([y1, 0.0])
        seq = approach_sequence(yb, origin, 8)
        stab = majorant_stability_check(h, h, k, V0, [seq], [yb], tol=0.05)
        rows.append(_flag(f"majorant_stable[{i}]", stab["stable"] and stab["base"].all_pass, 1))
    return rows + [_gate("controlled_convergence", (_verdicts(rows), 0))]


def capacity_basics(params, samples, rng):
    """Criterion 9, capacity: exact on the empty set and the whole space,
    and strictly decreasing (and nonnegative) over the complements of the
    q_x level sets 1..5."""
    model, triplet = _brownian(params.get("dim", 16))
    norm = _norm(model, "gaussian")
    beta = 1.0
    cloud = PointCloud(np.zeros((1, model.dim)), np.array([2.0]))
    cfg = _CAPACITY_GRID
    c_empty = capacity(triplet, cloud, empty_set(model), beta, samples, cfg, rng)
    rows = [_check("capacity_empty", c_empty, 0.0, atol=0.0)]
    c_whole = capacity(triplet, cloud, whole_space(model), beta, samples, cfg, rng)
    rows.append(_check("capacity_whole", c_whole, cloud.total_mass / beta, atol=0.0))
    prof = capacity_tightness_profile(
        norm, triplet, cloud, [1.0, 2.0, 3.0, 4.0, 5.0], beta, samples, cfg, rng
    )
    means = [p["estimate"].mean for p in prof]
    decreasing = all(b < a for a, b in zip(means, means[1:])) and means[-1] >= 0.0
    rows += [_row(f"capacity_level[{p['level']}]", est=p["estimate"]) for p in prof]
    rows.append(_flag("capacity_tightness_trend", decreasing, samples))
    bias = horizon_bias_bound(cloud.total_mass / beta, beta, cfg)
    rows.append(_row("horizon_bias_bound", mean=bias))
    return rows + [_gate("capacity", (_verdicts(rows), 0))]


def balayage(params, samples, rng):
    """Criterion 9, balayage onto M = {x1 >= 1}: equality on F inside M, no
    refuted inequality off M, per-sample inequality, hitting locations in M,
    and at least one hit."""
    model, triplet = _brownian(params.get("dim", 8))
    M = coord_halfspace(model, 1, 1.0, +1)
    start = np.zeros(model.dim)
    nu = PointCloud(start[None, :], np.array([1.0]))
    F_in = coord_halfspace(model, 1, 1.5, +1)
    F_out = coord_halfspace(model, 1, -0.5, -1)
    F_specs = [{"target": F_in, "inside": True}, {"target": F_out, "inside": False}]
    rep = balayage_check(triplet, nu, M, 1.0, F_specs, samples, _BALAYAGE_GRID, rng)
    rows, units = [], []
    for r in rep["rows"]:
        op = f"balayage[{r['F']},inside={r['inside']}]"
        rows.append(_row(op, est=r["difference"], target=0.0, verdict=r["verdict"]))
        units += _verdicts(rows[-1:], not_fail=not r["inside"])
    rows.append(_flag("per_sample_inequality", rep["per_sample_inequality"], samples))
    rows.append(_flag("carrier_ok", rep["carrier_ok"], samples))
    rows.append(_flag("not_degenerate", not rep["degenerate"], samples))
    return rows + [_gate("balayage", (units + _verdicts(rows[-3:]), 0))]


def domination(params, samples, rng):
    """Criterion 9, domination: the measure swept onto {x1 >= 1} from the
    origin (its first 60 hits of samples/10 paths) is dominated by the unit
    mass at the origin on two balls at hit points, and then off the carrier;
    the doubled unit mass, a negative control, fails the hypothesis."""
    model, triplet = _brownian(_DIM)
    beta, start = 1.0, np.zeros(model.dim)
    M = coord_halfspace(model, 1, 1.0, +1)
    hit, T, loc = simulate_hit_batch(triplet, start, M, _DOMINATION_GRID, samples // 10, rng)
    idx = np.flatnonzero(hit)[:60]
    swept = PointCloud(loc[idx], np.exp(-beta * T[idx]) * (hit.mean() / idx.size))
    nu = PointCloud(start[None, :], np.array([1.0]))
    far = start.copy()
    far[0] = -2.0
    probes_in = [e_ball(model, loc[idx[0]], 0.5), e_ball(model, loc[idx[1]], 0.4)]
    dom = domination_check(
        triplet, swept, nu, probes_in, [e_ball(model, far, 0.5)], beta, samples, rng
    )
    sides = (("hypothesis", dom["hypothesis_rows"]), ("conclusion", dom["conclusion_rows"]))
    rows = [
        _row(f"{side}[{i}]", est=r["difference"], target=0.0, verdict=r["verdict"])
        for side, probes in sides
        for i, r in enumerate(probes)
    ]
    doubled = PointCloud(start[None, :], np.array([2.0]))
    control = domination_check(
        triplet, doubled, nu, [e_ball(model, start, 1.0)], [], beta, samples, rng
    )
    rows.append(_flag("doubled_mass_rejected", not control["hypothesis_ok"], samples))
    return rows + [_gate("domination", (_verdicts(rows, not_fail=True), 0))]


def tail_projection(params, samples, rng):
    """Criterion 10: E||Z_1 - Q_n Z_1||_E^2 matches its closed form and does
    not increase in n for the Brownian triplet, and strictly decreases for
    the embedded Poisson triplet."""
    model, triplet = _brownian(_DIM)
    rep = projection_convergence(triplet, 1.0, (4, 8, 16), samples, rng)
    rows = [
        _row(f"tail_norm[n={r['n']}]", est=r["estimate"], target=r["target"], verdict=r["verdict"])
        for r in rep["rows"]
    ]
    rows.append(_flag("tail_decreasing", rep["decreasing"], samples))
    poisson = poisson_example_triplet(model.dim)
    rep = projection_convergence(poisson, 1.0, (4, 8, 16), samples, rng)
    means = [r["estimate"].mean for r in rep["rows"]]
    rows += [_row(f"poisson_tail_norm[n={r['n']}]", est=r["estimate"]) for r in rep["rows"]]
    strict = all(b < a for a, b in zip(means, means[1:]))
    rows.append(_flag("poisson_tail_strictly_decreasing", strict, samples))
    return rows + [_gate("tails", (_verdicts(rows), 0))]


def polarity(params, samples, rng):
    """Criterion 12, points and the Cameron-Martin space H are polar: the
    shrinking-target diagnostic (`polarity_diagnostic`) from e1 must read
    "consistent with polarity" for E-balls around the origin and for H-balls
    under the Brownian and the jump triplet (`samples` paths a target), and
    "not consistent" for two negative controls whose motion is recurrent:
    the E-balls' radii seen through the first coordinate alone, and the
    H-balls under a Brownian line through 0 (only c1 moves).  A control is
    rejected only when its band, 3 z hypot(se), is below its gap of about
    0.4, so it runs 4 * `samples` paths, 400 at the floor.  The last check
    is E|e1 + Z_1|_H^2 = 1 + N.

    Each family keeps its own grid and horizon.  A 32-d path that has
    entered no H-ball by t = 0.1 is out near |z|_H = 2 and returns to the
    largest with probability about (0.98/2)^30 < 1e-9; a 1-d view enters
    the interval of radius r with probability 2 Phi(-(1 - r)/sqrt(40)), 0.88
    or more, by t = 40."""
    model, triplet = _brownian(_DIM)
    dim, e1 = model.dim, model.basis_vector(1)
    origin = np.zeros(dim)
    radii = (0.45, 0.15, 0.05)
    e_balls = [e_ball(model, origin, r) for r in radii]
    intervals = [coord_ball(model, origin, r, 1) for r in radii]
    h_balls = [h_ball(model, r) for r in (0.98, 0.9, 0.1)]
    short, long = PathConfig(dt=0.002, horizon=0.1), PathConfig(dt=0.05, horizon=40.0)
    families = (  # label, law, targets, grid, polar
        ("point|E-balls", triplet, e_balls, PathConfig(dt=0.01, horizon=2.0), True),
        ("point|coordinate_1", triplet, intervals, PathConfig(dt=0.01, horizon=40.0), False),
        ("H|brownian", triplet, h_balls, short, True),
        ("H|jump", _jump_triplet(dim), h_balls, short, True),
        ("H|line", LevyTriplet(model, origin, e1), h_balls, long, False),
    )
    rows = []
    for label, law, targets, cfg, polar in families:
        n = samples if polar else 4 * samples
        rep = polarity_diagnostic(law, targets, e1, n, cfg, rng)
        rows += [_row(f"hit[{label},{r['target']}]", est=r["estimate"]) for r in rep["rows"]]
        want = "consistent with polarity" if polar else "not consistent"
        rows.append(_flag(f"verdict[{label}]={want.replace(' ', '_')}", rep["verdict"] == want, n))
    incr = sample_increments(triplet, 1.0, samples, rng)
    est = McEstimate.from_samples(model.h_norm2(e1 + incr))
    rows.append(_check("h_norm2_mean[t=1]", est, 1.0 + dim))
    return rows + [_gate("polarity", (_verdicts(rows), 0))]


def _growth_certified(dim) -> bool:
    """Whether `build_growth_basis` certifies the canonical x of `dim`
    coordinates, as capacity_basics' q_x needs."""
    model = make_space(dim)
    try:
        build_growth_basis(model, canonical_x(model))
    except PreconditionError:
        return False
    return True


# the `parameters` keys each experiment reads, the only settings the two
# shipped configs give different values, each with the least value it
# takes; the others read none, and the harness rejects any other key
PARAMETERS = {
    "gaussian_lyapunov": {"points": 1},
    "levy_sandwich": {"points": 1},
    "capacity_basics": {"dim": next(d for d in itertools.count(1) if _growth_certified(d))},
    "balayage": {"dim": 1},
}

REGISTRY = {
    "variance_identity": variance_identity,
    "gaussian_lyapunov": gaussian_lyapunov,
    "levy_sandwich": levy_sandwich,
    "moment_pointmass": moment_pointmass,
    "moment_poisson01": moment_poisson01,
    "projection_identity": projection_identity,
    "reduced_projection": reduced_projection,
    "dirichlet_slab": dirichlet_slab,
    "dirichlet_oracles": dirichlet_oracles,
    "controlled_convergence": controlled_convergence,
    "capacity_basics": capacity_basics,
    "balayage": balayage,
    "domination": domination,
    "tail_projection": tail_projection,
    "polarity": polarity,
}
