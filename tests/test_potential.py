"""Hitting simulation, reduced functions, capacity, balayage, domination."""

import math
import tracemalloc
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

from levylab import passage, potential
from levylab.dirichlet import e_ball_domain
from levylab.lyapunov import gaussian_norm
from levylab.measures import (
    BAND_Z,
    JumpMeasure,
    LevyTriplet,
    McEstimate,
    brownian_triplet,
    poisson_example_triplet,
)
from levylab.operators import TestFunction
from levylab.potential import (
    PathConfig,
    PointCloud,
    TargetSet,
    balayage_check,
    capacity,
    capacity_tightness_profile,
    coord_ball,
    coord_halfspace,
    coordinate_box,
    discounted_occupancy,
    domination_check,
    e_ball,
    e_ball_complement,
    empty_set,
    h_ball,
    horizon_bias_bound,
    level_crossing_times,
    multi_target_hit,
    polarity_diagnostic,
    projection_convergence,
    reduced_function_family,
    simulate_hit_batch,
    slab_complement,
    whole_space,
)
from levylab.rng import substream
from levylab.space import PreconditionError, build_growth_basis, canonical_x, make_space

ONE = TestFunction(lambda y: np.ones(y.shape[:-1]), bound=1.0, name="one")


@pytest.fixture(scope="module")
def setup():
    model = make_space(8)
    return model, brownian_triplet(model)


def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(dt=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        PathConfig(dt=2.0, horizon=1.0)


@pytest.mark.parametrize(
    "dt, horizon",
    [(math.nan, 1.0), (0.01, math.nan), (0.01, math.inf), (math.inf, math.inf), (-math.inf, 1.0)],
)
def test_path_config_rejects_non_finite(dt, horizon):
    """NaN passes every `<=` check silently (a NaN horizon would report
    every path as missed), and an infinite horizon has no step count."""
    with pytest.raises(ValueError, match="finite"):
        PathConfig(dt=dt, horizon=horizon)


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 4)), np.array([1.0]))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((1, 4)), np.array([-1.0]))


@pytest.mark.parametrize(
    "build",
    [
        lambda m: slab_complement(m, 1, math.nan, 1.0),
        lambda m: potential.box_complement(m, [-1.0, -1.0], [1.0, math.nan]),
        lambda m: coordinate_box(m, [math.nan], [1.0]),
    ],
    ids=["slab_complement", "box_complement", "coordinate_box"],
)
def test_nan_bounds_are_refused(setup, build):
    """Face passage would take a NaN face for a missing one, while the
    membership compares False with it everywhere."""
    with pytest.raises(ValueError, match="NaN"):
        build(setup[0])


def test_start_inside_target_hits_at_zero(setup):
    model, triplet = setup
    cfg = PathConfig(dt=0.1, horizon=1.0)
    hit, time, _ = simulate_hit_batch(
        triplet, np.zeros(8), e_ball(model, np.zeros(8), 1.0), cfg, 1, substream(0)
    )
    assert hit[0] and time[0] == 0.0


def test_whole_space_immediate(setup):
    model, triplet = setup
    cfg = PathConfig(dt=0.1, horizon=1.0)
    hit, time, _ = simulate_hit_batch(triplet, np.ones(8), whole_space(model), cfg, 1, substream(1))
    assert hit[0] and time[0] == 0.0


def test_no_hit_reports_inf(setup):
    model, triplet = setup
    cfg = PathConfig(dt=0.1, horizon=0.5)
    far = coord_halfspace(model, 1, 100.0, +1)
    hit, time, _ = simulate_hit_batch(triplet, np.zeros(8), far, cfg, 1, substream(2))
    assert not hit[0] and time[0] == np.inf


def test_gamblers_ruin_exit_split(setup):
    """P(exit right of (a,b)) = (x - a)/(b - a) for the first coordinate."""
    model, triplet = setup
    a, b, x = -1.0, 2.0, 0.5
    start = np.zeros(8)
    start[0] = x
    cfg = PathConfig(dt=0.01, horizon=40.0)
    target = slab_complement(model, 1, a, b)
    hit, _, loc = simulate_hit_batch(triplet, start, target, cfg, 4000, substream(3))
    assert hit.mean() > 0.999
    from levylab.measures import McEstimate

    right = McEstimate.from_samples((loc[hit][:, 0] >= b).astype(float))
    assert right.verdict((x - a) / (b - a)) == "pass"


def test_reduced_function_whole_space(setup):
    model, triplet = setup
    cfg = PathConfig(dt=0.1, horizon=1.0)
    (est,), _ = reduced_function_family(
        triplet, ONE, [whole_space(model)], 1.0, np.zeros(8), 200, cfg, substream(4)
    )
    assert est.mean == 1.0  # T = 0 under the D-convention


def test_reduced_function_beta_zero_guard(setup):
    model, triplet = setup
    cfg = PathConfig(dt=0.1, horizon=1.0)
    with pytest.raises(PreconditionError):
        reduced_function_family(
            triplet, ONE, [whole_space(model)], 0.0, np.zeros(8), 100, cfg, substream(5)
        )


def test_reduced_function_bounds_and_monotone(setup):
    """0 <= estimate <= sup v, and nested targets order per sample."""
    model, triplet = setup
    cfg = PathConfig(dt=0.02, horizon=6.0)
    small = coord_halfspace(model, 1, 1.5, +1)
    big = coord_halfspace(model, 1, 0.5, +1)
    ests, samples = reduced_function_family(
        triplet, ONE, [small, big], 1.0, np.zeros(8), 1500, cfg, substream(6)
    )
    assert np.all(samples >= 0.0) and np.all(samples <= 1.0)
    # big contains small: hit no later, discounted value no smaller
    assert np.all(samples[1] >= samples[0] - 1e-12)
    assert ests[1].mean >= ests[0].mean


def test_multi_target_ordering(setup):
    model, triplet = setup
    cfg = PathConfig(dt=0.05, horizon=4.0)
    t1 = coord_halfspace(model, 1, 0.5, +1)
    t2 = coord_halfspace(model, 1, 1.5, +1)
    times, locs = multi_target_hit(
        triplet, np.zeros(8), [t1, t2], cfg, 500, substream(7)
    )
    assert np.all(times[0] <= times[1])


def test_horizon_bias_bound():
    cfg = PathConfig(dt=0.1, horizon=50.0)
    assert horizon_bias_bound(1.0, 1.0, cfg) == pytest.approx(np.exp(-50.0))


def test_capacity_trivial_sets(setup):
    model, triplet = setup
    cfg = PathConfig(dt=0.1, horizon=5.0)
    cloud = PointCloud(np.zeros((1, 8)), np.array([2.0]))
    beta = 1.5
    empty = capacity(triplet, cloud, empty_set(model), beta, 200, cfg, substream(8))
    assert empty.mean == 0.0
    whole = capacity(triplet, cloud, whole_space(model), beta, 200, cfg, substream(8))
    assert whole.mean == pytest.approx(2.0 / beta)
    assert whole.stderr < 1e-12  # constant samples up to float roundoff


def test_targets_reading_no_coordinate_are_decided_at_time_zero(setup):
    """A target that reads no coordinate is decided by its membership at
    time 0 and draws nothing, whatever its name: one named "empty" that
    holds everywhere has the whole space's capacity, mass / beta."""
    model, triplet = setup
    cloud = PointCloud(np.zeros((2, 8)), np.array([1.0, 0.5]))
    named_empty = TargetSet("empty", lambda z: np.ones(z.shape[:-1], dtype=bool), coords=())
    rng = substream(97)
    est = capacity(triplet, cloud, named_empty, 2.0, 50, PathConfig(dt=0.1, horizon=1.0), rng)
    assert est.mean == 0.75 and est.stderr == 0.0
    est = capacity(triplet, cloud, empty_set(model), 2.0, 50, PathConfig(dt=0.1, horizon=1.0), rng)
    assert est.mean == 0.0 and est.stderr == 0.0
    assert rng.random() == substream(97).random()


def test_capacity_beta_validation(setup):
    model, triplet = setup
    cloud = PointCloud(np.zeros((1, 8)), np.array([1.0]))
    cfg = PathConfig(dt=0.1, horizon=1.0)
    M = coord_halfspace(model, 1, 1.0, +1)
    probes = [e_ball(model, np.zeros(8), 0.5)]
    calls = [
        lambda beta: capacity(triplet, cloud, whole_space(model), beta, 200, cfg, substream(0)),
        lambda beta: balayage_check(
            triplet, cloud, M, beta, [{"target": M, "inside": True}], 20, cfg, substream(0)
        ),
        lambda beta: domination_check(triplet, cloud, cloud, probes, probes, beta, 20, substream(0)),
        lambda beta: capacity_tightness_profile(
            _level_norm(model), triplet, cloud, [1.0], beta, 20, cfg, substream(0)
        ),
    ]
    for call in calls:
        for beta in (0.0, -1.0):
            with pytest.raises(PreconditionError, match="beta must be positive"):
                call(beta)


def test_halfspace_capacity_draws_no_hit_location(setup, monkeypatch):
    """capacity reads hit times alone, so a face-passage hit draws none of
    the other coordinates at its time (no draw with an array time).  A
    located hit of the same target draws them, so the count sees them."""
    model, triplet = setup
    timed = []
    draw = passage.sample_increments

    def counted(law, dt, n, rng):
        if np.ndim(dt) > 0:
            timed.append(n)
        return draw(law, dt, n, rng)

    monkeypatch.setattr(passage, "sample_increments", counted)
    cloud = PointCloud(np.zeros((1, 8)), np.array([1.0]))
    M = coord_halfspace(model, 1, 1.0, +1)
    est = capacity(triplet, cloud, M, 1.0, 300, PathConfig(dt=0.01, horizon=10.0), substream(29))
    assert est.mean > 0.0
    assert timed == []
    simulate_hit_batch(triplet, np.zeros(8), M, PathConfig(dt=0.01, horizon=10.0), 300, substream(29))
    assert timed


def test_capacity_tightness_decreasing(setup):
    model, triplet = setup
    growth_basis = build_growth_basis(model, canonical_x(model))
    norm = gaussian_norm(model, growth_basis)
    cfg = PathConfig(dt=0.05, horizon=15.0)
    cloud = PointCloud(np.zeros((1, 8)), np.array([1.0]))
    prof = capacity_tightness_profile(
        norm, triplet, cloud, [1.0, 2.0, 3.0], 1.0, 800, cfg, substream(9)
    )
    means = [p["estimate"].mean for p in prof]
    assert means[0] >= means[1] >= means[2]
    assert means[0] > 0.0


def _level_norm(model):
    return gaussian_norm(model, build_growth_basis(model, canonical_x(model)))


@pytest.mark.parametrize("horizon", [1.0, 0.95])
@pytest.mark.parametrize("shift", [0.0, 0.25])
def test_level_control_has_mean_zero(setup, horizon, shift):
    """Every control of the family, C = e^(-beta S) h(X_S) / h(z_0) - 1,
    has mean 0 at S = T_L ^ the last grid time, ceil(horizon / dt) dt (1.0
    for both horizons), misses included: 45-49% of the paths miss level 2
    by then.  A control that takes C = 0 for a miss reads z above 100 at
    level 2; one that stops the misses at the horizon 0.95, off the grid,
    fails that case, and so does a profile whose theta is not scaled to
    (1/2) sum theta^2 s^2 = beta."""
    model, triplet = setup
    cfg = PathConfig(dt=0.1, horizon=horizon)
    times, control = potential._level_control(
        _level_norm(model), triplet, np.full(8, shift), [1.0, 2.0], 1.0, cfg, 40000,
        substream(31, horizon, shift),
    )
    assert np.isinf(times[1]).mean() > 0.3
    assert control.shape == (2, len(potential._PAIRING_EXPONENTS) + 1, 40000)
    for row in control.reshape(-1, 40000):
        est = McEstimate.from_samples(row)
        assert abs(est.mean) < BAND_Z * est.stderr


def test_level_control_leaves_out_unmoved_profiles(setup):
    """A law that freezes coordinate 1 moves no form of the p = inf
    profile, the first growth pairing alone, so that control is left out;
    a law that moves nothing has no control and raises."""
    model, _ = setup
    g = np.ones(8)
    g[0] = 0.0
    cfg = PathConfig(dt=0.1, horizon=1.0)
    _, control = potential._level_control(
        _level_norm(model), LevyTriplet(model, np.zeros(8), g), np.zeros(8), [1.0], 1.0, cfg,
        50, substream(36),
    )
    assert control.shape == (1, len(potential._PAIRING_EXPONENTS), 50)
    still = LevyTriplet(model, np.zeros(8), np.zeros(8))
    with pytest.raises(PreconditionError, match="no form of any control profile"):
        potential._level_control(_level_norm(model), still, np.zeros(8), [1.0], 1.0, cfg, 50, substream(36))


def test_level_control_stops_at_the_engine_entries(setup, monkeypatch):
    """The entries the engine hands `observe` are the crossing times: a
    path is marked entered in a block exactly when its time falls in the
    block, at the step first points to.  The family's first control, the
    G-profile product, is bit for bit the single control computed from stops
    found by searching each block's grid times for the crossing times."""
    model, triplet = setup
    norm, cfg, beta = _level_norm(model), PathConfig(dt=0.05, horizon=3.0), 1.0
    start = np.full(8, 0.1)
    blocks = []
    crossing = potential.level_crossing_times

    def recorded(*args):
        inner = args[-1]

        def observe(t, idx, z, times, entries):
            blocks.append((t, idx.copy(), z.copy(), entries[0].copy(), entries[1].copy()))
            inner(t, idx, z, times, entries)

        return crossing(*args[:-1], observe)

    monkeypatch.setattr(potential, "level_crossing_times", recorded)
    times, control = potential._level_control(
        norm, triplet, start, [1.0, 2.0], beta, cfg, 500, substream(34)
    )
    assert np.isinf(times[1]).any() and np.isfinite(times[1]).any()
    # entries agree with times, for every target and live path of each block
    for t, idx, _, entered, first in blocks:
        tt = times[:, idx]
        assert np.array_equal(entered, (tt >= t[0]) & (tt <= t[-1]))
        assert np.array_equal(t[first[entered]], tt[entered])
    # the reference: stops searched in the times, the G profile evaluated
    basis = norm.growth_basis.basis
    w2 = 2.0 ** -np.arange(1, basis.shape[0] + 1)
    share = w2 * (basis**2 @ triplet.gaussian_diag)
    m = 1 + np.flatnonzero(share >= potential._CONTROL_SHARE * share.max())[-1]
    width = 1 + np.flatnonzero(basis[:m].any(axis=0))[-1]
    scaled = basis[:m, :width] * np.sqrt(2.0 * beta / share[:m].sum() * w2[:m])[:, None]

    def log_h(z):
        a = np.abs(scaled @ z.T)
        return a.sum(axis=0) + np.log((1.0 + np.exp(-2.0 * a)).prod(axis=0))

    t_end = int(np.ceil(cfg.horizon / cfg.dt)) * cfg.dt
    stopped = np.nonzero(times > 0)
    stops = np.minimum(times[stopped], t_end)
    points = []
    for li, path, stop in zip(*stopped, stops):
        t, idx, z, _, _ = next(b for b in blocks if b[0][0] <= stop <= b[0][-1])
        points.append(z[np.searchsorted(t, stop), np.searchsorted(idx, path), :width])
    expected = np.zeros_like(times)
    expected[stopped] = np.expm1(
        log_h(np.array(points)) - beta * stops - log_h(start[None, :width])[0]
    )
    assert np.array_equal(control[:, 0], expected)


def test_cross_fitted_falls_back_to_the_plain_samples():
    """Joint least squares on each half, applied to the other: b = 0 for a
    half whose design is singular (a control constant there, or two equal
    controls) or that has fewer than k + 2 columns, so the residuals there
    are the plain samples.  The residuals stay finite (a RuntimeWarning
    fails the test), and with a full design both halves are corrected."""
    rng = substream(35)
    n = 400
    y = rng.normal(size=(2, n))
    good = y + 0.5 * rng.normal(size=(2, n))
    noise = rng.normal(size=(2, n))
    constant = noise.copy()
    constant[:, : n // 2] = 0.25  # constant on the first half only
    resid = potential._cross_fitted(y, np.stack([good, constant], axis=1))
    assert np.all(np.isfinite(resid))
    assert np.array_equal(resid[:, n // 2 :], y[:, n // 2 :])  # fitted on the constant half
    assert not np.array_equal(resid[:, : n // 2], y[:, : n // 2])
    for c in (np.stack([good, good, noise], axis=1), np.stack([good, noise], axis=1)[..., :6]):
        m = c.shape[-1]
        resid = potential._cross_fitted(y[:, :m], c)
        assert np.all(np.isfinite(resid))
        assert np.array_equal(resid, y[:, :m])
    resid = potential._cross_fitted(y, np.stack([good, noise], axis=1))
    assert np.all(resid.var(axis=1) < 0.5 * y.var(axis=1))


def test_capacity_tightness_control_narrows_the_band(setup):
    """On the same paths, the corrected level estimates agree with the
    plain means e^(-T_L) within the plain band, and at level 2 the band is
    at least 1.5x narrower."""
    model, triplet = setup
    norm, cfg, levels = _level_norm(model), PathConfig(dt=0.05, horizon=15.0), [1.0, 2.0, 3.0]
    cloud = PointCloud(np.zeros((1, 8)), np.array([1.0]))
    prof = capacity_tightness_profile(norm, triplet, cloud, levels, 1.0, 2000, cfg, substream(32))
    times = level_crossing_times(norm, triplet, np.zeros(8), levels, cfg, 2000, substream(32))
    plain = [McEstimate.from_samples(np.exp(-t)) for t in times]  # exp(-inf) = 0
    for p, q in zip(prof, plain):
        assert abs(p["estimate"].mean - q.mean) <= BAND_Z * q.stderr
    assert 1.5 * prof[1]["estimate"].stderr <= plain[1].stderr


def test_capacity_tightness_needs_a_driftless_continuous_law(setup):
    """The cosh product is a martingale only without jumps and drift."""
    model, triplet = setup
    atoms = np.zeros((2, 8))
    atoms[:, 0] = (0.5, -0.5)
    jump = LevyTriplet(
        model, np.zeros(8), np.ones(8), JumpMeasure(intensity=1.0, kind="pointmass", atoms=atoms)
    )
    drift = LevyTriplet(model, np.full(8, 0.1), np.ones(8))
    cloud = PointCloud(np.zeros((1, 8)), np.array([1.0]))
    cfg = PathConfig(dt=0.1, horizon=1.0)
    for law in (jump, drift):
        with pytest.raises(PreconditionError, match="drift-free continuous"):
            capacity_tightness_profile(
                _level_norm(model), law, cloud, [1.0], 1.0, 30, cfg, substream(33)
            )


def test_level_crossing_monotone(setup):
    model, triplet = setup
    growth_basis = build_growth_basis(model, canonical_x(model))
    norm = gaussian_norm(model, growth_basis)
    cfg = PathConfig(dt=0.05, horizon=10.0)
    times = level_crossing_times(
        norm, triplet, np.zeros(8), [1.0, 2.0, 4.0], cfg, 300, substream(10)
    )
    assert np.all(times[0] <= times[1]) and np.all(times[1] <= times[2])


def test_level_crossing_keeps_no_locations():
    """Crossing times alone: the peak memory does not grow with the levels
    by the (levels, paths, N) hit locations, which the caller never reads.
    At 3 levels x 1000 paths x N=32 those are 768 KB; the path state and
    q_x's temporaries, the same for any number of levels, come on top."""
    model = make_space(32)
    norm = gaussian_norm(model, build_growth_basis(model, canonical_x(model)))
    cfg = PathConfig(dt=0.05, horizon=20.0)

    def peak(levels):
        tracemalloc.start()
        try:
            level_crossing_times(
                norm, brownian_triplet(model), np.zeros(32), levels, cfg, 1000, substream(30)
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_level_locations = 1000 * 32 * 8
    assert peak([1.0, 2.0, 3.0]) - peak([1.0]) < one_level_locations


def test_balayage_atom_inside_M(setup):
    """Start inside open M: T = 0, swept measure equals the original."""
    model, triplet = setup
    M = coord_halfspace(model, 1, -1.0, +1)  # contains the origin
    nu = PointCloud(np.zeros((1, 8)), np.array([1.0]))
    F = coord_halfspace(model, 1, 0.5, +1)
    cfg = PathConfig(dt=0.05, horizon=6.0)
    rep = balayage_check(
        triplet, nu, M, 1.0,
        [{"target": F, "inside": True}], 400, cfg, substream(11),
    )
    assert rep["per_sample_inequality"]
    assert rep["carrier_ok"]
    row = rep["rows"][0]
    assert row["difference"].mean == 0.0
    assert row["verdict"] == "pass"


def test_balayage_atom_outside_M(setup):
    model, triplet = setup
    M = coord_halfspace(model, 1, 1.0, +1)
    nu = PointCloud(np.zeros((1, 8)), np.array([1.0]))
    F_in = coord_halfspace(model, 1, 1.5, +1)
    F_out = coord_halfspace(model, 1, -0.5, -1)
    cfg = PathConfig(dt=0.02, horizon=10.0)
    rep = balayage_check(
        triplet, nu, M, 1.0,
        [{"target": F_in, "inside": True}, {"target": F_out, "inside": False}],
        800, cfg, substream(12),
    )
    assert rep["per_sample_inequality"]
    assert rep["carrier_ok"]
    assert rep["rows"][0]["verdict"] == "pass"  # equality on F inside M
    assert rep["rows"][1]["verdict"] != "fail"  # one-sided off M


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_balayage_carrier_holds_on_an_e_shell(setup, closed):
    """Hits of an E-shell M are cut onto its sphere, on M's side of it: they
    lie in M's closure, the carrier of the swept measure, open M or not."""
    model, triplet = setup
    M = e_ball_complement(model, np.zeros(8), 1.0, closed=closed)
    nu = PointCloud(np.zeros((1, 8)), np.array([1.0]))
    F = e_ball_complement(model, np.zeros(8), 1.5)
    cfg = PathConfig(dt=0.02, horizon=12.0)
    rep = balayage_check(triplet, nu, M, 1.0, [{"target": F, "inside": True}], 400, cfg, substream(15))
    assert rep["carrier_ok"] and not rep["degenerate"]


def _in_closed_form(target, z):
    """Whether points z lie in the target's closed E-form set."""
    form = replace(target.e_form, closed=True)
    return form.holds(form.distance2(z))


def test_occupancy_e_shell_hits_land_in_the_closed_target(setup):
    """Every continuous hit of a closed E-shell lies in it exactly.  The
    cut used to round 115 of these 400 hits just inside the ball."""
    model, triplet = setup
    shell = e_ball_complement(model, np.zeros(8), 1.0, closed=True)
    cfg = PathConfig(dt=0.02, horizon=12.0)
    T, _, loc = discounted_occupancy(triplet, np.zeros(8), shell, [], 1.0, cfg, 400, substream(1))
    hits = np.isfinite(T)
    assert hits.sum() > 350 and _in_closed_form(shell, loc[hits]).all()


@pytest.mark.parametrize("dim", [4, 8], ids=["engine", "radial"])
def test_e_form_hits_land_in_the_closed_target(dim):
    """Every continuous E-form hit lies in its closed target: entries into
    an off-centre ball and exits of the open shell by `simulate_hit_batch`
    (the engine at 4 coordinates, the radial mode at 8), and two pending
    shells of `multi_target_hit`."""
    model = make_space(dim)
    triplet = brownian_triplet(model)
    start, center = np.zeros(dim), 3.0 * model.basis_vector(1)
    cfg = PathConfig(dt=0.02, horizon=8.0)
    for target in (e_ball(model, center, 1.0), e_ball_complement(model, start, 1.0)):
        hit, _, loc = simulate_hit_batch(triplet, start, target, cfg, 2000, substream(72, target.name))
        assert hit.mean() > 0.3 and _in_closed_form(target, loc[hit]).all()
    shells = [e_ball_complement(model, start, r) for r in (1.0, 1.5)]
    times, locs = multi_target_hit(triplet, start, shells, cfg, 2000, substream(73))
    for shell, t, loc in zip(shells, times, locs):
        hit = np.isfinite(t)
        assert hit.mean() > 0.5 and _in_closed_form(shell, loc[hit]).all()


def test_balayage_degenerate_warning(setup):
    model, triplet = setup
    M = coord_halfspace(model, 1, 50.0, +1)  # unreachable
    nu = PointCloud(np.zeros((1, 8)), np.array([1.0]))
    cfg = PathConfig(dt=0.1, horizon=1.0)
    rep = balayage_check(
        triplet, nu, M, 1.0,
        [{"target": M, "inside": True}], 100, cfg, substream(13),
    )
    assert rep["degenerate"]


def test_cloud_sums_report_the_draws_they_used(setup):
    """capacity, capacity_tightness_profile and balayage_check sum n paths
    from each point of the cloud, so each reports n x points samples."""
    model, triplet = setup
    cloud = PointCloud(np.array([np.zeros(8), np.full(8, 0.25)]), np.array([0.5, 0.5]))
    M = coord_halfspace(model, 1, 1.0, +1)
    cfg = PathConfig(dt=0.1, horizon=1.0)
    norm = gaussian_norm(model, build_growth_basis(model, canonical_x(model)))
    est = capacity(triplet, cloud, M, 1.0, 30, cfg, substream(14))
    prof = capacity_tightness_profile(norm, triplet, cloud, [1.0, 2.0], 1.0, 30, cfg, substream(14))
    rep = balayage_check(
        triplet, cloud, M, 1.0, [{"target": M, "inside": True}], 30, cfg, substream(14)
    )
    assert est.n_samples == 60
    assert [p["estimate"].n_samples for p in prof] == [60, 60]
    assert rep["rows"][0]["difference"].n_samples == 60


def test_domination_equal_measures_pass(setup):
    model, triplet = setup
    mu = PointCloud(np.zeros((1, 8)), np.array([1.0]))
    probes = [e_ball(model, np.zeros(8), 0.5), e_ball(model, np.ones(8) * 0.1, 0.4)]
    rep = domination_check(
        triplet, mu, mu, probes[:1], probes[1:], 1.0, 2000, substream(14)
    )
    assert rep["hypothesis_ok"]
    assert rep["conclusion_rows"] and all(r["verdict"] != "fail" for r in rep["conclusion_rows"])


def test_domination_negative_control(setup):
    """mu = 2 nu must fail the hypothesis gate."""
    model, triplet = setup
    nu = PointCloud(np.zeros((1, 8)), np.array([1.0]))
    mu = PointCloud(np.zeros((1, 8)), np.array([2.0]))
    probe = e_ball(model, np.zeros(8), 1.0)
    rep = domination_check(
        triplet, mu, nu, [probe], [probe], 1.0, 2000, substream(15)
    )
    assert not rep["hypothesis_ok"]
    assert rep["conclusion_rows"] == []


def test_polarity_point_trend(setup):
    """2-d shrinking-ball hit probabilities decrease with the radius."""
    model, triplet = setup
    y = np.zeros(8)
    start = np.zeros(8)
    start[0] = 1.0
    cfg = PathConfig(dt=0.01, horizon=2.0)
    balls = [coord_ball(model, y, r, 2) for r in (0.6, 0.3, 0.1)]
    rep = polarity_diagnostic(triplet, balls, start, 1500, cfg, substream(17))
    assert rep["verdict"] == "consistent with polarity"


def test_polarity_point_negative_control_1d(setup):
    """1-d projected motion keeps hitting small intervals: not polar."""
    model, triplet = setup
    y = np.zeros(8)
    start = np.zeros(8)
    start[0] = 0.5
    cfg = PathConfig(dt=0.01, horizon=4.0)
    intervals = [coord_ball(model, y, r, 1) for r in (0.4, 0.2, 0.1)]
    rep = polarity_diagnostic(triplet, intervals, start, 1200, cfg, substream(18))
    assert rep["verdict"] == "not consistent"


def test_polarity_H_structural(setup):
    """H-ball hit probabilities of the 8-d Brownian motion fall by more
    than half over the family; the moment identity behind them,
    E|z + Z_t|_H^2 = |z|_H^2 + N t, is a row of criterion 12."""
    model, triplet = setup
    start = np.zeros(8)
    start[0] = 1.0
    cfg = PathConfig(dt=0.002, horizon=0.1)
    balls = [h_ball(model, r) for r in (0.98, 0.9, 0.5)]
    rep = polarity_diagnostic(triplet, balls, start, 2000, cfg, substream(19))
    p = [row["estimate"].mean for row in rep["rows"]]
    assert p[0] > 0.3 and p[2] < 0.5 * p[0]
    assert rep["verdict"] == "consistent with polarity"


def test_polarity_H_band_uses_confidence(setup, monkeypatch):
    """A rise between radii inside 3·z·hypot(se) but beyond 3·hypot(se)
    still counts as shrinking."""
    model, triplet = setup
    n, fractions = 400, iter((0.5, 0.7, 0.1))  # hit fractions at rho = 2, 1, 0.5

    def fake_hits(triplet, z, target, cfg, n, rng, locate=True):
        return np.where(np.arange(n) < next(fractions) * n, 0.0, np.inf), None

    monkeypatch.setattr(potential, "_hit", fake_hits)
    balls = [h_ball(model, r) for r in (2.0, 1.0, 0.5)]
    start = 3.0 * model.basis_vector(1)
    cfg = PathConfig(dt=0.05, horizon=1.0)
    rep = polarity_diagnostic(triplet, balls, start, n, cfg, substream(21))
    a, b, _ = (row["estimate"] for row in rep["rows"])
    rise, se = b.mean - a.mean, np.hypot(a.stderr, b.stderr)
    assert 3 * se < rise <= 3 * NormalDist().inv_cdf(0.9995) * se
    assert rep["verdict"] == "consistent with polarity"


def test_polarity_draws_no_hit_location(setup, monkeypatch):
    """polarity_diagnostic reads the hit mask alone, so a coordinate-ball
    family draws none of the other coordinates at its hit times (no draw
    with an array time).  A coord_ball declares no faces, so its hits run
    on the engine, stepping c1 alone; a run without locate never calls
    `_draw_rest`.  A located hit of the largest one draws them, so the
    count sees them."""
    model, triplet = setup
    timed = []
    draw = passage.sample_increments

    def counted(law, dt, n, rng):
        if np.ndim(dt) > 0:
            timed.append(n)
        return draw(law, dt, n, rng)

    monkeypatch.setattr(passage, "sample_increments", counted)
    start = 0.5 * model.basis_vector(1)
    intervals = [coord_ball(model, np.zeros(8), r, 1) for r in (0.4, 0.2, 0.1)]
    rep = polarity_diagnostic(
        triplet, intervals, start, 300, PathConfig(dt=0.01, horizon=4.0), substream(23)
    )
    assert rep["rows"][0]["estimate"].mean > 0.5
    assert timed == []
    simulate_hit_batch(triplet, start, intervals[0], PathConfig(dt=0.01, horizon=4.0), 300, substream(23))
    assert timed


def test_polarity_start_inside_the_largest_target_is_refused(setup):
    model, triplet = setup
    balls = [h_ball(model, r) for r in (1.0, 0.5)]
    with pytest.raises(PreconditionError, match="inside the largest target"):
        polarity_diagnostic(
            triplet, balls, np.zeros(8), 100,
            PathConfig(dt=0.05, horizon=1.0), substream(22),
        )


def test_projection_convergence_gaussian(setup):
    model, triplet = setup
    rep = projection_convergence(triplet, 1.0, (2, 4, 8), 40_000, substream(20))
    assert rep["decreasing"]
    for row in rep["rows"]:
        assert row["verdict"] == "pass"
    # full projection leaves no tail
    assert rep["rows"][-1]["estimate"].mean == 0.0


def test_coordinate_box_membership():
    model = make_space(4)
    box = coordinate_box(model, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert bool(box(np.array([0.5, 0.5, 9.0, 9.0])))
    assert not bool(box(np.array([1.5, 0.5, 0.0, 0.0])))


def test_e_ball_complement_membership():
    model = make_space(4)
    shell = e_ball_complement(model, np.zeros(4), 1.0)
    assert not bool(shell(np.zeros(4)))
    far = np.zeros(4)
    far[0] = 10.0
    assert bool(shell(far))
    # a centre off the origin is subtracted; one at the origin is skipped
    moved = e_ball_complement(model, far, 1.0, closed=True)
    assert not bool(moved(far)) and bool(moved(np.zeros(4)))
    assert bool(e_ball(model, far, 1.0)(far)) and not bool(e_ball(model, far, 1.0)(np.zeros(4)))


def test_wald_identity_unstepped_coordinate(setup):
    """A slab in c1 steps c1 alone; c2 is drawn at the exit time, so its
    variance there is E[T] = (x - a)(b - x) (Wald's identity)."""
    model, triplet = setup
    a, b, x = -1.0, 2.0, 0.5
    start = np.zeros(8)
    start[0] = x
    cfg = PathConfig(dt=0.01, horizon=40.0)
    target = slab_complement(model, 1, a, b)
    hit, T, loc = simulate_hit_batch(triplet, start, target, cfg, 4000, substream(21))
    assert hit.all()
    expected = (x - a) * (b - x)
    assert McEstimate.from_samples(T).verdict(expected) == "pass"
    assert McEstimate.from_samples(loc[:, 1] ** 2).verdict(expected) == "pass"
    assert McEstimate.from_samples(loc[:, 1] ** 2 - T).verdict(0.0) == "pass"


def test_multi_target_joint_law(setup):
    """Nested c1 halfspaces: the unstepped c2 moves between the two hit
    locations as one trajectory, with variance E[T2 - T1]."""
    model, triplet = setup
    cfg = PathConfig(dt=0.02, horizon=20.0)
    near = coord_halfspace(model, 1, 0.5, +1)
    far = coord_halfspace(model, 1, 1.5, +1)
    times, locs = multi_target_hit(triplet, np.zeros(8), [near, far], cfg, 4000, substream(22))
    both = np.isfinite(times).all(axis=0)
    assert both.mean() > 0.5
    gap = times[1, both] - times[0, both]
    step2 = (locs[1, both, 1] - locs[0, both, 1]) ** 2
    assert McEstimate.from_samples(step2 - gap).verdict(0.0) == "pass"
    # independent draws from the start would give variance T1 + T2 instead
    total = times[0, both] + times[1, both]
    assert McEstimate.from_samples(step2 - total).verdict(0.0) == "fail"


# -- the hit planner ---------------------------------------------------------


@pytest.mark.parametrize("label", ["half_twice", "shell_whole"])
def test_multi_target_one_pending_takes_the_single_target_law(label):
    """On the 32-d model of the reduced-projection experiment, a halfspace
    passed twice as one object, and the E-shell with a target that every
    start lies in, leave one target M pending.  multi_target_hit then gives
    the law of the planner `_hit` on M (a z-test on independent streams of
    the hit probability, E[exp(-T)] and E[c1] at the hit), its very bytes
    on one stream, and the shared-trajectory orderings: the repeat shares
    its time, and the whole-space target is entered at time 0 at the start.
    Those are `simulate_hit_batch`'s bytes too, so both land a hit alike."""
    model = make_space(32)
    triplet = brownian_triplet(model)
    half = coord_halfspace(model, 1, 1.0, +1)
    shell = e_ball_complement(model, np.zeros(32), 1.5)
    whole = TargetSet("whole_proj", lambda z: np.ones(z.shape[:-1], dtype=bool), coords=())
    targets = {"half_twice": [half, half], "shell_whole": [shell, whole]}[label]
    M = targets[0]
    cfg = PathConfig(dt=0.02, horizon=8.0)
    start = np.zeros(32)
    times, locs = multi_target_hit(triplet, start, targets, cfg, 2000, substream(60, label))
    T, loc = potential._hit(triplet, start, M, cfg, 2000, substream(61, label))
    hit = np.isfinite(T)
    for a, b in (
        (np.isfinite(times[0]), hit),
        (np.exp(-times[0]), np.exp(-T)),
        (np.where(np.isfinite(times[0]), locs[0, :, 0], 0.0), np.where(hit, loc[:, 0], 0.0)),
    ):
        ea, eb = McEstimate.from_samples(a.astype(float)), McEstimate.from_samples(b.astype(float))
        diff = McEstimate(ea.mean - eb.mean, float(np.hypot(ea.stderr, eb.stderr)), a.size)
        assert diff.verdict(0.0) == "pass", label
    T1, loc1 = potential._hit(triplet, start, M, cfg, 2000, substream(60, label))
    assert times[0].tobytes() == T1.tobytes() and locs[0].tobytes() == loc1.tobytes()
    _, T2, loc2 = simulate_hit_batch(triplet, start, M, cfg, 2000, substream(60, label))
    assert times[0].tobytes() == T2.tobytes() and locs[0].tobytes() == loc2.tobytes()
    if targets[1] is M:
        assert times[1].tobytes() == times[0].tobytes() and np.array_equal(locs[1], locs[0])
    else:
        assert np.all(times[1] == 0.0) and np.all(locs[1] == start)


def test_equal_but_not_identical_targets_stay_on_the_engine(setup, monkeypatch):
    """Two halfspaces built alike are equal in every field but are not one
    object, so neither is resolved as a repeat: the call steps the engine
    once, for both, and takes no exact passage."""
    model, triplet = setup
    a, b = coord_halfspace(model, 1, 1.0, +1), coord_halfspace(model, 1, 1.0, +1)
    calls = []
    for name in ("_step_paths", "_face_passage"):
        fn = getattr(passage, name)
        monkeypatch.setattr(
            passage, name, lambda *x, fn=fn, name=name, **k: calls.append(name) or fn(*x, **k)
        )
    times, _ = multi_target_hit(
        triplet, np.zeros(8), [a, b], PathConfig(dt=0.02, horizon=4.0), 300, substream(62)
    )
    assert calls == ["_step_paths"]
    assert np.array_equal(times[0], times[1])  # one grid, one membership law


def test_two_pending_targets_keep_the_engine_bytes():
    """The box of the reduced-projection experiment and its c1 projection
    are two distinct pending targets: multi_target_hit is the engine run on
    both, byte for byte."""
    from levylab.suite import reduced_projection_cases

    model = make_space(32)
    triplet = brownian_triplet(model)
    (label, box, box1), = [c for c in reduced_projection_cases(model) if c[0] == "box2d|k=1"]
    cfg = PathConfig(dt=0.02, horizon=8.0)
    start = np.zeros(32)
    times, locs = multi_target_hit(triplet, start, [box, box1], cfg, 400, substream(63))
    t_ref, l_ref = passage._step_paths(
        triplet, start, lambda z: np.array([box(z), box1(z)]), (0, 1), cfg, 400, substream(63)
    )
    assert times.tobytes() == t_ref.tobytes() and locs.tobytes() == l_ref.tobytes()
    assert np.isfinite(times).any() and not np.isfinite(times).all()


def test_two_pending_e_shells_land_on_their_spheres():
    """Two pending E-ball complements of radius 1 and 1.5 share each path:
    every hit is cut onto its own sphere, as `simulate_hit_batch` cuts it,
    and the inner shell is hit no later than the outer one."""
    model = make_space(32)
    shells = [e_ball_complement(model, np.zeros(32), r) for r in (1.0, 1.5)]
    cfg = PathConfig(dt=0.02, horizon=8.0)
    times, locs = multi_target_hit(brownian_triplet(model), np.zeros(32), shells, cfg, 1000, substream(70))
    hit = np.isfinite(times)
    assert hit[1].mean() > 0.5 and np.all(hit[0] >= hit[1])
    for i, r2 in enumerate((1.0, 2.25)):
        np.testing.assert_allclose(model.e_norm2(locs[i, hit[i]]), r2, rtol=1e-9)
    assert np.all(times[0] <= times[1])


def test_reduced_function_reads_v_on_the_sphere():
    """v = ||z||_E^2 with the bound 2.25 holds at every hit of the shell of
    E-radius 1.5: the hits are cut onto it, not read one grid step past."""
    model = make_space(32)
    v = TestFunction(model.e_norm2, bound=2.25)
    shell = e_ball_complement(model, np.zeros(32), 1.5)
    cfg = PathConfig(dt=0.02, horizon=8.0)
    _, samples = reduced_function_family(
        brownian_triplet(model), v, [shell, whole_space(model)], 1.0, np.zeros(32), 400, cfg,
        substream(71),
    )
    assert np.count_nonzero(samples[0]) > 200 and np.all(samples[0] <= 2.25)


def test_occupancy_hits_lie_on_the_face(setup):
    """discounted_occupancy lands each Brownian hit of c1 >= 1 on the face
    c1 = 1 exactly, inside the closed halfspace."""
    model, triplet = setup
    M, F = coord_halfspace(model, 1, 1.0, +1), coord_halfspace(model, 1, -0.5, -1)
    cfg = PathConfig(dt=0.02, horizon=12.0)
    T, _, loc = discounted_occupancy(triplet, np.zeros(8), M, [F], 1.0, cfg, 400, substream(72))
    hit = np.isfinite(T)
    assert hit.mean() > 0.5 and np.all(loc[hit, 0] == 1.0)


def test_multi_target_all_at_time_zero_draws_nothing(setup):
    """Targets that every start lies in, one of them repeated, hit at time
    0 at the start, and the stream is left untouched."""
    model, triplet = setup
    whole, wide = whole_space(model), e_ball(model, np.zeros(8), 10.0)
    starts = 0.1 * substream(64).standard_normal((50, 8))
    rng = substream(65)
    times, locs = multi_target_hit(
        triplet, starts, [whole, wide, whole], PathConfig(dt=0.02, horizon=4.0), 50, rng
    )
    assert rng.random(4).tobytes() == substream(65).random(4).tobytes()
    assert np.all(times == 0.0) and np.array_equal(locs, np.broadcast_to(starts, (3, 50, 8)))


def test_fallback_agreement_undeclared_coords(setup):
    """The same halfspace with coords=None steps every coordinate; both
    engine runs agree on the discounted hit value and on c2 at the hit.
    bridge=False keeps the declared halfspace off exact passage, so both
    are monitored on the same grid."""
    model, triplet = setup
    cfg = PathConfig(dt=0.02, horizon=10.0, bridge=False)
    declared = coord_halfspace(model, 1, 1.0, +1)
    undeclared = replace(declared, coords=None)

    def stats(target, seed):
        hit, T, loc = simulate_hit_batch(triplet, np.zeros(8), target, cfg, 3000, substream(seed))
        disc = McEstimate.from_samples(np.exp(-T))  # T = inf on a miss
        c2 = McEstimate.from_samples(np.where(hit, loc[:, 1] ** 2, 0.0))
        return disc, c2

    for fast, slow in zip(stats(declared, 23), stats(undeclared, 24)):
        diff = McEstimate(fast.mean - slow.mean, float(np.hypot(fast.stderr, slow.stderr)), 3000)
        assert diff.verdict(0.0) == "pass"


def test_face_coords_must_be_declared():
    with pytest.raises(ValueError):
        TargetSet("bad", lambda z: z[..., 1] > 0, faces=((1, 0.0, +1),), coords=(0,))


def test_occupancy_counts_every_grid_time_once(setup):
    """F = whole space: every path's occupancy is the grid sum over the
    steps 1..k-1 before its hit step k (k = ceil(H/dt) + 1 for a miss),
    whatever the block boundaries."""
    model, triplet = setup
    beta, cfg = 0.7, PathConfig(dt=0.02, horizon=3.01)  # 151 steps
    n_steps = int(np.ceil(cfg.horizon / cfg.dt))
    M = coord_halfspace(model, 1, 0.5, +1)
    F = replace(whole_space(model), coords=None)  # reads all 8 coordinates, so all are stepped
    for n in (50, 3000):  # blocks of 81 steps at first, and of one
        T, D, _ = discounted_occupancy(triplet, np.zeros(8), M, [F], beta, cfg, n, substream(25))
        k = np.where(np.isfinite(T), np.rint(T / cfg.dt), n_steps + 1).astype(int)
        assert 0 < np.isfinite(T).mean() < 1
        terms = np.exp(-beta * np.arange(1, n_steps + 1) * cfg.dt) * cfg.dt
        exact = np.concatenate([[0.0], np.cumsum(terms)])[k - 1]
        assert np.all(np.abs(D[0] - exact) < 1e-12)


def test_occupancy_stops_each_path_at_its_hit(setup, monkeypatch):
    """No path steps past its hit of M: the grid rows drawn are fewer than
    every path stepped to the horizon, and at least each path's steps up
    to its hit."""
    model, triplet = setup
    cfg = PathConfig(dt=0.02, horizon=20.0)
    n, n_steps = 200, int(np.ceil(cfg.horizon / cfg.dt))
    rows = []
    draw = passage.sample_increments

    def counted(law, dt, m, rng):
        if np.ndim(dt) == 0:  # grid steps, not the draws of unstepped coords at the hits
            rows.append(m)
        return draw(law, dt, m, rng)

    monkeypatch.setattr(passage, "sample_increments", counted)
    M, F = coord_halfspace(model, 1, 0.5, +1), coord_halfspace(model, 1, -0.5, -1)
    T, _, _ = discounted_occupancy(triplet, np.zeros(8), M, [F], 1.0, cfg, n, substream(28))
    steps = np.where(np.isfinite(T), np.rint(T / cfg.dt), n_steps)
    assert sum(rows) < n * n_steps
    assert sum(rows) >= steps.sum()


def _engine_hits(triplet, start, target, cfg, n, rng):
    """simulate_hit_batch on the stepping engine: the grid path that a
    halfspace or slab target would skip through exact face passage."""
    times, locs = passage._step_paths(
        triplet, start, lambda z: target(z)[None], target.coords, cfg, n, rng
    )
    return np.isfinite(times[0]), times[0], locs[0]


def test_hit_times_on_the_grid_within_horizon(setup, monkeypatch):
    model, triplet = setup
    cfg = PathConfig(dt=0.03, horizon=2.0)  # 67 steps, the last past the horizon
    n_steps = int(np.ceil(cfg.horizon / cfg.dt))
    rows = []
    draw = passage.sample_increments

    def counted(law, dt, n, rng):
        if np.ndim(dt) == 0:  # grid steps, not the terminal draw of unstepped coords
            rows.append(n)
        return draw(law, dt, n, rng)

    monkeypatch.setattr(passage, "sample_increments", counted)
    hit, T, _ = _engine_hits(
        triplet, np.zeros(8), coord_halfspace(model, 1, 0.8, +1), cfg, 300, substream(26)
    )
    assert 0.2 < hit.mean() < 1.0
    assert np.all(T[hit] == np.rint(T[hit] / cfg.dt) * cfg.dt)
    assert np.all((T[hit] > 0) & (T[hit] <= n_steps * cfg.dt))
    # a target no path reaches: every path draws exactly n_steps increments
    rows.clear()
    far = coord_halfspace(model, 1, 100.0, +1)
    _engine_hits(triplet, np.zeros(8), far, cfg, 20, substream(27))
    assert sum(rows) == 20 * n_steps


def test_block_steps_agree_with_single_steps(setup, monkeypatch):
    """Blocks of grid steps give the same law as one step per iteration:
    a slab exit monitored on the grid, an E-ball exit cut at the boundary,
    and two targets on shared paths."""
    model, triplet = setup
    slab = slab_complement(model, 1, -1.0, 2.0)
    ball = e_ball_domain(model, np.zeros(8), 1.0)
    near = coord_halfspace(model, 1, 0.5, +1)
    far = coord_halfspace(model, 2, -1.0, -1)

    def slab_case(rng):
        hit, T, loc = _engine_hits(
            triplet, np.zeros(8), slab, PathConfig(dt=0.01, horizon=40.0), 1500, rng
        )
        return [loc[:, 0], np.exp(-T)]

    def ball_case(rng):
        hit, T, loc = simulate_hit_batch(
            triplet, np.zeros(8), ball.exit_target, PathConfig(dt=0.01, horizon=20.0), 1500, rng
        )
        assert hit.all()
        return [loc[:, 0], np.exp(-T)]

    def multi_case(rng):
        times, locs = multi_target_hit(
            triplet, np.zeros(8), [near, far], PathConfig(dt=0.02, horizon=10.0), 1500, rng
        )
        return [locs[1, :, 0], *np.exp(-times)]

    for case in (slab_case, ball_case, multi_case):
        blocked = case(substream(28))
        with monkeypatch.context() as m:
            m.setattr(passage, "_BLOCK", 1)
            single = case(substream(29))
        for a, b in zip(blocked, single):
            ea, eb = McEstimate.from_samples(a), McEstimate.from_samples(b)
            diff = McEstimate(ea.mean - eb.mean, float(np.hypot(ea.stderr, eb.stderr)), a.size)
            assert diff.verdict(0.0) == "pass", case.__name__


def _sum_by_adds(path):
    for s in range(1, path.shape[0]):
        np.add(path[s], path[s - 1], out=path[s])


@pytest.mark.parametrize("shape", ["wide", "mid", "narrow"])
def test_prefix_sum_branches_give_identical_bytes(monkeypatch, shape):
    """Contiguous adds and np.cumsum sum a block to the same bytes: for one
    substream, the hit times and locations are bit-identical whichever of
    them sums every block.  At a budget of 32768 elements, a full-width
    E-ball over 400 paths starts with a wide block of 2 steps and a 2-d box
    over 300 paths with a block of 54 steps x 600 elements, which the
    engine sums by adds, and a one-coordinate halfspace over 50 paths
    starts with a deep block of 655 steps, which it sums by cumsum."""
    model = make_space(32)
    triplet = brownian_triplet(model)
    start = np.zeros(32)
    if shape == "wide":
        target, n, first = e_ball_complement(model, np.zeros(32), 1.0), 400, (2, 400, 32)
    elif shape == "mid":
        box = potential.box_complement(model, [-1.0, -1.0], [1.0, 1.0])
        target, n, first = box, 300, (54, 300, 2)
        start[:2] = (0.3, -0.2)
    else:
        target, n, first = coord_halfspace(model, 1, 1.0, +1), 50, (655, 50, 1)
    monkeypatch.setattr(passage, "_BLOCK", 32768)
    shapes = []
    engine_sum = passage._prefix_sum

    def recorded(path):
        shapes.append(path.shape)
        engine_sum(path)

    def run(prefix_sum):
        monkeypatch.setattr(passage, "_prefix_sum", prefix_sum)
        times, locs = passage._step_paths(
            triplet, start, lambda z: target(z)[None], target.coords,
            PathConfig(dt=0.01, horizon=10.0), n, substream(44, shape != "narrow"),
        )
        assert np.isfinite(times).any()
        return times.tobytes(), locs.tobytes()

    by_engine = run(recorded)
    assert shapes[0] == first
    assert run(_sum_by_adds) == by_engine
    assert run(lambda path: np.cumsum(path, axis=0, out=path)) == by_engine


@pytest.mark.parametrize("full_width", [False, True])
def test_blocks_stay_within_the_budget(monkeypatch, full_width):
    """Every grid-step draw holds B steps x live paths x stepped coordinates
    and stays within max(_BLOCK, live paths x stepped coordinates), and
    blocks of several steps fill more than half the budget: for a
    one-coordinate halfspace, and for a full-width E-ball whose 1200 paths
    step one at a time at first, each step over the budget."""
    model = make_space(32)
    triplet = brownian_triplet(model)
    if full_width:
        target, k = e_ball_complement(model, np.zeros(32), 1.0), 32
    else:
        target, k = coord_halfspace(model, 1, 1.0, +1), 1
    sizes, blocks = [], []
    draw = passage.sample_increments

    def counted(law, dt, n, rng):
        if np.ndim(dt) == 0:  # grid steps, not the terminal draw of unstepped coords
            sizes.append(n * law.model.dim)
        return draw(law, dt, n, rng)

    monkeypatch.setattr(passage, "sample_increments", counted)
    passage._step_paths(
        triplet, np.zeros(32), lambda z: target(z)[None], target.coords,
        PathConfig(dt=0.01, horizon=4.0), 1200, substream(45, full_width),
        observe=lambda t, idx, z, times, entries: blocks.append((t.size, idx.size)),
    )
    assert len(sizes) == len(blocks)
    for size, (nb, live) in zip(sizes, blocks):
        assert size == nb * live * k
        assert size <= max(passage._BLOCK, live * k)
    assert any(nb > 1 and size > passage._BLOCK // 2 for size, (nb, _) in zip(sizes, blocks))


def test_refine_sees_the_entering_step(setup, monkeypatch):
    """The planner's cut(z_in, z_out) gets the two grid points around the
    entry, also deep inside a block: c8 barely moves the E-norm, so its
    change between them is close to N(0, dt)."""
    model, triplet = setup
    monkeypatch.setattr(passage, "_BLOCK", 2**20)
    seen = []

    def refine(z_in, z_out):
        seen.append(z_out - z_in)
        return z_out

    monkeypatch.setattr(potential, "_boundary_cut", lambda *_: refine)
    cfg = PathConfig(dt=0.01, horizon=20.0)
    shell = e_ball_complement(model, np.zeros(8), 1.0)
    times, _ = potential._hit(triplet, np.zeros(8), shell, cfg, 2000, substream(32))
    hit = np.isfinite(times)
    assert hit.all()
    step = np.concatenate(seen)[:, 7]
    assert McEstimate.from_samples(step**2 / cfg.dt).verdict(1.0) == "pass"


def _jump_law(model, cols=(0, 1)):
    """Unit Brownian part plus atoms +-(0.6, 0.5) in the coordinates `cols`
    at intensity 2: the jump law of the full_support_paths benchmark."""
    atoms = np.zeros((2, model.dim))
    atoms[0, list(cols)] = (0.6, 0.5)
    atoms[1, list(cols)] = (-0.6, -0.5)
    return LevyTriplet(
        model, np.zeros(model.dim), np.ones(model.dim),
        JumpMeasure(intensity=2.0, kind="pointmass", atoms=atoms),
    )


def _jump_slab_exits(model, target, n, rng, bridge=False):
    """Exits of the jump law from the slab -1 < c1 < 1.5, started at c1 =
    0.25: on the grid engine, or by exact passage with bridge."""
    start = np.zeros(model.dim)
    start[0] = 0.25
    hit, T, loc = simulate_hit_batch(
        _jump_law(model), start, target, PathConfig(dt=0.01, horizon=40.0, bridge=bridge), n, rng
    )
    assert hit.all()
    return T, loc


def test_jump_unstepped_coordinate_wald(setup):
    """The slab steps c1 and the jumps' c2 alone; c3 is drawn at the exit
    time as a unit Brownian coordinate, so E[c3^2] = E[T] (Wald)."""
    model, _ = setup
    T, loc = _jump_slab_exits(model, slab_complement(model, 1, -1.0, 1.5), 4000, substream(33))
    assert McEstimate.from_samples(loc[:, 2] ** 2 - T).verdict(0.0) == "pass"


def test_jump_stepped_coordinates_covary(setup):
    """c1 c2 - 0.6 t is a martingale: the jumps move c1 and c2 together at
    rate 2 * 0.6 * 0.5, so E[c1 c2] = 0.6 E[T] at the exit.  Drawing c2
    apart from c1 would give E[c1 c2] = 0."""
    model, _ = setup
    T, loc = _jump_slab_exits(model, slab_complement(model, 1, -1.0, 1.5), 4000, substream(34))
    assert McEstimate.from_samples(loc[:, 0] * loc[:, 1] - 0.6 * T).verdict(0.0) == "pass"


def test_jump_restriction_agrees_with_full_stepping(setup):
    """Stepping c1 and c2 alone, from the law's marginal on them, and
    stepping every coordinate (coords=None) give the same law of exp(-T),
    of the overshoot c1 and of c2 at exit."""
    model, _ = setup
    slab = slab_complement(model, 1, -1.0, 1.5)
    law = _jump_law(model)
    assert law.carried(slab.coords).tolist() == [0, 1]
    np.testing.assert_array_equal(law.marginal([0, 1]).jumps.atoms, law.jumps.atoms[:, :2])

    def stats(target, seed):
        T, loc = _jump_slab_exits(model, target, 3000, substream(seed))
        return [McEstimate.from_samples(x) for x in (np.exp(-T), loc[:, 0], loc[:, 1], loc[:, 1] ** 2)]

    for fast, slow in zip(stats(slab, 35), stats(replace(slab, coords=None), 36)):
        diff = McEstimate(fast.mean - slow.mean, float(np.hypot(fast.stderr, slow.stderr)), 3000)
        assert diff.verdict(0.0) == "pass"


def test_jump_support_sets_the_stepped_coordinates(setup, monkeypatch):
    """The support is the nonzero atom columns for pointmass and every
    column for poisson01; a c1 target under atoms in (c1, c3) steps
    {c1, c3} with the atoms restricted to them, and the rest carry no jumps."""
    model, _ = setup
    jump13 = _jump_law(model, cols=(0, 2))
    assert jump13.jumps.support(8).tolist() == [0, 2]
    assert JumpMeasure(1.0, "poisson01").support(8).tolist() == list(range(8))
    steps, rests = [], []
    draw = passage.sample_increments

    def recorded(law, dt, n, rng):
        (steps if np.ndim(dt) == 0 else rests).append(law)
        return draw(law, dt, n, rng)

    monkeypatch.setattr(passage, "sample_increments", recorded)
    cfg = PathConfig(dt=0.05, horizon=1.0, bridge=False)  # the engine, not exact passage
    simulate_hit_batch(jump13, np.zeros(8), coord_halfspace(model, 1, 1.0, +1), cfg, 50, substream(37))
    assert steps and all(law.model.dim == 2 for law in steps)
    np.testing.assert_array_equal(steps[0].jumps.atoms, jump13.jumps.atoms[:, [0, 2]])
    assert rests and all(law.model.dim == 6 and law.jumps is None for law in rests)
    steps.clear()
    poisson = poisson_example_triplet(8)
    simulate_hit_batch(poisson, np.zeros(8), coord_halfspace(poisson.model, 1, 1.0, +1), cfg, 50, substream(38))
    assert steps and all(law.model.dim == 8 for law in steps)


@pytest.mark.parametrize("law", ["brownian", "jump"])
def test_restricted_exit_memory_stays_flat(law):
    """Stepping a c1 slab on its own coordinates (c1, and c2 for the jumps)
    peaks no higher under tracemalloc than stepping all 32 (coords=None):
    the unstepped coordinates are drawn straight into the returned arrays,
    in chunks of consecutive paths."""
    model = make_space(32)
    triplet = _jump_law(model) if law == "jump" else brownian_triplet(model)
    start = np.zeros(32)
    start[0] = 0.25
    slab = slab_complement(model, 1, -1.0, 1.5)
    cfg = PathConfig(dt=0.01, horizon=40.0)

    def peak(target):
        tracemalloc.start()
        try:
            simulate_hit_batch(triplet, start, target, cfg, 1500, substream(39))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(slab) <= peak(replace(slab, coords=None))


def test_rows_started_inside_draw_nothing(setup):
    """A row that starts inside its target hits at time 0 (D-convention) and
    is never live, so it draws nothing: adding such rows to a batch of
    per-path starts leaves every other row's times and locations
    bit-identical.  Covers an E-ball exit cut at the boundary, a slab on
    the grid engine and two targets on shared paths."""
    model, triplet = setup
    rng = substream(41)
    n = 300
    base = 0.1 * rng.standard_normal((n, 8))
    base[:, 0] = 0.3
    ball = e_ball_domain(model, np.zeros(8), 1.0)
    slab = slab_complement(model, 1, -1.0, 1.5)
    near, far = coord_halfspace(model, 1, 0.8, +1), coord_halfspace(model, 2, -0.5, -1)
    outside = np.zeros(8)
    outside[:2] = (3.0, -1.0)  # beyond the ball, the slab and both halfspaces
    cases = {
        "e_ball": (ball.exit_target, lambda z, m, r: simulate_hit_batch(
            triplet, z, ball.exit_target, PathConfig(dt=0.01, horizon=3.0), m, r)[1:]),
        "slab": (slab, lambda z, m, r: _engine_hits(
            triplet, z, slab, PathConfig(dt=0.01, horizon=2.0), m, r)[1:]),
        "two_targets": (None, lambda z, m, r: multi_target_hit(
            triplet, z, [near, far], PathConfig(dt=0.02, horizon=4.0), m, r)),
    }
    inserted = np.array([0, 0, 150, n])  # np.insert positions: front, middle, end
    for name, (target, run) in cases.items():
        starts = np.insert(base, inserted, outside, axis=0)
        assert target is None or target(outside)
        others = np.ones(starts.shape[0], dtype=bool)
        others[inserted + np.arange(inserted.size)] = False
        t0, loc0 = run(base, n, substream(42, name))
        t1, loc1 = run(starts, starts.shape[0], substream(42, name))
        assert np.all(t1[..., ~others] == 0.0), name
        assert t1[..., others].tobytes() == t0.tobytes(), name
        assert loc1[..., others, :].tobytes() == loc0.tobytes(), name
        assert np.isfinite(t0).any() and not np.isfinite(t0).all(), name  # hits and misses


@pytest.mark.parametrize(
    "radial, center_c32", [(True, 0.0), (False, 0.0), (False, 0.5)], ids=["True", "False", "off_centre"]
)
def test_full_width_exit_memory(monkeypatch, radial, center_c32):
    """A full-width E-ball exit (1000 paths x 32 coordinates, cut at the
    boundary) peaks under tracemalloc within 5.25 blocks of 1000 x 32
    floats.  From the centre it takes the radial mode (3.87 measured).  A
    start whose tail coordinate c32 differs from the centre's by 0.5
    refuses that mode, and the engine peaks at 5.20: the starts, the entry
    points, the live positions, the drawn block and the membership's
    squares.  A centred ball subtracts nothing; an off-centre one squares
    its difference from the centre in place, so it peaks at 5.19 (6.22
    when it squared into a second temporary, 5.43 with a broadcast
    subtraction's iteration buffer).  Before the live set was compacted
    the engine peaked at 6.16.  Holding one more copy of the positions or
    of a block through the membership call adds a whole block."""
    model = make_space(32)
    center = np.zeros(32)
    center[31] = center_c32
    ball = e_ball_domain(model, center, 1.0)
    start = np.zeros(32)
    if not radial:
        start[31] = 0.5 - center_c32  # moves the E-norm by 4^-32 / 4
    taken = []
    radial_passage = passage._radial_passage
    monkeypatch.setattr(
        passage, "_radial_passage", lambda *a: taken.append(1) or radial_passage(*a)
    )
    cfg = PathConfig(dt=0.01, horizon=4.0)
    tracemalloc.start()
    try:
        hit, _, _ = simulate_hit_batch(brownian_triplet(model), start, ball.exit_target, cfg, 1000, substream(43))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bool(taken) == radial
    assert 0.5 < hit.mean() < 1.0  # exits inside blocks and paths live at the horizon
    assert peak <= 5.25 * 1000 * 32 * 8


@pytest.mark.parametrize("nonzero", [1, 32])
def test_off_centre_norm_is_the_difference_norm(monkeypatch, nonzero):
    """An off-centre E-ball reads the zero-centred distance of z - c byte
    for byte, whether its centre is subtracted column by column (one
    nonzero coordinate) or in one pass (a dense centre, as `domination`'s
    probes have)."""
    model = make_space(32)
    rng = substream(44)
    center = np.zeros(32)
    center[:nonzero] = rng.standard_normal(nonzero)
    z = rng.standard_normal((1000, 32))
    seen = []
    holds = potential.EForm.holds
    monkeypatch.setattr(potential.EForm, "holds", lambda self, q: seen.append(q) or holds(self, q))
    ball = e_ball(model, center, 1.0)
    inside = ball(z)
    from_zero = replace(ball.e_form, center=np.zeros(32)).distance2(z - center)
    assert seen[0].tobytes() == from_zero.tobytes()
    assert (inside == (from_zero <= 1.0)).all()



# -- exact first passage through coordinate faces ------------------------------


def _scaled_law(model, g, drift=None):
    """Brownian law with variance rate g[k] in coordinate k (g may be a
    scalar) and the given drift (zero by default)."""
    g = np.broadcast_to(np.asarray(g, dtype=float), (model.dim,)).copy()
    return LevyTriplet(model, np.zeros(model.dim) if drift is None else drift, g)


@pytest.mark.parametrize("g", [0.25, 1.0, 4.0])
def test_halfspace_passage_reflection_law(g):
    """P(T <= t) = 2(1 - Phi(d / sqrt(g t))) for a face at distance d = 1,
    above and below the start, with no grid at all."""
    model = make_space(4)
    law = _scaled_law(model, g)
    cfg = PathConfig(dt=0.5, horizon=100.0)  # dt is never used
    for side in (+1, -1):
        target = coord_halfspace(model, 1, side * 1.0, side)
        hit, T, loc = simulate_hit_batch(law, np.zeros(4), target, cfg, 20_000, substream(51, g, side))
        assert np.all(loc[hit, 0] == side * 1.0)
        for t in (0.5, 2.0, 8.0):
            exact = 2.0 * (1.0 - NormalDist().cdf(1.0 / np.sqrt(g * t)))
            est = McEstimate.from_samples((T <= t).astype(float))
            assert est.verdict(exact) == "pass", (side, t)


def test_halfspace_non_exit_mass_short_horizon():
    """Over a short horizon H, the missed share is P(T > H) = 2 Phi(d /
    sqrt(g H)) - 1; a miss carries time inf and the start as its location."""
    model = make_space(4)
    g, H = 2.0, 0.3
    start = np.array([0.0, 0.7, -0.2, 0.1])
    hit, T, loc = simulate_hit_batch(
        _scaled_law(model, g), start, coord_halfspace(model, 1, 0.5, +1),
        PathConfig(dt=0.01, horizon=H), 20_000, substream(52),
    )
    exact = 2.0 * NormalDist().cdf(0.5 / np.sqrt(g * H)) - 1.0
    assert McEstimate.from_samples((~hit).astype(float)).verdict(exact) == "pass"
    assert np.all(T[hit] <= H) and np.all(T[~hit] == np.inf)
    assert np.all(loc[~hit] == start)


def test_slab_passage_exit_side_time_and_laplace():
    """The slab (-1, 2) from c1 = 0 at variance rate 1/2: exit right with
    probability (x - a)/(b - a) (gambler's ruin), E T = (x - a)(b - x)/g,
    and E exp(-sT) = cosh((x - m) k) / cosh(h k) with k = sqrt(2s/g), m the
    midpoint and h the half-width.  Every path exits exactly on a face."""
    model = make_space(4)
    a, b, x, g = -1.0, 2.0, 0.0, 0.5
    start = np.zeros(4)
    start[0] = x
    hit, T, loc = simulate_hit_batch(
        _scaled_law(model, g), start, slab_complement(model, 1, a, b),
        PathConfig(dt=0.01, horizon=1e6), 20_000, substream(53),
    )
    assert hit.all() and np.all((loc[:, 0] == a) | (loc[:, 0] == b))
    right = McEstimate.from_samples((loc[:, 0] == b).astype(float))
    assert right.verdict((x - a) / (b - a)) == "pass"
    assert McEstimate.from_samples(T).verdict((x - a) * (b - x) / g) == "pass"
    m, h = (a + b) / 2, (b - a) / 2
    for s in (0.5, 2.0):
        k = np.sqrt(2.0 * s / g)
        exact = np.cosh((x - m) * k) / np.cosh(h * k)
        assert McEstimate.from_samples(np.exp(-s * T)).verdict(exact) == "pass", s


def test_face_passage_rest_coordinates_wald():
    """The coordinates off the face are drawn at the exit time: with
    variance rates g_k, E[c_k^2] = g_k E[T] (Wald), here for a slab exit
    with E T = (x - a)(b - x)/g_1."""
    model = make_space(4)
    g = np.array([1.5, 0.25, 2.0, 0.0])
    a, b, x = -1.0, 1.0, 0.25
    start = np.zeros(4)
    start[0] = x
    hit, T, loc = simulate_hit_batch(
        _scaled_law(model, g), start, slab_complement(model, 1, a, b),
        PathConfig(dt=0.01, horizon=1e6), 20_000, substream(54),
    )
    assert hit.all()
    mean_T = (x - a) * (b - x) / g[0]
    for k in (1, 2):
        assert McEstimate.from_samples(loc[:, k] ** 2).verdict(g[k] * mean_T) == "pass", k
        assert McEstimate.from_samples(loc[:, k] ** 2 - g[k] * T).verdict(0.0) == "pass", k
    assert np.all(loc[:, 3] == 0.0)  # no variance, no drift: it never moves


@pytest.mark.parametrize("kind", ["halfspace", "slab"])
def test_face_passage_starts_inside_draw_nothing(setup, kind):
    """A start on or beyond a face hits at time 0 where it is and draws
    nothing: a batch of such starts leaves the generator untouched, and
    inserting them among per-path starts leaves every other row's time and
    location bit-identical."""
    model, triplet = setup
    if kind == "halfspace":
        target, on_or_beyond = coord_halfspace(model, 1, 1.0, +1), (1.0, 3.0, 1.2)
    else:
        target, on_or_beyond = slab_complement(model, 1, -1.0, 1.0), (-1.0, 1.0, -2.5, 4.0)
    cfg = PathConfig(dt=0.01, horizon=0.5)
    inside = np.zeros((len(on_or_beyond), 8))
    inside[:, 0] = on_or_beyond
    inside[:, 1] = 0.3
    rng = substream(55, kind)
    hit, T, loc = simulate_hit_batch(triplet, inside, target, cfg, inside.shape[0], rng)
    assert hit.all() and np.all(T == 0.0) and np.array_equal(loc, inside)
    assert rng.random() == substream(55, kind).random()  # the stream is where it started
    base = 0.1 * substream(56).standard_normal((300, 8))
    starts = np.insert(base, [0, 100, 300], inside[:3], axis=0)
    others = np.ones(starts.shape[0], dtype=bool)
    others[[0, 101, 302]] = False
    _, t0, loc0 = simulate_hit_batch(triplet, base, target, cfg, 300, substream(57, kind))
    _, t1, loc1 = simulate_hit_batch(triplet, starts, target, cfg, starts.shape[0], substream(57, kind))
    assert np.isfinite(t0).any() and not np.isfinite(t0).all()  # hits and misses
    assert np.all(t1[~others] == 0.0)
    assert t1[others].tobytes() == t0.tobytes()
    assert loc1[others].tobytes() == loc0.tobytes()


def test_face_passage_takes_only_its_targets(setup, monkeypatch):
    """Exact passage needs the bridge setting, a target that reads only its
    face coordinates (a halfspace, a slab, a box), and no drift but a
    positive variance rate on each of them, under a continuous or jump law;
    every other case steps the engine."""
    model, triplet = setup
    calls = []
    exact = passage._face_passage

    def recorded(*args):
        calls.append(True)
        return exact(*args)

    monkeypatch.setattr(passage, "_face_passage", recorded)
    half = coord_halfspace(model, 1, 1.0, +1)
    drift1, drift2, flat1 = np.zeros(8), np.zeros(8), np.ones(8)
    drift1[0], drift2[1], flat1[0] = 0.5, 0.5, 0.0
    cfg = PathConfig(dt=0.05, horizon=1.0)
    cases = [
        (triplet, half, cfg, True),
        (triplet, slab_complement(model, 2, -1.0, 1.0), cfg, True),
        (_scaled_law(model, 1.0, drift2), half, cfg, True),
        (triplet, half, replace(cfg, bridge=False), False),
        (triplet, replace(half, coords=None), cfg, False),
        (triplet, potential.box_complement(model, [-1.0, -1.0], [1.0, 1.0]), cfg, True),
        (_scaled_law(model, 1.0, drift1), half, cfg, False),
        (_scaled_law(model, flat1), half, cfg, False),
        (_jump_law(model), half, cfg, True),
        (_jump_law(model), replace(half, coords=(0, 1)), cfg, False),
        (_scaled_law(model, 1.0, drift2), potential.box_complement(model, [-1.0, -1.0], [1.0, 1.0]), cfg, False),
    ]
    for i, (law, target, c, takes) in enumerate(cases):
        calls.clear()
        simulate_hit_batch(law, np.zeros(8), target, c, 20, substream(58, i))
        assert bool(calls) == takes, i


# -- the E-norm tail as one squared-Bessel radius -------------------------------


@pytest.mark.parametrize("kappa", [0.5, 5.0, 500.0])
@pytest.mark.parametrize("d", [2, 3, 24])
def test_von_mises_fisher_cosine_mean(kappa, d):
    """The sampler's cosine <mu, x> has the von Mises-Fisher mean, the
    ratio of int cos(t) e^{kappa cos t} sin^{d-2} t dt to the same integral
    without cos(t) over (0, pi), and every draw is a unit vector (to the
    rounding of projecting a normal draw nearly parallel to mu off mu)."""
    integrate = pytest.importorskip("scipy.integrate")
    rng = substream(60, kappa, d)
    n = 20000
    mu = rng.standard_normal((n, d))
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)
    x = passage._von_mises_fisher(mu, np.full(n, kappa), rng)
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, rtol=1e-9)

    def moment(p):
        f = lambda t: np.cos(t) ** p * np.exp(kappa * (np.cos(t) - 1)) * np.sin(t) ** (d - 2)
        return integrate.quad(f, 0, np.pi, points=[min(np.pi / 2, 10 / np.sqrt(kappa))])[0]

    cosine = McEstimate.from_samples((x * mu).sum(axis=1))
    assert cosine.verdict(moment(1) / moment(0)) == "pass"


def _radial_cases():
    """A 32-d model, its Brownian law and a centred closed exit target."""
    model = make_space(32)
    return model, brownian_triplet(model), e_ball_complement(model, np.zeros(32), 1.0, closed=True)


def test_radial_mode_takes_only_eligible_inputs():
    """Every ineligible input runs the engine unchanged: its hit times and
    locations are byte-identical to a direct `_step_paths` run on the same
    substream, with the same cut onto the sphere for a continuous law.  Refused are a drifted tail, unequal tail variance rates, a
    jump law, a start whose tail is off the centre's and a 6-d model, whose
    tail is one coordinate; the centred 32-d and 8-d Brownian exits take
    the mode with a head of 5."""
    model, triplet, shell = _radial_cases()
    assert passage._radial_head(triplet, shell, np.zeros(32)) == 5
    eight = make_space(8)
    assert passage._radial_head(
        brownian_triplet(eight), e_ball_complement(eight, np.zeros(8), 1.0), np.zeros(8)
    ) == 5
    drifted, unequal, off_centre = np.zeros(32), np.ones(32), np.zeros(32)
    drifted[20], unequal[31], off_centre[20] = 0.1, 2.0, 0.1
    small = make_space(6)
    cases = {
        "drifted": (LevyTriplet(model, drifted, np.ones(32)), shell, np.zeros(32)),
        "unequal": (LevyTriplet(model, np.zeros(32), unequal), shell, np.zeros(32)),
        "jump": (_jump_law(model), shell, np.zeros(32)),
        "off_centre": (triplet, shell, off_centre),
        "6-d": (brownian_triplet(small), e_ball_complement(small, np.zeros(6), 1.0), np.zeros(6)),
    }
    cfg = PathConfig(dt=0.02, horizon=3.0)
    for name, (law, target, start) in cases.items():
        assert passage._radial_head(law, target, start) == 0, name
        _, t0, loc0 = simulate_hit_batch(law, start, target, cfg, 200, substream(61, name))
        cut = potential._boundary_cut(law, target)
        times, locs = passage._step_paths(
            law, start, lambda z: target(z)[None], target.coords, cfg, 200, substream(61, name),
            cuts=[cut],
        )
        assert np.isfinite(t0).any(), name
        assert t0.tobytes() == times[0].tobytes(), name
        assert loc0.tobytes() == locs[0].tobytes(), name


def _engine_ball_exits(dim, rng):
    """Exits of the unit E-ball in `dim` coordinates from c2 = 0.3 on the
    full engine, cut at the boundary: the reference law of the radial mode.
    Both sides run to the horizon 40 (see `_same_exit_law`)."""
    model = make_space(dim)
    triplet = brownian_triplet(model)
    ball = e_ball_domain(model, np.zeros(dim), 1.0)
    start = np.zeros(dim)
    start[1] = 0.3
    cfg = PathConfig(dt=0.01, horizon=40.0)
    times, locs = passage._step_paths(
        triplet, start, lambda z: ball.exit_target(z)[None], None, cfg, 3000, rng,
        cuts=[potential._boundary_cut(triplet, ball.exit_target)],
    )
    return model, triplet, ball, start, cfg, times[0], locs[0]


@pytest.fixture(scope="module")
def engine_ball_exits():
    return _engine_ball_exits(32, substream(62))


def _same_exit_law(model, start, hit, T, loc, t_ref, loc_ref, tail_from):
    """P(T <= t) at t = 1, 3 and 6, E[c1] and E[c1^2] at the exit, and the
    E-norm^2 of the coordinates from `tail_from` on there agree.  Every path
    of both sides exits by the horizon of 40, and every exit of the mode lies
    on the sphere, cut by `_boundary_cut`.  P(T > 10) is about 0.013 on both sides,
    and P(T > t) falls by about 0.28 every 2.5, so a path stays in the ball
    past t = 40 with probability about 3e-9.  Over the 15000 paths the radial
    tests check (3000 engine and 3000 mode paths at 8-d, 3000 engine and
    6000 mode paths at 32-d), a false failure has probability about 5e-5."""
    assert np.isfinite(t_ref).all() and hit.all() and np.isfinite(T).all()
    np.testing.assert_allclose(model.e_norm2(loc), 1.0, rtol=1e-9)

    def stats(T, loc):
        tail = (loc[:, tail_from:] ** 2) @ model.weights[tail_from:]
        return [T <= 1.0, T <= 3.0, T <= 6.0, loc[:, 0], loc[:, 0] ** 2, tail]

    for i, (a, b) in enumerate(zip(stats(T, loc), stats(t_ref, loc_ref))):
        ea, eb = McEstimate.from_samples(a), McEstimate.from_samples(b)
        diff = McEstimate(ea.mean - eb.mean, float(np.hypot(ea.stderr, eb.stderr)), a.size)
        assert diff.verdict(0.0) == "pass", i


@pytest.mark.parametrize("head_fraction", [0.25, None], ids=["head2", "default"])
def test_radial_exit_law_matches_the_engine(monkeypatch, engine_ball_exits, head_fraction):
    """`simulate_hit_batch` out of a 32-d E-ball, stepping the tail as one radius,
    gives the engine's exit law: P(T <= t) at t = 1, 3 and 6, E[c1] and
    E[c1^2] at the exit, and the E-norm^2 of the tail c9..c32 there.  A head
    of 2 coordinates leaves most stops undecided, so many paths realize
    their tail, fail to enter and finish on the engine; the default head of
    5 hands off fewer."""
    model, triplet, ball, start, cfg, t_ref, loc_ref = engine_ball_exits
    if head_fraction is not None:
        monkeypatch.setattr(passage, "_HEAD_FRACTION", head_fraction)
    handed = []
    engine = passage._step_paths
    monkeypatch.setattr(
        passage, "_step_paths", lambda *a, **k: handed.append(a[5]) or engine(*a, **k)
    )
    hit, T, loc = simulate_hit_batch(triplet, start, ball.exit_target, cfg, 3000, substream(63, head_fraction))
    assert sum(handed) > (600 if head_fraction else 0)
    _same_exit_law(model, start, hit, T, loc, t_ref, loc_ref, 8)


def test_radial_exit_law_matches_the_engine_in_8_d():
    """An 8-d E-ball exit takes the radial mode with 5 head coordinates and
    a tail of 3, and gives the engine's exit law, as the 32-d one does."""
    model, triplet, ball, start, cfg, t_ref, loc_ref = _engine_ball_exits(8, substream(69))
    taken = []
    radial_passage = passage._radial_passage
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(passage, "_radial_passage", lambda *a: taken.append(a[-1]) or radial_passage(*a))
        hit, T, loc = simulate_hit_batch(triplet, start, ball.exit_target, cfg, 3000, substream(68))
    assert taken == [5]
    _same_exit_law(model, start, hit, T, loc, t_ref, loc_ref, 5)


def test_radial_ball_hits_match_the_engine():
    """A hit of the closed ball around (1.5, 0, ...) of E-radius 0.5 from
    the origin, which has the centre's tail, takes the radial mode, lands
    on the sphere and gives the engine's P(T <= t) at t = 1 and 4 and mean
    hit point c1, both cut onto the sphere where they enter."""
    model, triplet, _ = _radial_cases()
    centre = np.zeros(32)
    centre[0] = 1.5
    ball = e_ball(model, centre, 0.5)
    assert passage._radial_head(triplet, ball, np.zeros(32)) == 5
    cfg = PathConfig(dt=0.02, horizon=4.0)
    hit, T, loc = simulate_hit_batch(triplet, np.zeros(32), ball, cfg, 3000, substream(64))
    times, locs = passage._step_paths(
        triplet, np.zeros(32), lambda z: ball(z)[None], None, cfg, 3000, substream(65),
        cuts=[potential._boundary_cut(triplet, ball)],
    )
    np.testing.assert_allclose(model.e_norm2(loc[hit] - centre), 0.25, rtol=1e-9)
    pairs = ((T <= 1.0, times[0] <= 1.0), (T <= 4.0, times[0] <= 4.0), (loc[:, 0], locs[0, :, 0]))
    for a, b in pairs:
        ea, eb = McEstimate.from_samples(a), McEstimate.from_samples(b)
        diff = McEstimate(ea.mean - eb.mean, float(np.hypot(ea.stderr, eb.stderr)), a.size)
        assert diff.verdict(0.0) == "pass"


def test_radial_refine_sees_a_gaussian_tail_step(monkeypatch):
    """In the radial mode, the planner's cut(z_in, z_out) gets the realized
    points around the entry: the tail's step between them is the N(0, dt)
    step of each tail coordinate, |dz_tail|^2 / dt averaging 24 over
    c9..c32, and c8's step is N(0, dt) too.  (The few paths that finish on the engine add
    engine steps, which have the same law.)"""
    model, triplet, _ = _radial_cases()
    ball = e_ball_domain(model, np.zeros(32), 1.0)
    cfg = PathConfig(dt=0.01, horizon=20.0)
    seen = []
    exact = potential._boundary_cut(triplet, ball.exit_target)

    def refine(z_in, z_out):
        seen.append(z_out - z_in)
        return exact(z_in, z_out)

    monkeypatch.setattr(potential, "_boundary_cut", lambda *_: refine)
    times, _ = potential._hit(triplet, np.zeros(32), ball.exit_target, cfg, 2000, substream(67))
    hit = np.isfinite(times)
    step = np.concatenate(seen)
    assert hit.all() and step.shape == (2000, 32)
    tail = McEstimate.from_samples((step[:, 8:] ** 2).sum(axis=1) / cfg.dt)
    assert tail.verdict(24.0) == "pass"
    assert McEstimate.from_samples(step[:, 7] ** 2 / cfg.dt).verdict(1.0) == "pass"


# -- exact passage through several face coordinates and under jumps ------------


def _killed_mass(a, b, x, lo, hi, s):
    """P(a < X_t <= b and no exit by t) for a Brownian motion from x in (lo,
    hi) with variance s at t: the image sum over reflections in both ends
    (Borodin and Salminen 1.15.8), or the single image of a half-line."""
    sd, phi = math.sqrt(s), NormalDist().cdf
    if math.isinf(lo):  # mirror (-inf, hi) onto (-hi, inf)
        a, b, x, lo, hi = -b, -a, -x, -hi, math.inf
    u, va, vb = x - lo, max(a, lo) - lo, min(b, hi) - lo
    L = hi - lo
    ks = range(-6, 7) if math.isfinite(L) else [0]
    total = 0.0
    for k in ks:
        shift = 2 * k * L if math.isfinite(L) else 0.0
        total += phi((vb - u + shift) / sd) - phi((va - u + shift) / sd)
        total -= phi((vb + u + shift) / sd) - phi((va + u + shift) / sd)
    return total


@pytest.mark.parametrize(
    "lo, hi, x, s",
    [(0.0, math.inf, 0.3, 1.0), (-math.inf, 1.0, 0.6, 0.5), (0.0, 1.0, 0.3, 0.3), (-1.0, 1.5, 1.2, 2.0)],
    ids=["half_line_right", "half_line_left", "interval", "interval_wide"],
)
def test_killed_transition_density(lo, hi, x, s):
    """The killed-transition sampler's positions fall in each of 12 bins
    with the probability of the closed-form killed density, conditioned on
    survival: each bin's frequency within 4.5 standard errors of it (a
    false alarm under 1e-4 over the bins).  On the intervals the bridge
    survival series needs terms past its first: a sampler that keeps only
    the first (the two half-line factors) fails there, and one that accepts
    every proposal inside fails all four."""
    n = 100_000
    y = passage._killed_positions(
        np.full(n, x), np.full(n, lo), np.full(n, hi), np.full(n, s), substream(90, lo, hi)
    )
    assert np.all((lo < y) & (y < hi))
    a = lo if math.isfinite(lo) else x - 6 * math.sqrt(s)
    b = hi if math.isfinite(hi) else x + 6 * math.sqrt(s)
    edges = np.linspace(a, b, 13)
    edges[0], edges[-1] = lo, hi
    survive = _killed_mass(lo, hi, x, lo, hi, s)
    for e0, e1 in zip(edges[:-1], edges[1:]):
        p = _killed_mass(e0, e1, x, lo, hi, s) / survive
        freq = np.count_nonzero((e0 < y) & (y <= e1)) / n
        assert abs(freq - p) <= 4.5 * math.sqrt(p * (1 - p) / n) + 1e-12, (e0, e1, freq, p)


def test_box_exit_optional_stopping():
    """A 2-d box exit at unit rate, sampled exactly: the martingales c1,
    c1^2 - c2^2 and |X - z|^2 - 2t over the two box coordinates give E[c1] =
    z1, E[c1^2 - c2^2] = z1^2 - z2^2 and E[T] = E|X_T - z|^2 / 2; c3, off
    the box, is drawn at T, so E[c3^2] = E[T] (Wald).  Every exit has one
    box coordinate exactly on its face and the other strictly inside."""
    model = make_space(8)
    lows, highs = np.array([-1.0, -0.5]), np.array([2.0, 1.0])
    box = potential.box_complement(model, lows, highs)
    z = np.zeros(8)
    z[:2] = (0.3, -0.2)
    hit, T, loc = simulate_hit_batch(
        brownian_triplet(model), z, box, PathConfig(dt=0.01, horizon=1e6), 20_000, substream(91)
    )
    assert hit.all()
    on_face = (loc[:, :2] == lows) | (loc[:, :2] == highs)
    inside = (lows < loc[:, :2]) & (loc[:, :2] < highs)
    assert np.all(on_face.sum(axis=1) == 1) and np.all(inside.sum(axis=1) == 1)
    c1, c2 = loc[:, 0], loc[:, 1]
    assert McEstimate.from_samples(c1).verdict(z[0]) == "pass"
    assert McEstimate.from_samples(c1**2 - c2**2).verdict(z[0] ** 2 - z[1] ** 2) == "pass"
    d2 = ((loc[:, :2] - z[:2]) ** 2).sum(axis=1)
    assert McEstimate.from_samples(T - d2 / 2).verdict(0.0) == "pass"
    assert McEstimate.from_samples(loc[:, 2] ** 2 - T).verdict(0.0) == "pass"


def test_two_lone_faces_exit_law():
    """The target {c1 >= 1} u {c2 <= -1} from the origin at variance rates
    1 and 2 (faces on two coordinates, one each): T = min(T1, T2) of two
    Levy laws, so P(T <= t) = 1 - (1 - F1(t))(1 - F2(t)) with F_i(t) =
    2(1 - Phi(1 / sqrt(g_i t))); the coordinate not exiting stays on its
    side of its face."""
    model = make_space(4)
    target = TargetSet(
        "two_faces", lambda z: (z[..., 0] >= 1.0) | (z[..., 1] <= -1.0),
        faces=((0, 1.0, +1), (1, -1.0, -1)), coords=(0, 1),
    )
    g = np.array([1.0, 2.0, 1.0, 1.0])
    hit, T, loc = simulate_hit_batch(
        _scaled_law(model, g), np.zeros(4), target, PathConfig(dt=0.01, horizon=50.0), 20_000,
        substream(92),
    )
    first = loc[hit, 0] == 1.0
    assert np.all(first != (loc[hit, 1] == -1.0))
    assert np.all(loc[hit][first, 1] > -1.0) and np.all(loc[hit][~first, 0] < 1.0)
    F = lambda gi, t: 2.0 * (1.0 - NormalDist().cdf(1.0 / math.sqrt(gi * t)))
    for t in (0.3, 1.0, 5.0):
        exact = 1.0 - (1.0 - F(1.0, t)) * (1.0 - F(2.0, t))
        assert McEstimate.from_samples((T <= t).astype(float)).verdict(exact) == "pass", t


def test_jump_passage_optional_stopping(setup):
    """Exact passage of the jump law out of the slab -1 < c1 < 1.5 from c1
    = 0.25, epoch by epoch: c1, c1^2 - 1.72 t (unit Brownian rate plus 2 x
    0.6^2 from the jumps), c1 c2 - 0.6 t and, off the slab, c2 moved by the
    jumps and c3 by its Brownian part alone, c3^2 - t, are martingales, so
    their means at the exit are their starting values.  A continuous exit
    lands on a face; a jump exit lands past it."""
    model, _ = setup
    T, loc = _jump_slab_exits(model, slab_complement(model, 1, -1.0, 1.5), 20_000, substream(93), True)
    c1, c2, c3 = loc[:, 0], loc[:, 1], loc[:, 2]
    assert np.all((c1 <= -1.0) | (c1 >= 1.5))
    assert 0.2 < np.mean((c1 == -1.0) | (c1 == 1.5)) < 0.9
    for stat, target in ((c1, 0.25), (c1**2 - 1.72 * T, 0.0625), (c1 * c2 - 0.6 * T, 0.0), (c3**2 - T, 0.0)):
        assert McEstimate.from_samples(stat).verdict(target) == "pass", target


def test_jump_slab_exit_side_matches_the_engine_extrapolated(setup):
    """The exact exit-side probability P(c1 >= 1.5 at exit) of the jump
    slab agrees with the grid engine's at dt = 0.04 and 0.01, extrapolated
    linearly in sqrt(dt) to 0 (the order of its monitoring bias), within
    the combined band of the three estimates."""
    model, _ = setup
    slab = slab_complement(model, 1, -1.0, 1.5)
    _, loc = _jump_slab_exits(model, slab, 20_000, substream(94), True)
    exact = McEstimate.from_samples((loc[:, 0] >= 1.5).astype(float))
    grid = []
    for dt in (0.04, 0.01):
        start = np.zeros(8)
        start[0] = 0.25
        hit, _, loc = simulate_hit_batch(
            _jump_law(model), start, slab, PathConfig(dt=dt, horizon=40.0, bridge=False), 20_000,
            substream(95, dt),
        )
        assert hit.all()
        grid.append(McEstimate.from_samples((loc[:, 0] >= 1.5).astype(float)))
    coarse, fine = grid
    limit = 2 * fine.mean - coarse.mean
    se = math.sqrt(4 * fine.stderr**2 + coarse.stderr**2 + exact.stderr**2)
    assert McEstimate(exact.mean - limit, se, exact.n_samples).verdict(0.0) == "pass"


def test_engine_monitors_faces_on_the_grid_only(setup):
    """With the bridge pass gone, the engine reads a target's faces
    nowhere but in its cut: a face target that stays on the engine (a box
    under a drift in c1, a halfspace with bridge=False) gives the bytes of
    the same target declared without faces, stepped with the face target's
    cut."""
    model, triplet = setup
    drift = np.zeros(8)
    drift[0] = 0.3
    box = potential.box_complement(model, [-1.0, -1.0], [1.0, 1.0])
    half = coord_halfspace(model, 1, 0.8, +1)
    cfg = PathConfig(dt=0.02, horizon=4.0)
    cases = ((_scaled_law(model, 1.0, drift), box, cfg), (triplet, half, replace(cfg, bridge=False)))
    for i, (law, target, c) in enumerate(cases):
        t0, loc0 = potential._hit(law, np.zeros(8), target, c, 300, substream(96, i))
        t1, loc1 = (x[0] for x in passage._step_paths(
            law, np.zeros(8), lambda z: replace(target, faces=())(z)[None], target.coords, c,
            300, substream(96, i), cuts=[potential._boundary_cut(law, target)],
        ))
        assert np.isfinite(t0).any()
        assert t0.tobytes() == t1.tobytes() and loc0.tobytes() == loc1.tobytes()


def test_only_continuous_hits_are_cut_onto_the_faces(setup):
    """On the engine (bridge=False), `simulate_hit_batch` cuts a Brownian
    hit of the slab complement c1 outside (-1, 1.5) onto a face, and keeps
    a jump law's landing points: those are the bytes of the same slab
    declared without faces, all strictly beyond a face."""
    model, triplet = setup
    slab = slab_complement(model, 1, -1.0, 1.5)
    start = np.zeros(8)
    start[0] = 0.25
    cfg = PathConfig(dt=0.02, horizon=8.0, bridge=False)
    gap = lambda loc: np.minimum(np.abs(loc[:, 0] + 1.0), np.abs(loc[:, 0] - 1.5))
    hit, _, loc = simulate_hit_batch(triplet, start, slab, cfg, 300, substream(97))
    assert hit.any() and np.all(gap(loc[hit]) < 1e-9)
    law = _jump_law(model)
    hit, t0, loc0 = simulate_hit_batch(law, start, slab, cfg, 300, substream(98))
    _, t1, loc1 = simulate_hit_batch(law, start, replace(slab, faces=()), cfg, 300, substream(98))
    assert hit.any() and t0.tobytes() == t1.tobytes() and loc0.tobytes() == loc1.tobytes()
    assert np.all(gap(loc0[hit]) > 1e-9)


def test_face_cut_lands_on_the_face(setup):
    """A Brownian hit of c1 >= 0.3 kept on the engine is cut onto the face
    exactly, so it lies in the closed halfspace; z_in + theta*d alone rounds
    off the face at this level."""
    model, triplet = setup
    half = coord_halfspace(model, 1, 0.3, +1)
    cfg = PathConfig(dt=0.01, horizon=20.0, bridge=False)
    hit, _, loc = simulate_hit_batch(triplet, np.zeros(8), half, cfg, 20000, substream(5, 0.3))
    assert hit.mean() > 0.9
    assert np.all(loc[hit, 0] == 0.3) and half(loc[hit]).all()


def test_boundary_cut_enters_a_ball_at_its_first_crossing(setup):
    """Into an E-ball the cut is the segment's first point on the sphere:
    from c1 = 3 to c1 = -1.9, inside the unit E-ball (|c1| <= 2 on the c1
    axis), it lands at c1 = 2, not at -2.  A target that declares neither
    an E-form nor faces has no cut, and neither has a jump law."""
    model, triplet = setup
    cut = potential._boundary_cut(triplet, e_ball(model, np.zeros(8), 1.0))
    z_in, z_out = np.zeros((2, 1, 8))
    z_in[0, 0], z_out[0, 0] = 3.0, -1.9
    np.testing.assert_allclose(cut(z_in, z_out), 2.0 * np.eye(8)[:1], rtol=0, atol=1e-12)
    assert potential._boundary_cut(triplet, h_ball(model, 1.0)) is None
    assert potential._boundary_cut(_jump_law(model), e_ball(model, np.zeros(8), 1.0)) is None


def test_constant_read_columns_reach_membership_at_their_starts(setup, monkeypatch):
    """A law that moves c1 alone steps c1 alone, for a target that reads c1
    and c3 and for H-balls that read every column (criterion 12's H|line
    family); membership sees each path's own start in c3, and the entry
    point keeps every column the law does not move at its start."""
    model, _ = setup
    line = LevyTriplet(model, np.zeros(model.dim), np.eye(model.dim)[0])
    widths = []
    draw = passage.sample_increments

    def recorded(law, dt, n, rng):
        widths.append(law.model.dim)
        return draw(law, dt, n, rng)

    monkeypatch.setattr(passage, "sample_increments", recorded)
    # entered when c1 reaches the path's own level in c3, 0.5 to 2
    above = TargetSet("c1>=c3", lambda z: z[..., 0] >= z[..., 2], coords=(0, 2))
    starts = np.zeros((200, model.dim))
    starts[:, 2] = np.linspace(0.5, 2.0, 200)
    starts[:, 5] = 7.0
    cfg = PathConfig(dt=0.01, horizon=20.0)
    hit, _, loc = simulate_hit_batch(line, starts, above, cfg, 200, substream(60))
    assert hit.mean() > 0.5 and set(widths) == {1}
    np.testing.assert_array_equal(loc[:, 2:], starts[:, 2:])
    assert (loc[hit, 0] >= starts[hit, 2]).all()
    widths.clear()
    e1 = np.eye(model.dim)[0]
    simulate_hit_batch(line, e1, h_ball(model, 0.5), cfg, 50, substream(61))
    assert set(widths) == {1}
