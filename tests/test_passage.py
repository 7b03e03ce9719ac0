"""The samplers' own kernels, called directly: the engine's blocks and step
counts, the J* sampler of the walk on intervals, the squared-Bessel radius
chain of the radial mode and its tail placement; and the radial mode's exit
law against the engine's.  The other samplers' laws through the hit API are
checked in test_potential.py."""

import math
import tracemalloc

import numpy as np
import pytest

from levylab import passage, potential
from levylab.dirichlet import e_ball_domain
from levylab.measures import JumpMeasure, LevyTriplet, McEstimate, brownian_triplet
from levylab.potential import (
    PathConfig,
    PointCloud,
    capacity,
    coord_halfspace,
    e_ball,
    e_ball_complement,
    polarity_diagnostic,
    simulate_hit_batch,
)
from levylab.rng import substream
from levylab.space import make_space


class _CountingRng:
    """A generator that counts the uniforms drawn through `random`."""

    def __init__(self, rng):
        self._rng, self.uniforms = rng, 0

    def random(self, size=None):
        self.uniforms += 1 if size is None else int(np.prod(size))
        return self._rng.random(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_unit_exit_time_law():
    """J*: mean 1, variance 2/3 and E exp(-sJ) = 1/cosh(sqrt(2s))."""
    J = passage._unit_exit_times(100_000, substream(50))
    assert McEstimate.from_samples(J).verdict(1.0) == "pass"
    assert McEstimate.from_samples((J - 1.0) ** 2).verdict(2.0 / 3.0) == "pass"
    for s in (1.0, 3.0):
        exact = 1.0 / np.cosh(np.sqrt(2.0 * s))
        assert McEstimate.from_samples(np.exp(-s * J)).verdict(exact) == "pass", s


def test_unit_exit_time_series_rejects_at_its_rate():
    """The proposal has density a_0 / Z, with Z the integral of a_0, and
    the series check accepts it with probability 1/Z.  So a draw rejects a
    geometric number of proposals, of mean Z - 1 (about 7e-4) and variance
    Z (Z - 1); each proposal takes two uniforms.  Accepting every proposal
    passes the law checks above, which cannot see a 7e-4 share of the mass
    moved, but it fails here."""
    n, t = 400_000, 0.64
    rng = _CountingRng(substream(59))
    passage._unit_exit_times(n, rng)
    Z = 4.0 / np.pi * np.exp(-np.pi**2 * t / 8.0) + 2.0 * math.erfc(1.0 / math.sqrt(2.0 * t))
    rejected = McEstimate((rng.uniforms / 2 - n) / n, float(np.sqrt(Z * (Z - 1.0) / n)), n)
    assert rejected.verdict(Z - 1.0) == "pass"


@pytest.mark.parametrize("r0", [0.0, 2.0])
def test_tail_radii_step_a_squared_bessel_process(r0):
    """After n steps of variance v, the squared radius of a d-dimensional
    Brownian motion from radius r0 has mean r0^2 + n d v and variance
    2 n^2 d v^2 + 4 r0^2 n v; at every step the radii stay nonnegative.
    The chain steps in units of sqrt(v), so its radii are scaled back."""
    d, n, v = 24, 50, 0.01
    rad, _, _ = passage._tail_radii(np.full(20000, r0 / np.sqrt(v)), n, d, substream(66, r0))
    rad = np.sqrt(v) * rad
    assert rad.shape == (n + 1, 20000) and np.all(rad >= 0)
    rho = rad[-1] ** 2
    mean = r0 * r0 + n * d * v
    assert McEstimate.from_samples(rho).verdict(mean) == "pass"
    var = 2 * n * n * d * v * v + 4 * r0 * r0 * n * v
    assert McEstimate.from_samples((rho - mean) ** 2).verdict(var) == "pass"


@pytest.mark.parametrize("d", [2, 27])
def test_tail_step_places_the_chain_draws(d):
    """From fixed radii r_{s-1}, zero among them, and fixed chain draws
    (a, c), the placed tail at s has norm sd sqrt((r_{s-1} + a)^2 + c), its
    component along u is sd (r_{s-1} + a), and the rest is orthogonal to u,
    of norm sd sqrt(c).  A placement that takes a fresh Gaussian step from
    sd r_{s-1} u instead, the law without the chain's draws, fails."""
    rng = substream(70, d)
    n, sd = 300, 0.3
    r_in = np.repeat([0.0, 0.5, 4.0, 30.0], n // 4)
    a, c = rng.standard_normal(n), rng.chisquare(d - 1, n)
    u = passage._uniform_directions(n, d, rng)
    x = passage._tail_step(u, r_in, a, c, sd, rng)
    scale = sd * (np.abs(r_in + a) + np.sqrt(c))  # the rounding is relative to this
    norm = sd * np.sqrt((r_in + a) ** 2 + c)
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), norm, rtol=1e-12)
    along = (x * u).sum(axis=1)
    assert np.all(np.abs(along - sd * (r_in + a)) <= 1e-12 * scale)
    rest = x - along[:, None] * u
    assert np.all(np.abs((rest * u).sum(axis=1)) <= 1e-12 * scale)
    np.testing.assert_allclose(np.linalg.norm(rest, axis=1), sd * np.sqrt(c), rtol=1e-9)


# -- the engine's blocks and step counts ------------------------------------------


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


def test_each_path_ends_at_its_own_count(monkeypatch):
    """Per-path step counts: no entry past a path's own count is recorded,
    and a path leaves the live set at the end of the block that reaches its
    count.  400 paths of a one-coordinate halfspace step in blocks of 81,
    so the first block draws what the scalar count 200 draws, and a path
    whose count ends in it keeps the scalar run's entry up to its count and
    misses after it.  Equal counts give the scalar count's bytes and draws.
    A target no path enters draws fewer rows than paths x the longest
    count, and at least each path's own count."""
    model = make_space(32)
    triplet = brownian_triplet(model)
    half, far = coord_halfspace(model, 1, 0.5, +1), coord_halfspace(model, 1, 100.0, +1)
    cfg = PathConfig(dt=0.01, horizon=2.0)
    counts = substream(74).integers(1, 201, 400)
    counts[0] = 200
    sizes = []
    draw = passage.sample_increments

    def counted(law, dt, n, rng):
        sizes.append(n)
        return draw(law, dt, n, rng)

    monkeypatch.setattr(passage, "sample_increments", counted)

    def run(target, n_steps):
        sizes.clear()
        times, locs = passage._step_paths(
            triplet, np.zeros(32), lambda z: target(z)[None], target.coords, cfg, 400,
            substream(75), n_steps=n_steps,
        )
        return times[0], locs[0], list(sizes)

    times, _, _ = run(half, counts)
    scalar, scalar_locs, scalar_sizes = run(half, 200)
    assert scalar_sizes[0] == 81 * 400
    hit = np.isfinite(times)
    assert hit.any() and not hit.all()
    assert np.all(times[hit] <= counts[hit] * cfg.dt)
    first = counts <= 81  # paths whose count ends in the first block
    late = scalar[first] > counts[first] * cfg.dt
    assert late.any() and (~late & np.isfinite(scalar[first])).any()
    assert np.array_equal(times[first], np.where(late, np.inf, scalar[first]))
    same = run(half, np.full(400, 200))
    assert same[0].tobytes() == scalar.tobytes() and same[1].tobytes() == scalar_locs.tobytes()
    assert same[2] == scalar_sizes == run(half, None)[2]
    never, _, drawn = run(far, counts)
    assert np.isinf(never).all()
    assert counts.sum() <= sum(drawn) < 400 * counts.max()


# -- the E-norm tail as one squared-Bessel radius -------------------------------


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
    atoms = np.zeros((2, 32))
    atoms[:, :2] = (0.6, 0.5), (-0.6, -0.5)  # full_support_paths' jump law
    jump = LevyTriplet(
        model, np.zeros(32), np.ones(32), JumpMeasure(intensity=2.0, kind="pointmass", atoms=atoms)
    )
    cases = {
        "drifted": (LevyTriplet(model, drifted, np.ones(32)), shell, np.zeros(32)),
        "unequal": (LevyTriplet(model, np.zeros(32), unequal), shell, np.zeros(32)),
        "jump": (jump, shell, np.zeros(32)),
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


def test_radial_stops_place_the_tail_at_the_chain_radii(monkeypatch):
    """Where the radial mode decides an entry itself, its cut sees the tail
    at the radii the bound decided on: the tail of z_out has norm sd r_s and
    that of z_in sd r_{s-1}, both from one column of one recorded radius
    chain, at consecutive steps.  Every path handed to the engine starts
    with a tail norm of sd times a recorded radius.  A placement that takes
    a fresh Gaussian step from sd r_{s-1} u, which the exit-law tests above
    pass, fails here."""
    model, triplet, shell = _radial_cases()
    cfg = PathConfig(dt=0.01, horizon=3.0)
    sd = math.sqrt(cfg.dt)
    m = passage._radial_head(triplet, shell, np.zeros(32))
    chains, cut_calls, handed = [], [], []
    radii, engine = passage._tail_radii, passage._step_paths
    exact = potential._boundary_cut(triplet, shell)

    def recorded_radii(*args):
        out = radii(*args)
        chains.append(sd * out[0])
        return out

    def cut(z_in, z_out):
        cut_calls.append((z_in[:, m:].copy(), z_out[:, m:].copy()))
        return exact(z_in, z_out)

    def engine_run(*args, **kwargs):  # the hand-off: every later cut is the engine's
        handed.append((args[1][:, m:].copy(), len(cut_calls)))
        return engine(*args, **kwargs)

    monkeypatch.setattr(passage, "_tail_radii", recorded_radii)
    monkeypatch.setattr(passage, "_step_paths", engine_run)
    times, _ = passage._radial_passage(
        triplet, np.zeros(32), shell, cfg, 2000, substream(76), True, cut, m
    )
    assert np.isfinite(times).mean() > 0.5 and len(handed) == 1
    starts, n_radial = handed[0]
    # (sd r_{s-1}, sd r_s) of every step of every chain, sorted by sd r_s
    before = np.concatenate([c[:-1].ravel() for c in chains])
    after = np.concatenate([c[1:].ravel() for c in chains])
    order = np.argsort(after)
    before, after = before[order], after[order]

    def on_a_chain(r_in, r_out):
        lo, hi = np.searchsorted(after, [r_out * (1 - 1e-12), r_out * (1 + 1e-12)])
        return np.isclose(before[lo:hi], r_in, rtol=1e-12, atol=0.0).any()

    entered = [(a, b) for z_in, z_out in cut_calls[:n_radial] for a, b in zip(z_in, z_out)]
    assert len(entered) > 100
    for tail_in, tail_out in entered:
        assert on_a_chain(np.linalg.norm(tail_in), np.linalg.norm(tail_out))
    every = np.sort(np.concatenate([c.ravel() for c in chains]))
    for r in np.linalg.norm(starts, axis=1):
        i = min(np.searchsorted(every, r), every.size - 1)
        assert np.isclose(every[max(i - 1, 0) : i + 1], r, rtol=1e-12, atol=0.0).any()
    assert starts.shape[0] > 10


def test_unlocated_radial_hits_call_no_cut(monkeypatch):
    """Without locate the radial mode builds no entry point and calls no
    cut, on its own steps or on the engine it hands off to: with a cut that
    raises, the polarity diagnostic's E-balls and the capacity of an E-ball
    complement from its centre run, both through the radial mode, while a
    located `simulate_hit_batch` of that complement raises."""
    model, triplet, shell = _radial_cases()

    def cut(z_in, z_out):
        raise RuntimeError("the cut was called")

    monkeypatch.setattr(potential, "_boundary_cut", lambda *_: cut)
    taken = []
    radial_passage = passage._radial_passage
    monkeypatch.setattr(passage, "_radial_passage", lambda *a: taken.append(a[6]) or radial_passage(*a))
    cfg = PathConfig(dt=0.02, horizon=3.0)
    centre = np.zeros(32)
    centre[0] = 1.5
    balls = [e_ball(model, centre, r) for r in (0.5, 0.25, 0.125)]
    rep = polarity_diagnostic(triplet, balls, np.zeros(32), 300, cfg, substream(71))
    assert rep["rows"][0]["estimate"].mean > 0
    cloud = PointCloud(np.zeros((1, 32)), np.array([1.0]))
    est = capacity(triplet, cloud, shell, 1.0, 300, cfg, substream(72))
    assert est.mean > 0
    assert taken == [False] * 4
    with pytest.raises(RuntimeError, match="the cut was called"):
        simulate_hit_batch(triplet, np.zeros(32), shell, cfg, 300, substream(73))
    assert taken[-1] is True
