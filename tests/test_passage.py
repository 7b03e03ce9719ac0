"""The samplers' own kernels, called directly: the J* sampler of the walk
on intervals, the squared-Bessel radius chain of the radial mode and its
tail placement; and the radial mode's exit law against the engine's.  The
other samplers' laws through the hit API are checked in test_potential.py."""

import math

import numpy as np
import pytest

from levylab import passage, potential
from levylab.dirichlet import e_ball_domain
from levylab.measures import JumpMeasure, LevyTriplet, McEstimate, brownian_triplet
from levylab.potential import (
    PathConfig,
    PointCloud,
    capacity,
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
