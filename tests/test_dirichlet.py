"""Exit-distribution Dirichlet solver and controlled convergence."""

import numpy as np
import pytest

from levylab import potential
from levylab.dirichlet import (
    BoundaryData,
    ControlReport,
    approach_sequence,
    boundary_continuity_check,
    box_domain,
    controlled_convergence_check,
    e_ball_domain,
    gambler_ruin_value,
    harmonicity_check,
    majorant_stability_check,
    slab_domain,
    solve,
)
from levylab.measures import PreconditionError, brownian_triplet
from levylab.operators import BoundViolation
from levylab.potential import PathConfig, simulate_hit_batch
from levylab.rng import substream
from levylab.space import make_space

DIM = 8


@pytest.fixture(scope="module")
def setup():
    model = make_space(DIM)
    return model, brownian_triplet(model)


def _slab(model, a=-1.0, b=1.0):
    return slab_domain(model, 1, a, b)


def test_domain_validation():
    model = make_space(DIM)
    with pytest.raises(ValueError):
        slab_domain(model, 1, 2.0, 1.0)
    with pytest.raises(ValueError):
        box_domain(model, [0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        box_domain(model, [0.0], [0.0])


def test_box_domain_rejects_nan_bounds():
    """A NaN bound fails lo < hi; it must not pass as a missing face."""
    model = make_space(DIM)
    with pytest.raises(ValueError):
        box_domain(model, [-1.0, np.nan], [1.0, 1.0])


def test_solve_requires_interior_start(setup):
    model, triplet = setup
    dom = _slab(model)
    f = BoundaryData(lambda y: np.ones(y.shape[:-1]))
    start = np.zeros(DIM)
    start[0] = 5.0
    with pytest.raises(ValueError):
        solve(triplet, dom, f, start, 100, PathConfig(dt=0.1, horizon=1.0), substream(0))


def test_constant_data_solves_to_one(setup):
    model, triplet = setup
    dom = _slab(model)
    f = BoundaryData(lambda y: np.ones(y.shape[:-1]), bound=1.0)
    cfg = PathConfig(dt=0.01, horizon=30.0)
    est = solve(triplet, dom, f, np.zeros(DIM), 1000, cfg, substream(1))
    assert not est.flagged
    assert est.estimate.mean == pytest.approx(1.0, abs=est.non_exit_fraction + 1e-9)


def test_boundary_data_beyond_its_bound_raise(setup):
    """The declared bound of boundary data is checked on the exit values:
    face values 3 and -1 break a declared bound of 2."""
    model, triplet = setup
    a, b = -1.0, 2.0
    dom = slab_domain(model, 1, a, b)
    f = BoundaryData(
        lambda y: np.where(np.abs(y[..., 0] - a) < np.abs(y[..., 0] - b), 3.0, -1.0),
        bound=2.0,
        name="slab_faces",
    )
    start = np.zeros(DIM)
    start[0] = 0.5
    with pytest.raises(BoundViolation, match="slab_faces"):
        solve(triplet, dom, f, start, 400, PathConfig(dt=0.01, horizon=40.0), substream(2))


def test_gamblers_ruin_oracle(setup):
    model, triplet = setup
    a, b, fa, fb = -1.0, 2.0, 3.0, -1.0
    dom = slab_domain(model, 1, a, b)
    f = BoundaryData(
        lambda y: np.where(np.abs(y[..., 0] - a) < np.abs(y[..., 0] - b), fa, fb),
        bound=3.0,
    )
    cfg = PathConfig(dt=0.01, horizon=40.0)
    start = np.zeros(DIM)
    start[0] = 0.5
    est = solve(triplet, dom, f, start, 4000, cfg, substream(2))
    target = gambler_ruin_value(dom, fa, fb, 0.5)
    assert est.estimate.verdict(target) == "pass"


def test_maximum_principle_per_sample(setup):
    """Exit values of bounded data keep the estimate inside [min, max]."""
    model, triplet = setup
    dom = _slab(model)
    f = BoundaryData(lambda y: np.sign(y[..., 0]), bound=1.0)
    cfg = PathConfig(dt=0.01, horizon=30.0)
    est = solve(triplet, dom, f, np.zeros(DIM), 1500, cfg, substream(3))
    assert -1.0 <= est.estimate.mean <= 1.0


def test_linearity_under_common_exits(setup):
    model, triplet = setup
    dom = _slab(model)
    cfg = PathConfig(dt=0.02, horizon=20.0)
    hit, _, loc = simulate_hit_batch(triplet, np.zeros(DIM), dom.exit_target, cfg, 800, substream(4))
    g1 = loc[hit][:, 0]
    g2 = loc[hit][:, 0] ** 2
    combo = 2.0 * g1 + 3.0 * g2
    assert np.mean(combo) == pytest.approx(2.0 * np.mean(g1) + 3.0 * np.mean(g2))


def test_ball_center_symmetry(setup):
    """Linear data on a centered ball averages to its center value."""
    model, triplet = setup
    dom = e_ball_domain(model, np.zeros(DIM), 1.0)
    xi = model.basis_vector(1)
    f = BoundaryData(lambda y: y @ xi, bound=2.0 / np.sqrt(model.weights[0]))
    cfg = PathConfig(dt=0.005, horizon=30.0)
    est = solve(triplet, dom, f, np.zeros(DIM), 4000, cfg, substream(5))
    assert est.estimate.verdict(0.0) == "pass"


def test_exit_locations_on_boundary(setup):
    model, triplet = setup
    dom = e_ball_domain(model, np.zeros(DIM), 1.0)
    cfg = PathConfig(dt=0.01, horizon=20.0)
    hit, _, loc = simulate_hit_batch(triplet, np.zeros(DIM), dom.exit_target, cfg, 400, substream(6))
    r = np.sqrt(model.e_norm2(loc[hit]))
    assert np.all(np.abs(r - 1.0) < 0.05)  # collar from one dt step


def test_exit_locations_exactly_on_boundary(setup):
    """The crossing step's segment is cut at the boundary in closed form;
    slab and box exits land on a face by exact passage too, and on the
    grid engine (bridge=False) by the cut."""
    model, triplet = setup
    start = np.zeros(DIM)
    start[:2] = (0.3, -0.2)
    # distance to the boundary of the slab |c1| < 1, the box |c1|, |c2| < 1
    # and the unit E-ball
    faces = lambda z, k: np.min(1.0 - np.abs(z[:, :k]), axis=1)
    domains = (
        (slab_domain(model, 1, -1.0, 1.0), lambda z: faces(z, 1)),
        (box_domain(model, [-1.0, -1.0], [1.0, 1.0]), lambda z: faces(z, 2)),
        (e_ball_domain(model, np.zeros(DIM), 1.0), lambda z: 1.0 - np.sqrt(model.e_norm2(z))),
    )
    for bridge in (True, False):
        cfg = PathConfig(dt=0.01, horizon=20.0, bridge=bridge)
        for i, (dom, distance) in enumerate(domains):
            hit, _, loc = simulate_hit_batch(triplet, start, dom.exit_target, cfg, 400, substream(30 + i))
            assert hit.all()
            assert np.all(np.abs(distance(loc)) < 1e-9), (dom.exit_target.name, bridge)


@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4)])
def test_eball_exit_root_matches_elementwise_sums(setup, shape):
    """The E-ball exit point, with its quadratic forms in one pass, agrees
    with the elementwise sums to 1e-12 for 1, 2 and 3 batch axes."""
    model, triplet = setup
    rng = np.random.default_rng(len(shape))
    center, radius = 0.1 * rng.standard_normal(DIM), 1.0
    u, v = rng.standard_normal((2,) + shape + (DIM,))
    z_in = center + 0.5 * u / np.sqrt(model.e_norm2(u))[..., None]
    z_out = z_in + 3.0 * v / np.sqrt(model.e_norm2(v))[..., None]
    w, p, d = model.weights, z_in - center, z_out - z_in
    a, b = np.sum(w * d * d, axis=-1), np.sum(w * p * d, axis=-1)
    q = np.sum(w * p * p, axis=-1) - radius**2
    ref = z_in + (-q / (b + np.sqrt(b * b - a * q)))[..., None] * d
    cut = potential._boundary_cut(triplet, e_ball_domain(model, center, radius).exit_target)
    got = cut(z_in, z_out)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_harmonicity_tower(setup):
    model, triplet = setup
    a, b, fa, fb = -1.0, 1.0, 0.0, 1.0
    dom = slab_domain(model, 1, a, b)
    f = BoundaryData(lambda y: np.where(y[..., 0] > 0, fb, fa), bound=1.0)
    cfg = PathConfig(dt=0.01, horizon=30.0)
    rows = harmonicity_check(
        triplet, dom, f, np.zeros(DIM), [0.2, 0.4], 1500, cfg, substream(7)
    )
    assert all(r["difference"].verdict(0.0) == "pass" for r in rows)


def test_harmonicity_ball_must_fit(setup):
    model, triplet = setup
    dom = _slab(model)
    f = BoundaryData(lambda y: np.ones(y.shape[:-1]))
    with pytest.raises(ValueError):
        harmonicity_check(
            triplet, dom, f, np.zeros(DIM), [2.0], 100,
            PathConfig(dt=0.1, horizon=1.0), substream(8),
        )


def test_inner_domain_keeps_the_geometry(setup):
    """An E-ball's neighborhood of x is the E-ball around x and a box's is
    the box around x on the same coordinates (a one-coordinate box's is a
    slab, with the same faces); one that does not fit is refused."""
    model, _ = setup
    x = np.zeros(DIM)
    x[:2] = (0.3, -0.2)
    ball = e_ball_domain(model, np.zeros(DIM), 1.0)
    form = ball.inner_domain(x, 0.25).exit_target.e_form
    assert np.array_equal(form.center, x) and form.r2 == 0.25 * 0.25
    lo, hi = x[:2] - 0.5, x[:2] + 0.5
    box = box_domain(model, [-1.0, -1.0], [1.0, 1.0]).inner_domain(x, 0.5)
    assert box.exit_target.e_form is None
    assert box.exit_target.faces == ((0, lo[0], -1), (1, lo[1], -1), (0, hi[0], 1), (1, hi[1], 1))
    slab = box_domain(model, [-1.0], [1.0]).inner_domain(x, 0.5)
    assert slab.exit_target.faces == ((0, lo[0], -1), (0, hi[0], 1))
    for dom, r in ((ball, 0.9), (box_domain(model, [-1.0, -1.0], [1.0, 1.0]), 0.75)):
        with pytest.raises(PreconditionError, match="does not fit"):
            dom.inner_domain(x, r)


def test_boundary_continuity_continuous_data(setup):
    model, triplet = setup
    dom = _slab(model)
    # continuous data: linear in the exit coordinate
    f = BoundaryData(lambda y: 0.5 * (y[..., 0] + 1.0), bound=1.0)
    y = np.zeros(DIM)
    y[0] = 1.0
    x0 = np.zeros(DIM)
    seq = approach_sequence(y, x0, n_points=5)
    cfg = PathConfig(dt=0.005, horizon=30.0)
    rep = boundary_continuity_check(
        triplet, dom, f, y, seq, 2500, cfg, substream(9)
    )
    assert rep["verdict"] == "pass"


def test_boundary_continuity_negative_control(setup):
    """Data discontinuous at the approach point must break the trend."""
    model, triplet = setup
    dom = _slab(model)
    # f is 5 exactly at the approached face point and 0 elsewhere, so the
    # solved values stay near 0 while the declared limit is 5
    y = np.zeros(DIM)
    y[0] = 1.0
    f_bad = BoundaryData(
        lambda y_: np.where(np.all(np.isclose(y_, y, atol=1e-6), axis=-1), 5.0, 0.0),
        bound=5.0,
    )
    seq = approach_sequence(y, np.zeros(DIM), n_points=4)
    cfg = PathConfig(dt=0.01, horizon=20.0)
    rep = boundary_continuity_check(
        triplet, dom, f_bad, y, seq, 1200, cfg, substream(10)
    )
    assert rep["verdict"] == "fail"


def test_approach_sequence_geometry():
    y = np.zeros(3)
    x0 = np.array([1.0, 0.0, 0.0])
    seq = approach_sequence(y, x0, 4)
    np.testing.assert_allclose(seq[:, 0], [0.5, 0.25, 0.125, 0.0625])


def test_controlled_convergence_classical():
    """k = 0 everywhere: the bounded branch checks h against f."""
    V0 = lambda xs: np.ones(xs.shape[0], dtype=bool)
    h = lambda xs: xs[:, 0]
    f = lambda xs: xs[:, 0]
    k = lambda xs: np.zeros(xs.shape[0])
    y = np.array([1.0, 0.0])
    seq = approach_sequence(y, np.zeros(2), 6)
    rep = controlled_convergence_check(h, f, k, V0, [seq], [y], tol=0.05)
    assert isinstance(rep, ControlReport)
    assert rep.records[0].branch == "c1"
    assert rep.all_pass


def test_controlled_convergence_exploding_control():
    """k blows up faster than h: ratio branch must pass.  k = 4^j at the
    j-th point, past the exploding cap of 1e6 from j = 10 on."""
    V0 = lambda xs: np.ones(xs.shape[0], dtype=bool)
    h = lambda xs: 1.0 / np.maximum(np.abs(xs[:, 0] - 1.0), 1e-12)
    k = lambda xs: 1.0 / np.maximum(np.abs(xs[:, 0] - 1.0), 1e-12) ** 2
    f = lambda xs: np.zeros(xs.shape[0])
    y = np.array([1.0, 0.0])
    seq = approach_sequence(y, np.zeros(2), 12)
    rep = controlled_convergence_check(h, f, k, V0, [seq], [y], tol=0.05)
    assert rep.records[0].branch == "c2"
    assert rep.all_pass


def test_controlled_convergence_rejects_non_converging_sequence():
    V0 = lambda xs: np.ones(xs.shape[0], dtype=bool)
    const = lambda xs: np.zeros(xs.shape[0])
    y = np.array([1.0, 0.0])
    bad = np.tile(np.array([5.0, 5.0]), (6, 1))
    with pytest.raises(ValueError):
        controlled_convergence_check(const, const, const, V0, [bad], [y], tol=1e-2)


def test_controlled_convergence_rejects_outside_region():
    V0 = lambda xs: np.zeros(xs.shape[0], dtype=bool)
    const = lambda xs: np.zeros(xs.shape[0])
    y = np.array([1.0, 0.0])
    seq = approach_sequence(y, np.zeros(2), 6)
    with pytest.raises(ValueError):
        controlled_convergence_check(const, const, const, V0, [seq], [y], tol=1e-2)


def test_majorant_stability():
    V0 = lambda xs: np.ones(xs.shape[0], dtype=bool)
    h = lambda xs: xs[:, 0]
    f = lambda xs: xs[:, 0]
    k = lambda xs: np.abs(xs[:, 0])
    y = np.array([1.0, 0.0])
    seq = approach_sequence(y, np.zeros(2), 6)
    rep = majorant_stability_check(h, f, k, V0, [seq], [y], tol=0.05)
    assert rep["stable"] and rep["base"].all_pass
