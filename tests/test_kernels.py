"""Axis-aligned membership kernels, the rank-wise jump sums and the
run-sliced rest draw, each against the expression it replaces: the same
booleans, and for floats the same bytes, signed zeros included.  The face
and E-form targets and the domains built from them, against reference
formulas for their sets."""

from dataclasses import replace

import numpy as np
import pytest

from levylab import dirichlet, passage
from levylab.measures import JumpMeasure, LevyTriplet, PreconditionError, brownian_triplet, sample_increments
from levylab.operators import TestFunction
from levylab.potential import (
    PathConfig,
    box_complement,
    coord_halfspace,
    coordinate_box,
    e_ball,
    e_ball_complement,
    slab_complement,
)
from levylab.rng import substream
from levylab.space import in_box, make_space

MODEL = make_space(6)
SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0]
# boxes of 1 to 4 columns; bounds at -0.0, 0.0 and infinity included
BOXES = [
    ([0.0], [1.0]),
    ([-1.0, -0.0], [1.0, 2.5]),
    ([-np.inf, 0.25, -3.0], [0.0, np.inf, 3.0]),
    ([-1.0, -1.0, -1.0, 0.5], [1.0, 1.0, 1.0, 0.75]),
]
SHAPES = [(6,), (200, 6), (4, 9, 6), (0, 6)]


def _batch(shape, marks, seed):
    """Points drawn from normals, NaN, +-inf, +-0.0, each of `marks` exactly
    and the floats next to them."""
    marks = np.asarray(marks, dtype=float)
    near = np.concatenate([np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf)])
    rng = substream(seed, "kernels")
    values = np.concatenate([SPECIAL, marks, near, 2 * rng.standard_normal(8)])
    return rng.choice(values, size=shape)


def _same(out, ref):
    """Same shape, dtype and bytes."""
    out, ref = np.asarray(out), np.asarray(ref)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("lows, highs", BOXES)
def test_box_kernels_match_their_reductions(lows, highs, shape):
    lo, hi = np.array(lows), np.array(highs)
    k = lo.size
    z = _batch(shape, lows + highs, seed=k)
    col = z[..., :k]
    _same(coordinate_box(MODEL, lo, hi)(z), np.all((col >= lo) & (col <= hi), axis=-1))
    off = np.any((col <= lo) | (col >= hi), axis=-1)
    _same(box_complement(MODEL, lo, hi)(z), off)
    inside = np.all((col > lo) & (col < hi), axis=-1)
    _same(in_box(z, lo, hi, closed=False), inside)  # `_jump_exit` exits off it
    dom = dirichlet.box_domain(MODEL, lo, hi)
    _same(dom.membership(z), inside)


@pytest.mark.parametrize("shape", SHAPES)
def test_empty_box_keeps_its_answer_or_is_rejected(shape):
    z = _batch(shape, [0.0], seed=0)
    empty = np.array([])
    _same(coordinate_box(MODEL, empty, empty)(z), np.ones(shape[:-1], dtype=bool))
    _same(box_complement(MODEL, empty, empty)(z), np.zeros(shape[:-1], dtype=bool))
    with pytest.raises(ValueError):
        dirichlet.box_domain(MODEL, empty, empty)


def test_box_bounds_of_two_shapes_are_rejected():
    with pytest.raises(ValueError):
        coordinate_box(MODEL, [0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        box_complement(MODEL, [[0.0]], [[1.0]])
    # a scalar pair is a one-column box, as before
    _same(coordinate_box(MODEL, 0.0, 1.0)(np.array([[0.5, 9.0], [1.5, 0.0]])), [True, False])


@pytest.mark.parametrize("coord", [0, MODEL.dim + 1])
def test_coordinates_outside_the_model_are_rejected(coord):
    """Coordinate 0 would read column -1, the last one, and dim + 1 none."""
    with pytest.raises(ValueError, match="outside"):
        coord_halfspace(MODEL, coord, 1.0, +1)
    with pytest.raises(ValueError, match="outside"):
        slab_complement(MODEL, coord, -1.0, 1.0)
    with pytest.raises(ValueError, match="outside"):
        dirichlet.slab_domain(MODEL, coord, -1.0, 1.0)


def test_more_box_bounds_than_coordinates_are_rejected():
    lo, hi = -np.ones(MODEL.dim + 1), np.ones(MODEL.dim + 1)
    for make in (coordinate_box, box_complement, dirichlet.box_domain):
        with pytest.raises(ValueError, match="box bounds"):
            make(MODEL, lo, hi)
        make(MODEL, lo[1:], hi[1:])  # one bound per coordinate is a box


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("level", [0.0, -0.0, 1.0, -1.5, 5e-324])
@pytest.mark.parametrize("side", [1, -1])
def test_halfspace_compare_matches_signed_difference(side, level, shape):
    z = _batch(shape, [level], seed=3)
    for coord in (1, 3):
        _same(coord_halfspace(MODEL, coord, level, side)(z), side * (z[..., coord - 1] - level) >= 0)


@pytest.mark.parametrize("side, level", [(0, 1.0), (2, 1.0), (1, np.inf), (-1, np.nan)])
def test_halfspace_needs_a_unit_side_and_a_finite_level(side, level):
    with pytest.raises(ValueError):
        coord_halfspace(MODEL, 1, level, side)


# (target, its set, its domain or None, the domain's set): unions of closed
# face halfspaces, and their complements, open boxes, as the domains
FACE_TARGETS = {
    "halfspace_up": (coord_halfspace(MODEL, 2, 0.5, +1), lambda z: z[..., 1] >= 0.5, None, None),
    "halfspace_down": (coord_halfspace(MODEL, 2, 0.5, -1), lambda z: z[..., 1] <= 0.5, None, None),
    "slab": (
        slab_complement(MODEL, 3, -1.0, 2.0),
        lambda z: (z[..., 2] <= -1.0) | (z[..., 2] >= 2.0),
        dirichlet.slab_domain(MODEL, 3, -1.0, 2.0),
        lambda z: (-1.0 < z[..., 2]) & (z[..., 2] < 2.0),
    ),
    "box1": (
        box_complement(MODEL, [-1.0], [0.5]),
        lambda z: (z[..., 0] <= -1.0) | (z[..., 0] >= 0.5),
        dirichlet.box_domain(MODEL, [-1.0], [0.5]),
        lambda z: (-1.0 < z[..., 0]) & (z[..., 0] < 0.5),
    ),
    "box2": (
        box_complement(MODEL, [-1.0, 0.5], [2.0, 2.5]),
        lambda z: (z[..., 0] <= -1.0) | (z[..., 0] >= 2.0) | (z[..., 1] <= 0.5) | (z[..., 1] >= 2.5),
        dirichlet.box_domain(MODEL, [-1.0, 0.5], [2.0, 2.5]),
        lambda z: (-1.0 < z[..., 0]) & (z[..., 0] < 2.0) & (0.5 < z[..., 1]) & (z[..., 1] < 2.5),
    ),
}


@pytest.mark.parametrize("name", FACE_TARGETS)
def test_face_targets_and_domains_match_their_sets(name):
    """Random points, NaN, +-inf and points exactly on each face: a NaN
    read column lies in neither the target nor its domain."""
    target, in_target, domain, in_domain = FACE_TARGETS[name]
    z = _batch((2000, MODEL.dim), [-1.0, 0.5, 2.0, 2.5], seed=9)
    _same(target(z), in_target(z))
    assert target.coords == tuple(sorted({j for j, _, _ in target.faces}))
    if domain is not None:
        _same(domain.membership(z), in_domain(z))
        assert [domain.contains(p) for p in z[:200]] == in_domain(z[:200]).tolist()
        assert not (target(z) & domain.membership(z)).any()


def _e_center(kind):
    """A centre with no, two (sparse) or six (dense) nonzero coordinates,
    each a multiple of 1/4, so that c + 2 e_1 is exactly on the unit sphere
    (lambda_1 = 1/4)."""
    return {
        "zero": np.zeros(MODEL.dim),
        "sparse": np.array([0.0, 0.0, 0.5, 0.0, -0.25, 0.0]),
        "dense": np.array([0.25, -0.5, 0.75, 1.0, -1.25, 0.5]),
    }[kind]


def _e_points(center, seed):
    """Random points around the centre, rows with NaN and +-inf, and points
    on the unit sphere: c +- 2 e_1 and c +- 4 e_2 (lambda_2 = 1/16)."""
    rng = substream(seed, "e_points")
    z = center + 1.5 * rng.standard_normal((600, MODEL.dim))
    z[::50, 3] = np.nan
    z[1::50, 0] = np.inf
    z[2::50, 5] = -np.inf
    sphere = center + np.array([2.0, -2.0, 0.0, 0.0])[:, None] * MODEL.basis_vector(1)
    sphere[2:] = center + np.array([4.0, -4.0])[:, None] * MODEL.basis_vector(2)
    return np.vstack([z, sphere])


@pytest.mark.parametrize("kind", ["zero", "sparse", "dense"])
def test_e_targets_and_ball_domain_match_their_sets(kind):
    """E-balls, their open and closed complements and the E-ball domain
    against ||z - c||_E^2 summed column by column, on random points, NaN,
    +-inf and points exactly on the sphere.  A point's squared distance is
    the same alone as in its batch."""
    c = _e_center(kind)
    z = _e_points(c, seed=len(kind))
    q = sum(MODEL.weights[j] * (z[:, j] - c[j]) ** 2 for j in range(MODEL.dim))
    on_sphere = q == 1.0
    assert on_sphere.sum() == 4
    _same(e_ball(MODEL, c, 1.0)(z), q <= 1.0)
    _same(e_ball_complement(MODEL, c, 1.0)(z), q > 1.0)
    _same(e_ball_complement(MODEL, c, 1.0, closed=True)(z), q >= 1.0)
    domain = dirichlet.e_ball_domain(MODEL, c, 1.0)
    _same(domain.membership(z), q < 1.0)
    assert [domain.contains(p) for p in z] == (q < 1.0).tolist()
    form = domain.exit_target.e_form
    _same(form.distance2(z), np.array([form.distance2(p) for p in z]))


@pytest.mark.parametrize(
    "domain",
    [
        dirichlet.slab_domain(MODEL, 3, -1.0, 2.0),
        dirichlet.box_domain(MODEL, [-1.0], [0.5]),
        dirichlet.box_domain(MODEL, [-1.0, -1.0], [1.0, 1.0]),
        dirichlet.e_ball_domain(MODEL, _e_center("zero"), 1.0),
        dirichlet.e_ball_domain(MODEL, _e_center("sparse"), 1.0),
        dirichlet.e_ball_domain(MODEL, _e_center("dense"), 1.0),
    ],
    ids=["slab", "box1", "box2", "ball_zero", "ball_sparse", "ball_dense"],
)
def test_a_nan_start_is_refused(domain):
    """A start with NaN in a column the domain reads lies outside it, so
    `solve` refuses it before drawing."""
    form = domain.exit_target.e_form
    start = np.zeros(MODEL.dim) if form is None else form.center.copy()
    assert domain.contains(start)
    start[domain.exit_target.coords[-1] if form is None else 3] = np.nan
    f = TestFunction(lambda y: y[..., 0], bound=10.0)
    with pytest.raises(PreconditionError, match="inside the domain"):
        dirichlet.solve(brownian_triplet(MODEL), domain, f, start, 100, PathConfig(0.01, 1.0), substream(10))


@pytest.mark.parametrize("kind", ["pointmass", "poisson01"])
def test_rank_wise_jump_sums_match_add_at(kind):
    rng = substream(5, kind)
    atoms = rng.standard_normal((3, MODEL.dim)) if kind == "pointmass" else None
    jumps = JumpMeasure(intensity=2.5, kind=kind, atoms=atoms)
    law = LevyTriplet(MODEL, 0.1 * rng.standard_normal(MODEL.dim), np.full(MODEL.dim, 0.7), jumps)
    n = 300
    t = np.where(np.arange(n) % 3 == 0, 0.01, 3.0)
    out = sample_increments(law, t, n, substream(6, kind))
    ref_rng = substream(6, kind)  # the same draws, summed by np.add.at
    ref = sample_increments(replace(law, jumps=None), t, n, ref_rng)
    counts = ref_rng.poisson(t * jumps.intensity)
    np.add.at(ref, np.repeat(np.arange(n), counts), jumps.sample(int(counts.sum()), MODEL.dim, ref_rng))
    assert counts.min() == 0 and counts.max() >= 6
    _same(out, ref)


def _draw_rest_fancy(triplet, cols, z0, times, locs, rng):
    """`_draw_rest` with the rest columns as one fancy index on both axes."""
    rest = np.delete(np.arange(z0.shape[1]), cols)
    rest_law = triplet.marginal(rest)
    chunk = max(1, passage._BLOCK // rest.size)
    paths = np.arange(z0.shape[0])
    t_prev = np.zeros(paths.size)
    for kth in np.argsort(times, axis=0, kind="stable"):
        tk = times[kth, paths]
        seen = np.flatnonzero(np.isfinite(tk))
        moving = seen[tk[seen] > t_prev[seen]]
        for lo in range(0, moving.size, chunk):
            rows = moving[lo : lo + chunk]
            z0[np.ix_(rows, rest)] += sample_increments(rest_law, tk[rows] - t_prev[rows], rows.size, rng)
        t_prev[moving] = tk[moving]
        for lo in range(0, seen.size, chunk):
            rows = seen[lo : lo + chunk]
            locs[kth[rows, None], rows[:, None], rest] = z0[np.ix_(rows, rest)]


@pytest.mark.parametrize("cols", [(0,), (1,), (1, 3)], ids=["1run", "2runs", "3runs"])
def test_draw_rest_runs_match_the_fancy_index(cols, monkeypatch):
    monkeypatch.setattr(passage, "_BLOCK", 64)  # several chunks of rows
    law = LevyTriplet(MODEL, np.zeros(MODEL.dim), np.linspace(0.5, 2.0, MODEL.dim))
    rng = substream(7, "rest")
    n = 60
    times = rng.exponential(size=(2, n))
    times[0, ::7] = np.inf  # missed targets
    times[1, ::5] = 0.0  # entered at the start
    times[1, 3] = times[0, 3]  # two entries at one time
    z0 = rng.standard_normal((n, MODEL.dim))
    locs = np.broadcast_to(z0, (2, n, MODEL.dim)).copy()
    got_z, got_locs = z0.copy(), locs.copy()
    passage._draw_rest(law, np.array(cols), got_z, times, got_locs, substream(8, "rest"))
    _draw_rest_fancy(law, np.array(cols), z0, times, locs, substream(8, "rest"))
    _same(got_z, z0)
    _same(got_locs, locs)

