"""Targets, the hit planner, reduced functions, capacity and balayage.

Paths are sampled by `passage`; this module says what they hit and what is
estimated from them.  A face or E-form target states its geometry once, as
its faces or its `EForm`, and one builder (`_target`) makes its membership
and read columns from it; a `dirichlet` domain's interior is the complement
of the same geometry, and `EForm.distance2` is the one squared distance from
a centre.  The planner (`_hit`) picks the sampler of a single-target hit;
runs with several targets or an observer step the engine.  Every located
continuous hit lands on the target's declared boundary, in the closed
target: on its face by face passage, else cut there from the entering grid
step (`_boundary_cut`); a jump law keeps its landing points.  The capacities
of the complements of q_x level sets carry exact martingale control variates
from the same paths (`_level_control`, `_cross_fitted`).  Hitting uses the
D-convention: membership is checked at time 0, so a start inside an open
target hits immediately.
"""

import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable

import numpy as np

from . import passage
from .lyapunov import q_x_eval
from .measures import BAND_Z, LevyTriplet, McEstimate, sample_increments
from .space import PreconditionError, SpaceModel, in_box


@dataclass(frozen=True)
class PathConfig:
    dt: float
    horizon: float
    # exact first passage for targets made of coordinate faces
    # (`passage._face_eligible`); False keeps them on the engine, monitored
    # at the grid points only
    bridge: bool = True

    def __post_init__(self):
        # NaN fails every comparison, so finiteness is checked first
        if not (math.isfinite(self.dt) and math.isfinite(self.horizon)):
            raise ValueError("dt and horizon must be finite")
        if self.dt <= 0 or self.horizon <= 0 or self.dt > self.horizon:
            raise ValueError("need 0 < dt <= horizon")

    @property
    def n_steps(self) -> int:  # the grid's step count
        return int(np.ceil(self.horizon / self.dt))


@dataclass(frozen=True)
class EForm:
    """The ball ||z - center|| <= radius (inside) or its complement, with
    the sphere on the target's side when closed, in the norm ||y||^2 = sum
    w_j y_j^2 of the leading weights.size columns: with the E-norm's
    weights an E-ball; with unit ones a coordinate ball, or on all N the
    H-ball.  Every reader of its geometry takes `distance2`."""

    weights: np.ndarray
    center: np.ndarray  # (k,)
    radius: float
    inside: bool
    closed: bool

    def __post_init__(self):
        if not 0 <= self.radius < math.inf:  # NaN fails the compare too
            raise ValueError(f"radius {self.radius} must be finite and nonnegative")

    def holds(self, q):
        """Membership of points at squared distance q from the centre."""
        r2 = self.radius * self.radius
        if self.inside:
            return q <= r2 if self.closed else q < r2
        return q >= r2 if self.closed else q > r2

    def distance2(self, z: np.ndarray) -> np.ndarray:
        """||z - center||^2 of points z (..., N >= k), in one temporary,
        summed by numpy's own loop: a point's value is the same in any batch,
        which a BLAS product (`@`) does not give.  A sparse centre goes column
        by column, since `d -= center` also allocates a 64 KB iteration buffer
        that a full-width exit's peak memory would carry; z_j - 0.0 is z_j."""
        moved = np.flatnonzero(self.center)
        d = z[..., : self.weights.size].copy()
        if moved.size > _SPARSE_CENTER:
            d -= self.center
        else:
            for j in moved.tolist():
                d[..., j] -= self.center[j]
        return np.einsum("...j,j->...", np.multiply(d, d, out=d), self.weights)


# Centres with more nonzero coordinates than this are subtracted in one
# pass.  On 32 coordinates, one pass costs what 4 column passes cost at
# 40000 rows and 8 at 1000 rows.
_SPARSE_CENTER = 4


@dataclass(frozen=True)
class TargetSet:
    """Membership predicate, the 0-based coordinates it reads (`coords`, ()
    for none) and optional geometry.  The engine steps the read coordinates
    the law moves and the jump support (`LevyTriplet.carried`); a
    membership may be handed only the columns up to the largest read or
    stepped one, a read one it does not step at its start and an unread one
    at 0.  A face (j, v, side) declares the halfspace side*(c_j - v) >= 0
    as part of the target.  A target that reads only face coordinates
    (coords is the set of its faces' coordinates) is the union of its face
    halfspaces, the complement of a box of intervals, and its first passage
    is sampled exactly (`passage._face_passage`); the engine reads no
    faces.  `e_form` declares a ball or its complement; one on every column
    lets a hit step the norm's tail as one radius
    (`passage._radial_passage`).  The face and E-form targets of this
    module are built from their faces or `e_form` alone (`_target`).
    """

    name: str
    membership: Callable[[np.ndarray], np.ndarray]
    coords: tuple
    faces: tuple = ()
    e_form: EForm | None = None

    def __post_init__(self):
        if any(j not in self.coords for j, _, _ in self.faces):
            raise ValueError("every face coordinate must be among the declared coords")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.membership(np.asarray(z, dtype=float)), dtype=bool)

    def face_box(self):
        """(cols, lo, hi): the box of intervals (lo_i, hi_i) that the faces
        leave on each face coordinate cols_i, in increasing order; the
        nearest face on each side bounds the box, and a side with no face
        is infinite."""
        cols = np.array(sorted({j for j, _, _ in self.faces}), dtype=int)
        lo, hi = np.full(cols.size, -np.inf), np.full(cols.size, np.inf)
        for j, v, side in self.faces:
            i = np.searchsorted(cols, j)
            lo[i], hi[i] = (max(lo[i], v), hi[i]) if side < 0 else (lo[i], min(hi[i], v))
        return cols, lo, hi


@dataclass(frozen=True)
class PointCloud:
    """Finite weighted point measure."""

    points: np.ndarray  # (k, N)
    masses: np.ndarray  # (k,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        m = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if m.shape != (pts.shape[0],) or np.any(m < 0):
            raise ValueError("masses must be nonnegative, one per point")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", m)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def weighted_sum(self, estimates) -> McEstimate:
        """sum_i m_i X_i of independent estimates X_i, one per point: the
        means add with the masses, and so do the variances with their
        squares."""
        pairs = list(zip(self.masses, estimates))
        return McEstimate(
            float(sum((m * e.mean for m, e in pairs), 0.0)),
            float(np.sqrt(sum(((m * e.stderr) ** 2 for m, e in pairs), 0.0))),
            sum(e.n_samples for _, e in pairs),
        )


# -- target constructors ----------------------------------------------------


def empty_set(model: SpaceModel) -> TargetSet:
    return TargetSet("empty", lambda z: np.zeros(z.shape[:-1], dtype=bool), coords=())


def whole_space(model: SpaceModel) -> TargetSet:
    return TargetSet("whole", lambda z: np.ones(z.shape[:-1], dtype=bool), coords=())


def _target(name, faces=(), form=None) -> TargetSet:
    """A face or E-form target from its geometry alone: the union of the
    closed face halfspaces side*(c_j - v) >= 0, read on the face columns by
    one compare a face (a difference of unequal floats never rounds to 0,
    and a NaN column lies in none), or the points the form holds."""
    if form is not None:
        coords = tuple(range(form.weights.size))
        return TargetSet(name, lambda z: form.holds(form.distance2(z)), coords, e_form=form)
    compares = [(j, float(v), np.greater_equal if side > 0 else np.less_equal) for j, v, side in faces]

    def union(z):
        hits = [compare(z[..., j], v) for j, v, compare in compares]
        return reduce(np.logical_or, hits) if hits else np.zeros(z.shape[:-1], dtype=bool)

    return TargetSet(name, union, tuple(sorted({j for j, _, _ in faces})), faces)


def e_ball(model: SpaceModel, center: np.ndarray, radius: float) -> TargetSet:
    form = EForm(model.weights, np.asarray(center, dtype=float), radius, True, True)
    return _target(f"e_ball(r={radius})", form=form)


def e_ball_complement(
    model: SpaceModel, center: np.ndarray, radius: float, closed: bool = False
) -> TargetSet:
    """||z - center||_E > radius, or >= radius when closed (the exit set of
    the open ball)."""
    form = EForm(model.weights, np.asarray(center, dtype=float), radius, False, closed)
    return _target(f"e_ball_complement(r={radius}{', closed' if closed else ''})", form=form)


def _column(model: SpaceModel, coord: int) -> int:
    """The 0-based column of the 1-based coordinate `coord`."""
    if not 1 <= coord <= model.dim:
        raise ValueError(f"coordinate {coord} outside 1..{model.dim}")
    return coord - 1


def coord_halfspace(model: SpaceModel, coord: int, level: float, side: int) -> TargetSet:
    """{z : side*(c_coord - level) >= 0} for side +1 or -1 and a finite
    level; coord is 1-based."""
    if side not in (1, -1) or not math.isfinite(level):
        raise ValueError("need side +1 or -1 and a finite level")
    j = _column(model, coord)
    return _target(f"halfspace(c{coord}{'>=' if side > 0 else '<='}{level})", ((j, level, side),))


def slab_complement(model: SpaceModel, coord: int, a: float, b: float) -> TargetSet:
    """Complement of the open slab a < c_coord < b."""
    j = _column(model, coord)
    if math.isnan(a) or math.isnan(b):  # face passage would drop a NaN face
        raise ValueError("slab bounds must not be NaN")
    return _target(f"slab_complement(c{coord} outside ({a},{b}))", ((j, a, -1), (j, b, +1)))


def _box_bounds(model: SpaceModel, lows, highs):
    lo = np.atleast_1d(np.asarray(lows, dtype=float))
    hi = np.atleast_1d(np.asarray(highs, dtype=float))
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("lows and highs must be 1-d and of one length")
    if lo.size > model.dim:
        raise ValueError(f"{lo.size} box bounds for {model.dim} coordinates")
    if np.isnan(lo).any() or np.isnan(hi).any():  # face passage would drop a NaN face
        raise ValueError("box bounds must not be NaN")
    return lo, hi


def coordinate_box(model: SpaceModel, lows: np.ndarray, highs: np.ndarray) -> TargetSet:
    lo, hi = _box_bounds(model, lows, highs)
    return TargetSet(
        "coordinate_box",
        lambda z: in_box(z, lo, hi, closed=True),
        coords=tuple(range(lo.size)),
    )


def box_complement(model: SpaceModel, lows: np.ndarray, highs: np.ndarray) -> TargetSet:
    """Complement of the open box lows < c < highs in the first k coordinates."""
    lo, hi = _box_bounds(model, lows, highs)
    k = lo.size
    faces = tuple((j, lo[j], -1) for j in range(k)) + tuple((j, hi[j], +1) for j in range(k))
    return _target("box_complement", faces)


def coord_ball(model: SpaceModel, center: np.ndarray, radius: float, k: int) -> TargetSet:
    """Euclidean ball in the first k pairing coordinates, 1 <= k <= N."""
    _column(model, k)  # the ball reads coordinates 1..k
    form = EForm(np.ones(k), np.asarray(center, dtype=float)[:k], radius, True, True)
    return _target(f"coord_ball(k={k}, r={radius})", form=form)


def h_ball(model: SpaceModel, radius: float) -> TargetSet:
    """Truncated H-norm ball around the origin."""
    form = EForm(np.ones(model.dim), np.zeros(model.dim), radius, True, True)
    return _target(f"h_ball(r={radius})", form=form)


# -- the hit planner and the landing rule -----------------------------------


def _hit(
    triplet: LevyTriplet,
    start: np.ndarray,
    target: TargetSet,
    cfg: PathConfig,
    n_paths: int,
    rng: np.random.Generator,
    locate: bool = True,
):
    """The hit planner: entry times of n_paths paths from `start` into one
    target (inf for a miss) and entry points (the start for a miss), by the
    first of these modes that applies; without locate, no mode computes an
    entry point, and each gives None for them:
    0. a target that reads no coordinate (coords == ()) is decided by one
       membership call at time 0, for good, and draws nothing;
    1. exact passage (`passage._face_passage`), where `_face_eligible`
       holds, under a continuous or finite-activity jump law; the
       coordinate a continuous exit leaves by is its face value;
    2. the radial mode (`passage._radial_passage`), where `_radial_head`
       gives it a head: an E-form hit with the engine's law on its grid, a
       continuous hit cut onto the boundary (`_boundary_cut`);
    3. the engine, which monitors the target at its grid points, cut alike."""
    if target.coords == ():
        z0 = passage._starts(start, n_paths)
        return np.where(target(z0), 0.0, np.inf), z0 if locate else None
    if passage._face_eligible(triplet, target, cfg):
        return passage._face_passage(triplet, start, target, cfg, n_paths, rng, locate)
    cut = _boundary_cut(triplet, target) if locate else None
    if m := passage._radial_head(triplet, target, start):
        return passage._radial_passage(triplet, start, target, cfg, n_paths, rng, locate, cut, m)
    times, locs = passage._step_paths(
        triplet, start, lambda z: target(z)[None], target.coords, cfg, n_paths, rng,
        cuts=[cut], locate=locate,
    )
    return times[0], locs[0] if locate else None


# Doubling steps an E-form cut takes toward z_out (`_boundary_cut`): over
# 6800 cut calls at radii 0.001-100 on 4-32 coordinates, the most was 4.
_CUT_STEPS = 8


def _boundary_cut(triplet: LevyTriplet, target: TargetSet):
    """The cut of a continuous hit onto the target's declared boundary:
    `cut(z_in, z_out)` is the point where the entering step's segment
    z_in + theta*(z_out - z_in), z_in outside the target, meets the sphere
    of its E-form, else the first face it crosses, with that face's
    coordinate set to the face value, as face passage lands.  The point
    lies in the closed target (`_closure`): an E-form point moves a few ulps
    past the sphere toward z_out, else lands at z_out.  None for a target
    that declares neither, and under a jump law, whose landing points are
    kept.  An E-form's coefficients read its own columns alone."""
    form = target.e_form
    if not triplet.is_continuous or (form is None and not target.faces):
        return None
    in_closure = _closure(target)

    def cut(z_in, z_out):
        d = z_out - z_in
        if form is not None:
            # a theta^2 + 2b theta + q = 0 with a > 0: the root in (0, 1], in
            # a form that does not cancel; leaving the ball q < 0 and it is
            # the larger root, entering it q > 0 > b and it is the smaller
            r2, w, k = form.radius * form.radius, form.weights, form.weights.size
            p, dk = z_in[:, :k] - form.center, d[:, :k]
            a, b = (dk * dk) @ w, (p * dk) @ w
            q = (p * p) @ w - r2
            root = np.sqrt(b * b - a * q)
            theta = q / (root - b) if form.inside else -q / (b + root)
            # the root rounds about one point in three off the closed target,
            # so theta moves toward z_out by a step of 4 ulps of r2 in q,
            # doubled while the point is still off
            with np.errstate(divide="ignore"):  # a tangent segment goes to z_out
                step = 2 * np.spacing(r2) / np.abs(a * theta + b)
            theta = np.minimum(theta + step, 1.0)
            z = z_in + theta[..., None] * d
            off = ~in_closure(z)
            for _ in range(_CUT_STEPS):
                if not off.any():
                    return z
                step[off] *= 2
                theta[off] = np.minimum(theta[off] + step[off], 1.0)
                z[off] = z_in[off] + theta[off][:, None] * d[off]
                off[off] = ~in_closure(z[off])
            z[off] = z_out[off]  # in the target, as the entering grid point
            return z
        theta, face = np.ones(len(z_in)), np.full(len(z_in), -1)
        for i, (j, v, side) in enumerate(target.faces):
            rows = np.flatnonzero(side * (z_out[:, j] - v) >= 0)
            frac = (v - z_in[rows, j]) / d[rows, j]
            nearer = frac <= theta[rows]
            theta[rows[nearer]], face[rows[nearer]] = frac[nearer], i
        z = z_in + theta[:, None] * d
        for i, (j, v, _) in enumerate(target.faces):  # z_in + theta*d may round off it
            z[face == i, j] = v
        return z

    return cut


def _closure(target: TargetSet):
    """Membership of the target's closure: an E-form target's with its
    sphere; every other target this module builds is closed."""
    form = target.e_form
    if form is None:
        return target
    closed = replace(form, closed=True)
    return lambda z: closed.holds(form.distance2(z))


def simulate_hit_batch(
    triplet: LevyTriplet,
    start: np.ndarray,
    target: TargetSet,
    cfg: PathConfig,
    n_paths: int,
    rng: np.random.Generator,
):
    """Step n_paths trajectories from `start` until they enter the target or
    the horizon runs out.  Returns (hit mask, times, locations); non-hit
    rows carry time=inf and the start as their location.  A 2-d start gives
    each path its own origin (one row per path).  The planner (`_hit`)
    picks exact face passage, the radial mode or the engine.

    Continuous paths land on the target's declared boundary.  A face
    target, when the law moves each face coordinate without drift, is hit
    exactly with no time grid (`passage._face_passage`): the coordinate
    that leaves first lands on its face, and the other face coordinates are
    drawn at the hit time conditioned on having stayed in the box the faces
    leave.  Other E-form and face hits are cut onto the boundary from the
    entering step (`_boundary_cut`), other targets' kept at the grid point.
    An E-form hit of a Brownian law whose far coordinates start at the
    centre's steps those as one squared radius and draws them only at the
    entry step (`passage._radial_passage`), with the same law.  Jump paths
    hit exactly too, between jumps on a face and at a jump on the landing
    point, which may lie beyond the face; drifted ones are stepped.  No
    landing point of a jump law is cut."""
    times, loc = _hit(triplet, start, target, cfg, n_paths, rng)
    return np.isfinite(times), times, loc


def multi_target_hit(
    triplet: LevyTriplet,
    start: np.ndarray,
    targets,
    cfg: PathConfig,
    n_paths: int,
    rng: np.random.Generator,
):
    """First hit times and locations of several targets along one common
    trajectory per path.  Returns (times (nT, n), locations (nT, n, N));
    a missed target keeps the start as its location.

    Sharing the trajectory turns set inclusions into per-sample time
    orderings: if one target contains another, it is hit no later, path by
    path.  A target that every start lies in is hit at time 0 at the start,
    and one that is the same object as an earlier one (identity, not
    equality) copies its hits.  A single other target goes through the
    planner (`_hit`); with two or more, every target is monitored on the
    engine's grid alone, so all identically, each entry cut onto its
    target's boundary as `simulate_hit_batch` cuts it (`_boundary_cut`)."""
    z0 = passage._starts(start, n_paths)
    first = [next(i for i, u in enumerate(targets) if u is t) for t in targets]
    pending = [i for i, t in enumerate(targets) if first[i] == i and not t(z0).all()]
    if len(pending) > 1:
        return passage._step_paths(
            triplet, start, lambda z: np.array([t(z) for t in targets]),
            sorted({j for t in targets for j in t.coords}),
            cfg, n_paths, rng, cuts=[_boundary_cut(triplet, t) for t in targets],
        )
    times, loc = np.zeros(n_paths), z0
    if pending:
        times, loc = _hit(triplet, start, targets[pending[0]], cfg, n_paths, rng)
    copies = np.isin(first, pending)
    return np.where(copies[:, None], times, 0.0), np.where(copies[:, None, None], loc, z0)


def reduced_function_family(
    triplet: LevyTriplet,
    v,
    targets,
    beta: float,
    z: np.ndarray,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
):
    """Reduced-function estimates for several targets on common paths.

    Returns (list of McEstimate, per-path sample matrix (nT, n)); the
    sample matrix lets callers assert per-sample orderings for nested
    targets."""
    if beta <= 0:
        raise PreconditionError("beta must be positive: a path that never hits has no discount")
    times, locs = multi_target_hit(triplet, z, targets, cfg, n, rng)
    nT = len(targets)
    samples = np.zeros((nT, n))
    for ti in range(nT):
        hit = np.isfinite(times[ti])
        if hit.any():
            samples[ti, hit] = np.exp(-beta * times[ti, hit]) * np.asarray(
                v(locs[ti, hit]), dtype=float
            )
    ests = [McEstimate.from_samples(samples[ti]) for ti in range(nT)]
    return ests, samples


def level_crossing_times(
    norm,
    triplet: LevyTriplet,
    start: np.ndarray,
    levels,
    cfg: PathConfig,
    n_paths: int,
    rng: np.random.Generator,
    observe=None,
) -> np.ndarray:
    """First times at which q_x(X_t) exceeds each level, on shared paths.

    Returns an array (n_levels, n_paths) of times (inf when never).  Shared
    paths make the times nondecreasing across nested levels per path.
    `observe(t, idx, z, times, entries)` is handed to the engine
    (`passage._step_paths`) and sees each block's full points and entries;
    it draws nothing, so the times are the same with or without it.
    """
    levels = np.asarray(levels, dtype=float)
    times, _ = passage._step_paths(
        triplet, start, lambda z: q_x_eval(norm, z) > levels[:, None], range(np.shape(start)[-1]),
        cfg, n_paths, rng, observe=observe, locate=False,
    )
    return times


# Each profile of the level-set control keeps its forms up to the last whose
# share theta^2 s^2 is at least this fraction of the largest; each further
# one costs a form a stop and adds almost nothing.  With weights 2^-n and
# unit rates that is 9 growth pairings: on capacity_tightness's grid, 8 and
# 32 pairings cut the level-2 variance alike (5.95 and 5.97x over 3 seeds),
# 6 by 5.83x.
_CONTROL_SHARE = 4.0**-4

# The exponents p of the profiles theta_n = kappa w_n^p on the growth
# pairings; inf keeps the first pairing alone.  Fitted jointly with the
# coordinate profile of q_x's Q term, they cut the variance 1.23/1.54/1.66x
# below the p = 1 profile alone at levels 1/2/3 (median of 40 seeds at the
# shipped capacity grid); further exponents added nothing
# (BENCH_capacity_family.json).
_PAIRING_EXPONENTS = (1.0, 1.5, 2.0, np.inf)


def _level_control(norm, triplet: LevyTriplet, start, levels, beta: float, cfg, n_paths, rng):
    """Crossing times (levels, paths) of the q_x levels
    (`level_crossing_times`) from one start and, per (level, profile, path),
    a control C with E C = 0 exactly, from the same paths: (levels,
    profiles, paths).

    A profile is a product h(z) = prod_r cosh(theta_r <f_r, z>) over linear
    forms f_r with disjoint coordinate supports.  Under a drift-free
    continuous diagonal law the <f_r, X_t> are independent Brownian motions
    with rates s_r^2 = sum_j f_rj^2 g_j, so with (1/2) sum theta_r^2 s_r^2 =
    beta, h has generator eigenvalue beta and e^(-beta t) h(X_t) is a
    martingale, on the grid too.  At the bounded stopping time S = T_L ^
    (last grid time, ceil(horizon/dt) dt), optional stopping gives
    E e^(-beta S) h(X_S) = h(z_0), so C = e^(-beta S) h(X_S) / h(z_0) - 1
    has mean 0 (Henderson and Glynn 2002).  The profiles:
      - the growth pairings p_n = <e_n^x, z> with theta_n = kappa w_n^p, for
        each p in _PAIRING_EXPONENTS, w_n = 2^(-n/2) the weights of q_x's G
        term: p = 1 is G's own shape, p = inf keeps p_1 alone;
      - the coordinates with theta_j = kappa sqrt(coef_j), the shape of
        q_x's Q term.
    Each keeps its forms up to the last with a large share
    (`_CONTROL_SHARE`), and a profile whose forms the law does not move is
    left out.  Every h is at most e^(c q_x) for a constant c, so C is
    bounded on a miss.

    `observe` keeps each block's stops: the entries the engine hands it
    give each entering path's step, and a miss stops at the last grid time.
    Once the crossing times are found, the stop points are evaluated in
    chunks whose temporaries stay within passage._BLOCK elements, one
    scalar per (level, profile, path), its log: log cosh a = a + log(1 +
    e^(-2a)) - log 2 keeps it finite at any level."""
    if triplet.jumps is not None or triplet.drift.any():
        raise PreconditionError("the level-set control needs a drift-free continuous law")
    basis = norm.growth_basis.basis
    rates = basis**2 @ triplet.gaussian_diag  # s_n^2 of the growth pairings
    ratio = 0.5 ** np.arange(basis.shape[0])  # w_n^2 / w_1^2
    # (forms, their rates, theta^2 up to scale) of each profile
    shapes = [(basis, rates, ratio**p) for p in _PAIRING_EXPONENTS]
    shapes.append((np.eye(basis.shape[1]), triplet.gaussian_diag, norm.coef))
    blocks, spans = [], []  # the rows theta_r f_r of each profile, and their span
    for forms, rate, u2 in shapes:
        share = u2 * rate  # theta_r^2 s_r^2 up to scale
        if not share.any():  # the law moves none of its forms
            continue
        m = 1 + np.flatnonzero(share >= _CONTROL_SHARE * share.max())[-1]
        theta = np.sqrt(2.0 * beta / share[:m].sum() * u2[:m])
        begin = spans[-1].stop if spans else 0
        spans.append(slice(begin, begin + m))
        blocks.append(forms[:m] * theta[:, None])
    if not blocks:
        raise PreconditionError("the law moves no form of any control profile")
    scaled = np.concatenate(blocks)
    # the coordinates up to the last any profile reads: few, since the forms
    # run on from coordinate 1; scaled @ z[:, :width].T holds theta_r <f_r, z>
    width = 1 + np.flatnonzero(scaled.any(axis=0))[-1]
    scaled = scaled[:, :width]

    def log_h(z):  # log h + (forms) log 2 per profile at points (rows, width)
        a = scaled @ z.T
        np.abs(a, out=a)
        total = [a[span].sum(axis=0) for span in spans]  # sum a
        a *= -2.0
        np.exp(a, out=a)
        a += 1.0
        return np.array([s + np.log(a[span].prod(axis=0)) for s, span in zip(total, spans)])

    levels = np.asarray(levels, dtype=float)
    t_end = cfg.n_steps * cfg.dt
    # per block: flat indices (level, path), S and the stop points
    stops = [(np.empty(0, dtype=int), np.empty(0), np.empty((0, width)))]

    def observe(t, idx, z, times, entries):
        entered, first = entries
        f = np.flatnonzero(entered)  # level * live + row
        steps = first.ravel()[f]
        if t[-1] == t_end:  # a miss stops at the last grid time
            missed = np.flatnonzero(np.isinf(times[:, idx]))
            f = np.concatenate((f, missed))
            steps = np.concatenate((steps, np.full(missed.size, t.size - 1)))
        level, rows = np.divmod(f, idx.size)
        stops.append((level * n_paths + idx[rows], t[steps], z[steps, rows, :width]))

    times = level_crossing_times(norm, triplet, start, levels, cfg, n_paths, rng, observe)
    # log(e^(-beta S) h(X_S) / h(z_0)) per profile and flat (level, path), 0 at S = 0
    log_ratio = np.zeros((len(spans), levels.size * n_paths))
    log0 = log_h(np.asarray(start, dtype=float)[None, :width])
    f, stop, pts = (np.concatenate(part) for part in zip(*stops))
    chunk = max(1, passage._BLOCK // len(scaled))  # log_h's (forms, rows) temporaries
    for lo in range(0, f.size, chunk):
        at = slice(lo, lo + chunk)
        log_ratio[:, f[at]] = log_h(pts[at]) - beta * stop[at] - log0
    control = np.expm1(log_ratio).reshape(len(spans), levels.size, n_paths)
    return times, control.transpose(1, 0, 2)


def _cross_fitted(y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Control-variate residuals y - b . c, row by row of (rows, n) samples
    with k controls each, c (rows, k, n).  Each half of the n columns is
    corrected with the coefficients b fitted jointly, by least squares with
    an intercept, on the other half (Glasserman 2003, section 4.1).  Every
    column's b is independent of it, so with E c = 0 the residuals' mean is
    exactly unbiased, however b is rounded.  b = 0 where the fitting half
    has fewer than k + 2 columns or its design [1, c] is singular (a
    constant or a repeated control): a Gauss-Jordan pivot of the normal
    equations, the squared part of a column that the earlier ones leave,
    falls within columns x eps of the column's squared norm.  The normal
    equations are solved here, not by LAPACK, whose first call in a process
    maps 0.2-0.7 MB of library pages into the resident set."""
    out = y.copy()
    n, k = y.shape[-1], c.shape[-2]
    first, second = slice(0, n // 2), slice(n // 2, n)
    for fit, use in ((second, first), (first, second)):
        cf = c[:, :, fit]
        m = cf.shape[-1]
        if m < k + 2:
            continue
        design = np.concatenate((np.ones_like(cf[:, :1]), cf), axis=1)  # (rows, k + 1, m)
        # the normal equations, their right-hand side in the last column
        a = design @ np.concatenate((design, y[:, None, fit]), axis=1).transpose(0, 2, 1)
        floor = m * np.finfo(float).eps * a.diagonal(axis1=1, axis2=2)
        ok = np.ones(len(a), dtype=bool)
        for p in range(k + 1):  # a Gram matrix needs no row exchanges
            ok &= a[:, p, p] > floor[:, p]
            row = a[:, p] / np.where(ok, a[:, p, p], 1.0)[:, None]
            a -= a[:, :, p, None] * row[:, None]
            a[:, p] = row
        out[ok, use] -= (a[ok, None, 1:, -1] @ c[ok, :, use])[:, 0]
    return out


def discounted_occupancy(
    triplet: LevyTriplet,
    start: np.ndarray,
    M: TargetSet,
    F_targets,
    beta: float,
    cfg: PathConfig,
    n_paths: int,
    rng: np.random.Generator,
):
    """Per-path grid sums D_F of e^{-beta t} 1_F(X_t) dt over the grid times
    t < T_M (to the horizon for a miss), each path stopped at its hit of M.
    By the strong Markov property E D_F = nu U_beta 1_F - nu_M U_beta 1_F,
    nu the start's point mass.  Returns (T_M array, D matrix, hit locations),
    a continuous hit cut onto M's boundary (`_boundary_cut`)."""
    D = np.zeros((len(F_targets), n_paths))

    def observe(t, idx, z, times, entries):
        w = (np.exp(-beta * t) * cfg.dt)[:, None] * (t[:, None] < times[0, idx])
        for fi, F in enumerate(F_targets):
            D[fi, idx] += (w * F(z)).sum(axis=0)

    read = sorted({j for t in (M, *F_targets) for j in t.coords})
    times, locs = passage._step_paths(
        triplet, start, lambda z: M(z)[None], read, cfg, n_paths, rng,
        cuts=[_boundary_cut(triplet, M)], observe=observe,
    )
    return times[0], D, locs[0]


# -- potential-theoretic operations ----------------------------------------


def horizon_bias_bound(sup_v: float, beta: float, cfg: PathConfig) -> float:
    """Truncation error certificate ||v|| e^{-beta*horizon}."""
    return sup_v * float(np.exp(-beta * cfg.horizon))


def capacity(
    triplet: LevyTriplet,
    lam: PointCloud,
    M: TargetSet,
    beta: float,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
) -> McEstimate:
    """c_lambda(M) with the bounded potential p = U_beta 1 = 1/beta:

        c_lambda(M) = (1/beta) sum_i m_i E[e^{-beta T_M} ; hit from z_i].

    It reads hit times alone, so it draws no hit location."""
    if beta <= 0:
        raise PreconditionError("beta must be positive")
    ests = []
    for zi in lam.points:
        time, _ = _hit(triplet, zi, M, cfg, n, rng, locate=False)
        # exp(-inf) = 0 for a miss
        ests.append(McEstimate.from_samples(np.exp(-beta * time) / beta))
    return lam.weighted_sum(ests)


def capacity_tightness_profile(
    norm,
    triplet: LevyTriplet,
    lam: PointCloud,
    levels,
    beta: float,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
):
    """c_lambda of the complements of nested q_x level sets, on common paths.

    Each level's samples e^(-beta T_L) / beta are corrected by the five
    exact martingale controls of `_level_control`, from the same paths with
    no extra draw, with coefficients fitted jointly on the other half of
    the paths (`_cross_fitted`): the estimate stays exactly unbiased, its
    stderr comes from the residuals, and the bands are 2.0-4.8x narrower
    than the plain means' at the shipped configs' levels.
    Shared paths keep the plain discount factors nonincreasing across
    levels per path, but the corrected means are ordered only in law.  The
    law must be drift-free and continuous (PreconditionError otherwise)."""
    if beta <= 0:
        raise PreconditionError("beta must be positive")
    levels = list(levels)
    per_point = []  # each point's estimates, one a level
    for zi in lam.points:
        times, control = _level_control(norm, triplet, zi, levels, beta, cfg, n, rng)
        disc = np.exp(-beta * times) / beta  # exp(-inf) = 0 for a miss
        per_point.append([McEstimate.from_samples(r) for r in _cross_fitted(disc, control)])
    return [
        {"level": lv, "estimate": lam.weighted_sum(ests)}
        for lv, ests in zip(levels, zip(*per_point))
    ]


def balayage_check(
    triplet: LevyTriplet,
    nu: PointCloud,
    M: TargetSet,
    beta: float,
    F_specs,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
) -> dict:
    """Compare nu_M o U_beta with nu o U_beta on probe sets F.

    F_specs is a list of {"target": TargetSet, "inside": bool} where inside
    certifies F subset M.  Each row's difference nu U_beta 1_F - nu_M
    U_beta 1_F is the mean discounted occupancy of F before the hit of M
    (`discounted_occupancy`, whose paths stop at the hit): nonnegative per
    path, and for F inside M exactly 0.  Also checks the carrier property:
    the sampled hitting locations lie in M's closure (`_closure`), where a
    continuous hit is cut onto its boundary.
    """
    if beta <= 0:
        raise PreconditionError("beta must be positive")
    targets = [spec["target"] for spec in F_specs]
    per_point = []  # each point's estimates, one a probe set
    per_sample_ineq = True
    any_hit = False
    carrier_ok = True
    in_closure = _closure(M)
    for zi in nu.points:
        T, D, loc = discounted_occupancy(triplet, zi, M, targets, beta, cfg, n, rng)
        hits = np.isfinite(T)
        if hits.any():
            any_hit = True
            carrier_ok &= bool(np.all(in_closure(loc[hits])))
        per_sample_ineq &= bool(np.all(D >= 0))
        per_point.append([McEstimate.from_samples(d) for d in D])
    rows = []
    for F, spec, ests in zip(targets, F_specs, zip(*per_point)):
        diff_est = nu.weighted_sum(ests)
        inside = bool(spec["inside"])
        verdict = diff_est.verdict(0.0) if inside else diff_est.verdict_at_least(0.0)
        rows.append(dict(F=F.name, inside=inside, verdict=verdict, difference=diff_est))
    return {
        "rows": rows,
        "per_sample_inequality": per_sample_ineq,
        "carrier_ok": carrier_ok,
        "degenerate": not any_hit,
    }


def domination_check(
    triplet: LevyTriplet,
    mu: PointCloud,
    nu: PointCloud,
    probes_in_G,
    probes_out_G,
    beta: float,
    n: int,
    rng: np.random.Generator,
) -> dict:
    """Domination principle: verify mu o U_beta <= nu o U_beta on probes in
    the carrier G, then test the conclusion on probes outside G.

    Each probe's row holds the difference nu U_beta 1_B - mu U_beta 1_B and
    its one-sided verdict (at least 0); the report holds the rows of each
    side and whether the hypothesis holds on G (no row fails).  The
    conclusion rows are empty when it does not.  Each probe shares one
    batch of resolvent increments across every cloud point of both measures
    (common random numbers)."""
    if beta <= 0:
        raise PreconditionError("beta must be positive")

    def probe_row(B: TargetSet):
        t = rng.exponential(1.0 / beta, size=n)
        incr = sample_increments(triplet, t, n, rng)
        def side(c):  # each point's share added onto zeros in cloud order
            return sum((m * B(p + incr) / beta for p, m in zip(c.points, c.masses)), np.zeros(n))

        diff = McEstimate.from_samples(side(nu) - side(mu))
        return {"difference": diff, "verdict": diff.verdict_at_least(0.0)}

    hyp_rows = [probe_row(B) for B in probes_in_G]
    hypothesis_ok = all(r["verdict"] != "fail" for r in hyp_rows)
    return {
        "hypothesis_rows": hyp_rows,
        "hypothesis_ok": hypothesis_ok,
        # skipped when the hypothesis fails on G
        "conclusion_rows": [probe_row(B) for B in probes_out_G] if hypothesis_ok else [],
    }


def polarity_diagnostic(
    triplet: LevyTriplet,
    targets,
    start: np.ndarray,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
) -> dict:
    """Hit probabilities of a nested family of targets, largest first, from
    one start (E-balls around a point, H-balls, ...): a row a target, with
    its name and estimate.

    A diagnostic, not a proof: verdict "consistent with polarity" when no
    probability rises above the one before it by more than 3 BAND_Z
    hypot(se), and the last is at most half the first plus that band.  A
    start inside the largest target would hit them all at time 0."""
    start = np.asarray(start, dtype=float)
    if targets[0](start[None, :]).any():
        raise PreconditionError("the start lies inside the largest target")
    band = lambda a, b: 3 * BAND_Z * np.hypot(a.stderr, b.stderr)
    ests = []
    for target in targets:
        times, _ = _hit(triplet, start, target, cfg, n, rng, locate=False)
        ests.append(McEstimate.from_samples(np.isfinite(times).astype(float)))
    monotone = all(b.mean <= a.mean + band(a, b) for a, b in zip(ests, ests[1:]))
    shrinking = ests[-1].mean <= 0.5 * ests[0].mean + band(ests[0], ests[-1])
    return {
        "rows": [{"target": t.name, "estimate": e} for t, e in zip(targets, ests)],
        "verdict": "consistent with polarity" if monotone and shrinking else "not consistent",
    }


def projection_convergence(
    triplet: LevyTriplet,
    t: float,
    n_grid,
    samples: int,
    rng: np.random.Generator,
) -> dict:
    """Mean squared E-norm of the projection tail of the increment law.

    For the pure unit-H Gaussian case the closed form is t * sum_{k>n}
    lambda_k and each cell carries a pass/fail verdict; otherwise only the
    decreasing trend is reported."""
    model = triplet.model
    z = sample_increments(triplet, t, samples, rng)
    rows = []
    for ngrid in sorted(n_grid):
        tail = model.weights[ngrid:] * z[:, ngrid:] ** 2
        est = McEstimate.from_samples(tail.sum(axis=1))
        row = {"n": ngrid, "estimate": est}
        if triplet.is_pure_unit_gaussian:
            target = t * float(model.weights[ngrid:].sum())
            row["target"] = target
            row["verdict"] = est.verdict(target)
        rows.append(row)
    means = [r["estimate"].mean for r in rows]
    return {
        "rows": rows,
        "decreasing": all(means[i + 1] <= means[i] for i in range(len(means) - 1)),
    }
