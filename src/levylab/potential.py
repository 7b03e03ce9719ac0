"""Path simulation, hitting times, reduced functions, capacity and balayage.

Every path estimator runs on one stepping engine.  Paths are stepped on a
fixed time grid; each increment is drawn exactly from the increment law at
the step size, so there is no Euler error, only the discrete monitoring of
the target at the grid points.  Every triplet steps only the coordinates
its targets read (`TargetSet.coords`) and it moves, and its jump support,
from its marginal law on them (`LevyTriplet.carried`, `.marginal`).  A
read coordinate it does not move stays at its start; the other moved ones
carry no jumps, so they are a diagonal Brownian motion with drift,
independent of every stopping time, drawn exactly at each stopping time.
The engine steps blocks of grid steps within `_BLOCK` = 32768 elements
and stops each path inside its block at its last entry (`_step_paths`);
balayage reads only the occupancy before the hit (`discounted_occupancy`).
The budget is capped by the peak memory of a full-width exit: with 1000
paths x 32 coordinates, a block larger than one step (32000 elements)
raises the peak that `test_full_width_exit_memory` bounds at 5.25 steps
(40960 measured 5.72).

The capacities of the complements of q_x level sets
(`capacity_tightness_profile`) carry exact martingale control variates
from the same paths: for a drift-free continuous law, e^(-beta t) prod_r
cosh(theta_r <f_r, X_t>) is a martingale for each of five profiles shaped
on the two parts of q_x^2 = Q + G^2, so its value at the crossing (or the
last grid time) has a known mean.  The engine hands `observe` the entries
it finds, which give each crossing's stop point, and each level's samples
are corrected with jointly cross-fitted coefficients (`_level_control`,
`_cross_fitted`).

A single-target hit of a target that reads only its face coordinates
(a halfspace, a slab, a box), when the law moves each of them as a
drift-free Brownian motion, skips the grid altogether: its first passage
is sampled exactly (`_face_passage`), so it carries no monitoring error
and its hit times are off the grid, also from one jump epoch to the next
under a finite-activity jump law.  Drifted face coordinates keep the
engine.

A single-target hit of an E-ball or its complement (a target with a
declared `EForm`) steps only the head of the E-norm on the grid, the
coordinates whose weight is at least _HEAD_FRACTION of the first, when the
law is continuous, the tail has at least two coordinates moved without
drift at one variance rate, and every start's tail is the centre's.  The
tail then enters the E-norm only through its squared radius, a squared
Bessel process stepped exactly (`_tail_radii`); the tail vector is drawn
only at the step where the weight bounds on it cannot rule out entry
(`_radial_passage`).  Its hits stay on the grid and have the
engine's law.

One planner (`_hit`) picks the mode of a one-target hit: a target that
reads no coordinate is decided at time 0, else face passage, else the
radial mode, else the engine.  `simulate_hit_batch` calls it, and
so does `multi_target_hit` when, past the targets every start lies in and
the repeats of one target object, a single target is left.  Every located
continuous hit lands on the target's declared boundary: on its face by
face passage, else cut there from the entering grid step (`_boundary_cut`,
handed to the engine per target); a jump law keeps its landing points.

Hitting uses the D-convention: membership is checked at time 0, so a start
inside an open target hits immediately.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .measures import BAND_Z, LevyTriplet, McEstimate, PreconditionError, sample_increments
from .space import SpaceModel


@dataclass(frozen=True)
class PathConfig:
    dt: float
    horizon: float
    # exact first passage for targets made of coordinate faces (see the
    # module docstring); False keeps them on the engine, monitored at the
    # grid points only
    bridge: bool = True

    def __post_init__(self):
        # NaN fails every comparison, so finiteness is checked first
        if not (math.isfinite(self.dt) and math.isfinite(self.horizon)):
            raise ValueError("dt and horizon must be finite")
        if self.dt <= 0 or self.horizon <= 0 or self.dt > self.horizon:
            raise ValueError("need 0 < dt <= horizon")


@dataclass(frozen=True)
class EForm:
    """An E-norm target: the ball ||z - center||_E^2 <= r2 (inside) or its
    complement ||z - center||_E^2 > r2, with the sphere ||z - center||_E^2 =
    r2 on the target's side when closed."""

    weights: np.ndarray
    center: np.ndarray
    r2: float
    inside: bool
    closed: bool

    def holds(self, q):
        """Membership of points at squared E-distance q from the centre."""
        if self.inside:
            return q <= self.r2 if self.closed else q < self.r2
        return q >= self.r2 if self.closed else q > self.r2


@dataclass(frozen=True)
class TargetSet:
    """Membership predicate plus optional coordinate-aligned faces.

    A face (j, v, side) declares the halfspace side*(c_j - v) >= 0 as part
    of the target.  A target that reads only face coordinates (coords is
    the set of its faces' coordinates) is the union of its face halfspaces,
    the complement of a box of intervals, and its first passage is sampled
    exactly (`_face_passage`); the engine reads no faces.  `coords` lists
    the 0-based coordinates the membership reads; None means all of them.
    The engine steps those the law moves and the jump support
    (`LevyTriplet.carried`); a membership may be handed only the columns up
    to the largest read or stepped one, a read one it does not step at its
    start and an unread one at 0.
    `e_form` declares a membership that is an E-ball or its complement,
    which lets a hit step the E-norm's tail as one radius
    (`_radial_passage`).

    The membership of an axis-aligned target combines one column at a
    time (`in_box`, `off_open_box`): a reduction over a short last axis,
    such as np.all(..., axis=-1), costs tens of ns a row.
    """

    name: str
    membership: Callable[[np.ndarray], np.ndarray]
    faces: tuple = ()
    coords: tuple | None = None
    e_form: EForm | None = None

    def __post_init__(self):
        if self.coords is not None and any(j not in self.coords for j, _, _ in self.faces):
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


# -- target constructors ----------------------------------------------------


def empty_set(model: SpaceModel) -> TargetSet:
    return TargetSet("empty", lambda z: np.zeros(z.shape[:-1], dtype=bool), coords=())


def whole_space(model: SpaceModel) -> TargetSet:
    return TargetSet("whole", lambda z: np.ones(z.shape[:-1], dtype=bool), coords=())


# Centres with more nonzero coordinates than this are subtracted in one
# pass.  On 32 coordinates, one pass costs what 4 column passes cost at
# 40000 rows and 8 at 1000 rows.
_SPARSE_CENTER = 4


def _e_target(name, model: SpaceModel, center, radius, inside, closed) -> TargetSet:
    c = np.asarray(center, dtype=float)
    form = EForm(model.weights, c, radius * radius, inside, closed)
    moved = [(j, c[j]) for j in np.flatnonzero(c)]

    def off_center_norm2(z):
        # e_norm2(z - c) bit for bit (z_j - 0.0 is z_j) in one temporary.  A
        # sparse centre goes column by column, because `d -= c` also
        # allocates numpy's 64 KB iteration buffer, which a full-width
        # exit's peak memory would carry
        d = z.copy()
        if len(moved) > _SPARSE_CENTER:
            d -= c
        else:
            for j, cj in moved:
                d[..., j] -= cj
        return np.multiply(d, d, out=d) @ model.weights

    norm2 = off_center_norm2 if moved else model.e_norm2
    return TargetSet(name, lambda z: form.holds(norm2(z)), e_form=form)


def e_ball(model: SpaceModel, center: np.ndarray, radius: float) -> TargetSet:
    return _e_target(f"e_ball(r={radius})", model, center, radius, True, True)


def e_ball_complement(
    model: SpaceModel, center: np.ndarray, radius: float, closed: bool = False
) -> TargetSet:
    """||z - center||_E > radius, or >= radius when closed (the exit set of
    the open ball)."""
    name = f"e_ball_complement(r={radius}{', closed' if closed else ''})"
    return _e_target(name, model, center, radius, False, closed)


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
    # c_j >= level gives the booleans of side*(c_j - level) >= 0 for side
    # +1: a difference of unequal floats never rounds to zero
    above = side > 0
    return TargetSet(
        f"halfspace(c{coord}{'>=' if above else '<='}{level})",
        lambda z: z[..., j] >= level if above else z[..., j] <= level,
        faces=((j, level, side),),
        coords=(j,),
    )


def slab_complement(model: SpaceModel, coord: int, a: float, b: float) -> TargetSet:
    """Complement of the open slab a < c_coord < b."""
    j = _column(model, coord)
    if math.isnan(a) or math.isnan(b):  # face passage would drop a NaN face
        raise ValueError("slab bounds must not be NaN")
    return TargetSet(
        f"slab_complement(c{coord} outside ({a},{b}))",
        lambda z: (z[..., j] <= a) | (z[..., j] >= b),
        faces=((j, a, -1), (j, b, +1)),
        coords=(j,),
    )


# Axis-aligned membership, one column at a time (see `TargetSet`).


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


def in_box(z, lo, hi, closed):
    """Whether lo_j <= z_j <= hi_j (closed) or lo_j < z_j < hi_j (open) in
    every column j < lo.size of z (..., N); True everywhere for an empty box."""
    above, below = (np.greater_equal, np.less_equal) if closed else (np.greater, np.less)
    m = np.ones(z.shape[:-1], dtype=bool)
    for j, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        m &= above(z[..., j], a)
        m &= below(z[..., j], b)
    return m


def off_open_box(z, lo, hi):
    """Whether z_j <= lo_j or z_j >= hi_j in some column j < lo.size of z
    (..., N): the complement of the open box, which a NaN column does not
    reach; False everywhere for an empty box."""
    m = np.zeros(z.shape[:-1], dtype=bool)
    for j, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        m |= z[..., j] <= a
        m |= z[..., j] >= b
    return m


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
    return TargetSet(
        "box_complement",
        lambda z: off_open_box(z, lo, hi),
        faces=tuple((j, lo[j], -1) for j in range(k))
        + tuple((j, hi[j], +1) for j in range(k)),
        coords=tuple(range(k)),
    )


def coord_ball(model: SpaceModel, center: np.ndarray, radius: float, k: int) -> TargetSet:
    """Euclidean ball in the first k pairing coordinates."""
    c = np.asarray(center, dtype=float)[:k]
    return TargetSet(
        f"coord_ball(k={k}, r={radius})",
        lambda z: np.sum((z[..., :k] - c) ** 2, axis=-1) <= radius * radius,
        coords=tuple(range(k)),
    )


def h_ball(model: SpaceModel, radius: float) -> TargetSet:
    """Truncated H-norm ball around the origin."""
    return TargetSet(
        f"h_ball(r={radius})", lambda z: model.h_norm2(z) <= radius * radius
    )


# -- the stepping engine ----------------------------------------------------


def _support(targets):
    """Union of the targets' declared coordinates; None when one reads all."""
    if any(t.coords is None for t in targets):
        return None
    return tuple(sorted(set().union(*(t.coords for t in targets))))


# Elements (grid steps x live paths x read or stepped coordinates) one engine
# iteration draws at most, unless a single step is already larger.  Chosen
# by a sweep of the path benchmark (BENCH_engine_blocks.json); larger
# budgets raise a full-width exit's peak memory (see the module docstring).
_BLOCK = 32768


def _prefix_sum(path: np.ndarray):
    """Sum a block of increments (steps, paths, coords) along the step axis,
    in place.  Both branches add step s - 1 to step s in step order, so they
    give the same bytes."""
    nb = path.shape[0]
    # an add costs about 2 us a step, cumsum about 4.5 ns an element: they
    # break even near 500 elements a step (BENCH_radial_tail.json)
    if path[0].size >= 512:
        for s in range(1, nb):
            np.add(path[s], path[s - 1], out=path[s])
    elif nb > 1:
        np.cumsum(path, axis=0, out=path)


def _step_paths(
    triplet: LevyTriplet,
    start: np.ndarray,
    member,
    coords,
    cfg: PathConfig,
    n_paths: int,
    rng: np.random.Generator,
    cuts=None,
    observe=None,
    locate: bool = True,
    n_steps: int | None = None,
):
    """The stepping engine behind every path estimator.

    `member(z)` maps points (rows, N') to a (targets, rows) membership matrix
    that reads only the coordinates `coords` (None: all); N' is the largest
    read or stepped coordinate + 1.  A path steps until it has entered
    every target.  `cuts` holds a cut or None per membership row: a cut maps
    the entering grid step's points to the entry point, cut(z_in, z_out),
    and the path moves on from the grid point.  Targets are monitored at the grid
    points only; `observe(t, idx, z, times, entries)` sees the block grid
    times t (B,), points z (B, len(idx), N') of the stepped paths idx, the
    entry times found so far, this block's included, to mask the points
    past an entry, and this block's entries (entered, first): entered
    (targets, len(idx)) marks the paths that entered each target in the
    block, and first holds the step of the block where they did (read it
    only where entered).  Paths take `n_steps` grid steps, by default
    ceil(horizon / dt).  Returns entry times (inf when missed) and entry
    points (the start when missed; none without locate).

    Each iteration advances the live paths by a block of B grid steps, the
    largest B (at least 1) with B * paths * read or stepped coordinates <=
    _BLOCK, so blocks grow as the live set shrinks.  One draw of B * paths
    increments, summed along the step axis (`_prefix_sum`) and added to the
    positions, gives the block's grid points; a path stops at the step
    where it entered its last target.  Stopping inside a block is exact:
    that step's decision reads only the increments up to it, and the
    discarded draws after it are independent of everything kept.

    The live paths are held compacted, in their original order: their ids,
    stepped positions and still-awaited targets are dense arrays, shrunk
    only on an iteration where some path stopped; paths that start inside
    every target are never live.  The draws are unchanged by this: each
    iteration draws B * paths increments for the same live paths in the
    same order as a scan of all paths would.  The positions stay in the
    buffer allocated before the loop and shrink within it, so an iteration
    allocates only its block and the membership's temporaries.

    The stepped coordinates are the read ones the law moves plus the jump
    support (`LevyTriplet.carried`), drawn from the law's marginal on them;
    membership sees a read column the law does not move at its start, and
    0 in the unread ones up to the largest handed.  The others it moves
    carry no jumps and a diagonal Gaussian part, so they are independent of
    every stopping time and are drawn at the entry times (`_draw_rest`).
    """
    z0 = _starts(start, n_paths)
    read = range(z0.shape[1]) if coords is None else coords
    cols = triplet.carried(read)
    k = cols.size
    law = triplet.marginal(cols) if k else None
    # the columns membership is handed: the read ones and the stepped ones
    shown = {*read, *cols.tolist()}
    width = max(shown) + 1 if shown else 0
    held = sorted(shown.difference(cols.tolist()))  # read, but not moved by the law

    def widen(y, rows=slice(None)):  # live rows y (..., rows, k) to (..., rows, width)
        if k == width:  # every column up to the last handed one is stepped
            return y
        z = np.zeros(y.shape[:-1] + (width,))
        if held:  # the starts, whose stepped columns are overwritten next
            z[...] = z0[ids[rows], :width]
        z[..., cols] = y
        return z

    times = np.where(member(z0), 0.0, np.inf)
    n_t = times.shape[0]
    locs = np.repeat(z0[None], n_t if locate else 0, axis=0)
    # the live set, kept in path order: path ids, stepped positions and the
    # targets each path still awaits; it shrinks only when a path stops, and
    # the positions shrink within the buffer allocated here
    ids = np.flatnonzero(np.isinf(times).any(axis=0))
    pending = np.isinf(times[:, ids])
    y = z0[np.ix_(ids, cols)]
    if n_steps is None:
        n_steps = int(np.ceil(cfg.horizon / cfg.dt))
    done = 0
    while done < n_steps and ids.size:
        r = ids.size
        nb = min(n_steps - done, max(1, _BLOCK // (r * max(len(shown), 1))))
        if law is None:
            path = np.empty((nb, r, 0))
        else:
            path = sample_increments(law, cfg.dt, nb * r, rng).reshape(nb, r, k)
            _prefix_sum(path)
        path += y
        z = widen(path)
        inside = member(z.reshape(nb * r, width)).reshape(n_t, nb, r) & pending[:, None]
        if nb == 1:  # many live paths: no block axis to search
            entered, first = inside[:, 0], np.zeros((n_t, r), dtype=int)
        else:
            entered, first = inside.any(axis=1), inside.argmax(axis=1)
        t = (done + 1 + np.arange(nb)) * cfg.dt
        entering = entered.any()
        if entering:
            for ti in np.flatnonzero(entered.any(axis=1)):
                rows = np.flatnonzero(entered[ti])
                s = first[ti, rows]
                times[ti, ids[rows]] = t[s]
                if locate:
                    z_at = path[s, rows]
                    if cuts and cuts[ti] is not None:
                        z_in = np.where((s > 0)[:, None], path[s - 1, rows], y[rows])
                        z_at = cuts[ti](widen(z_in, rows), widen(z_at, rows))[:, cols]
                    locs[ti, ids[rows, None], cols] = z_at
            pending &= ~entered
            going = pending.any(axis=0)
        if observe is not None:
            observe(t, ids, z, times, (entered, first))
        if not entering or going.all():
            y[...] = path[nb - 1]
        else:  # the stopped paths leave the live set; the rest move on
            ids, pending = ids[going], pending[:, going]
            y = np.compress(going, path[nb - 1], axis=0, out=y[: ids.size])
        done += nb
        del path, z  # free this block before the next one is drawn
    if locate:
        _draw_rest(triplet, cols, z0, times, locs, rng)
    return times, locs


def _starts(start, n_paths: int) -> np.ndarray:
    """A private (n_paths, N) copy of a shared start or of per-path starts."""
    start = np.asarray(start, dtype=float)
    if start.ndim == 2:
        if start.shape[0] != n_paths:
            raise ValueError("per-path starts must supply one row per path")
        return start.copy()
    return np.tile(start, (n_paths, 1))


def _draw_rest(triplet, cols, z0, times, locs, rng):
    """Draw the coordinates the law moves outside `cols` into the entry
    points `locs` (targets, paths, N) at the finite entry `times` (targets,
    paths); the columns it does not move keep their starts.

    Those coordinates have a diagonal Gaussian part, and any jumps the law
    gives them move no column of `cols`: the engine steps the whole jump
    support, and `_face_passage` passes jumps only when they move no face
    coordinate.  So they are independent of the columns in `cols`, and so
    of every stopping time read from those.  Each path advances them in
    place in its start row of `z0`, one entry time after the other in time
    order, drawn in chunks of consecutive paths of about _BLOCK elements
    (the same draws as one call); a path that entered at time 0 draws
    no increment for it, and a missed target keeps the start."""
    moved = triplet.carried(range(z0.shape[1]))  # it holds `cols`
    rest = np.delete(moved, np.searchsorted(moved, cols))
    if not rest.size:
        return
    rest_law = triplet.marginal(rest)
    # each run of consecutive columns indexes as a slice, far cheaper than a
    # fancy index on both axes: (its columns in z0, its columns in a draw)
    cuts = np.flatnonzero(np.diff(rest) != 1) + 1
    runs = [
        (slice(r[0], r[-1] + 1), slice(i, i + r.size))
        for i, r in zip([0, *cuts.tolist()], np.split(rest, cuts))
    ]
    chunk = max(1, _BLOCK // rest.size)
    paths = np.arange(z0.shape[0])
    t_prev = np.zeros(paths.size)
    for kth in np.argsort(times, axis=0, kind="stable"):
        tk = times[kth, paths]
        seen = np.flatnonzero(np.isfinite(tk))
        moving = seen[tk[seen] > t_prev[seen]]
        for lo in range(0, moving.size, chunk):
            rows = moving[lo : lo + chunk]
            step = sample_increments(rest_law, tk[rows] - t_prev[rows], rows.size, rng)
            for span, part in runs:
                z0[rows, span] += step[:, part]
        t_prev[moving] = tk[moving]
        for lo in range(0, seen.size, chunk):
            rows = seen[lo : lo + chunk]
            for span, _ in runs:
                locs[kth[rows], rows, span] = z0[rows, span]


def _unit_exit_times(n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of J*, the exit time of a standard Brownian motion from
    (-1, 1) started at 0, whose Laplace transform is 1/cosh(sqrt(2s)).

    Devroye's (2009) series-rejection sampler with split point t = 0.64.
    The density of J* is the alternating series sum_n (-1)^n a_n(x), where
    with c = pi (n + 1/2)

        a_n(x) = c exp(-c^2 x / 2)                        for x > t,
        a_n(x) = c (2 / (pi x))^(3/2) exp(-2 (n + 1/2)^2 / x)  for x <= t,

    and the a_n(x) decrease in n.  A proposal is drawn from the density
    proportional to a_0: an exponential right of t, and left of t a Levy
    law 1/Z^2 cut to [0, t] (Marsaglia's tail method for |Z| >= 1/sqrt(t)).
    It is accepted when a uniform under a_0(x) falls below the series,
    which the partial sums settle after a few terms."""
    t, k = 0.64, np.pi**2 / 8

    def term(i, x):  # a_i(x)
        c = np.pi * (i + 0.5)
        right = c * np.exp(-c * c * x / 2)
        left = c * (2 / (np.pi * x)) ** 1.5 * np.exp(-2 * (i + 0.5) ** 2 / x)
        return np.where(x > t, right, left)

    right_mass = 4 / np.pi * np.exp(-k * t)  # the integrals of a_0 over (t, inf)
    left_mass = 2 * math.erfc(1 / math.sqrt(2 * t))  # and over (0, t]
    out = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        m = todo.size
        right = rng.random(m) < right_mass / (right_mass + left_mass)
        x = np.empty(m)
        x[right] = t + rng.standard_exponential(np.count_nonzero(right)) / k
        left = np.flatnonzero(~right)
        while left.size:
            e = rng.standard_exponential((2, left.size))
            ok = e[0] * e[0] * t <= 2 * e[1]
            x[left[ok]] = t / (1 + e[0, ok] * t) ** 2
            left = left[~ok]
        s = term(0, x)
        y = rng.random(m) * s
        accept = np.zeros(m, dtype=bool)
        open_ = np.arange(m)  # proposals the partial sums have not settled
        i = 0
        while open_.size:
            i += 1
            if i % 2:  # an odd partial sum bounds the density below: y under it accepts
                s[open_] -= term(i, x[open_])
                below = y[open_] <= s[open_]
                accept[open_[below]] = True
                open_ = open_[~below]
            else:  # an even one bounds it above: y over it rejects
                s[open_] += term(i, x[open_])
                open_ = open_[y[open_] <= s[open_]]
        out[todo[accept]] = x[accept]
        todo = todo[~accept]
    return out


class _ExitTimePool:
    """J* draws (`_unit_exit_times`) for the walk on intervals.  The first
    request, which every walking path takes, is drawn as it is; later ones
    come from batches of at least `size`, so one series-rejection call feeds
    many rounds of the walk (a call took about 110 us plus 0.3 us a draw on
    one x86-64 core)."""

    def __init__(self, size: int, rng: np.random.Generator):
        self.size, self.rng, self.draws = size, rng, None

    def take(self, m: int) -> np.ndarray:
        if self.draws is None:
            self.draws = np.empty(0)
            return _unit_exit_times(m, self.rng)
        if m > self.draws.size:
            more = _unit_exit_times(max(m, self.size), self.rng)
            self.draws = np.concatenate([self.draws, more])
        out, self.draws = self.draws[:m], self.draws[m:]
        return out


def _coordinate_exit(x, lo, hi, g, cap, pool, rng):
    """Exit times of Brownian motions of variance rate g from x (r,) in
    (lo, hi), one end possibly infinite, and the faces they leave by.  A
    time is exact when at most `cap` (r,); a larger one only says so.

    With one face at distance d, T = d^2 / (g Z^2), the Levy law.  Between
    two faces, the walk on intervals (Muller's walk on spheres in 1-d): from
    x, with r the distance to the nearer face, the path leaves (x - r, x + r)
    after r^2 / g * J*, at x - r or x + r with probability 1/2 each,
    independently of that time; a move onto the nearer face lands exactly
    on it and ends the walk, as does a time past the cap."""
    if np.isinf(lo) or np.isinf(hi):
        face = lo if np.isfinite(lo) else hi
        with np.errstate(divide="ignore"):  # Z = 0 never exits
            t = (x - face) ** 2 / (g * rng.standard_normal(x.size) ** 2)
        return t, np.full(x.size, face)
    x, t = x.copy(), np.zeros(x.size)
    walking = np.arange(x.size)
    while walking.size:
        xw = x[walking]
        near = np.where(xw - lo <= hi - xw, lo, hi)
        t[walking] += (xw - near) ** 2 / g * pool.take(walking.size)
        keep = t[walking] <= cap[walking]
        walking, xw, near = walking[keep], xw[keep], near[keep]
        onto = rng.random(walking.size) < 0.5
        x[walking] = np.where(onto, near, 2 * xw - near)  # or r beyond x, away from it
        # a move away from the nearer face can round onto the other one
        walking = walking[~onto & (lo < x[walking]) & (x[walking] < hi)]
    return t, np.clip(x, lo, hi)


# Proposals the killed-transition sampler makes per round at least, spread
# over the rows still undecided, so that a few rows with a low survival
# probability do not take one round each per proposal.
_PROPOSALS = 1024


def _killed_positions(x, lo, hi, s, rng):
    """Positions at time t of Brownian motions from x (n,) inside the
    intervals (lo, hi) (n,), either end possibly infinite, with variance
    s = g t at t (n,), given that each stays inside up to t: the killed
    transition (Borodin and Salminen 2002, Handbook of Brownian Motion,
    1.15.8).

    A proposal y ~ N(x, s) inside its interval is accepted with the
    probability that the Brownian bridge from x to y stays inside, the image
    series 1 - sum_{j >= 1} (sigma_j - tau_j) with L = hi - lo, u, v the
    distances of x, y from lo and u', v' from hi:

        sigma_j = exp(-2 ((j-1)L + u)((j-1)L + v) / s)
                  + exp(-2 ((j-1)L + u')((j-1)L + v') / s),
        tau_j = exp(-2 jL (jL + v - u) / s) + exp(-2 jL (jL + u - v) / s).

    Each exponent of tau_j exceeds both of sigma_j and each of sigma_{j+1}
    exceeds both of tau_j, so sigma_1 >= tau_1 >= sigma_2 >= ... and the
    partial sums bound the probability alternately from below and above: a
    uniform is compared with them until one decides (the series method,
    Devroye 1986, Non-Uniform Random Variate Generation, IV.5).  On a
    half-line only sigma_1 is left, 1 - exp(-2 u v / s), which decides at
    once.  A row proposes again until it accepts; each round makes at least
    _PROPOSALS proposals over the undecided rows, and a row keeps its first
    accepted one, which leaves the law unchanged."""
    out, taken = np.empty(x.size), np.zeros(x.size, dtype=bool)
    todo = np.arange(x.size)
    while todo.size:
        idx = np.repeat(todo, max(1, _PROPOSALS // todo.size))
        xi, si, lo_i, hi_i = x[idx], s[idx], lo[idx], hi[idx]
        y = xi + np.sqrt(si) * rng.standard_normal(idx.size)
        inside = np.flatnonzero((lo_i < y) & (y < hi_i))
        idx, xi, y, si, lo_i, hi_i = (a[inside] for a in (idx, xi, y, si, lo_i, hi_i))
        u, v, u2, v2, L = xi - lo_i, y - lo_i, hi_i - xi, hi_i - y, hi_i - lo_i
        w = rng.random(inside.size)
        bound = 1 - np.exp(-2 * u * v / si) - np.exp(-2 * u2 * v2 / si)
        accept = w <= bound
        open_ = np.flatnonzero(~accept & np.isfinite(L))
        j = 1
        while open_.size:  # terms pair by pair: an upper bound, then a lower one
            jl, uo, vo, so = j * L[open_], u[open_], v[open_], si[open_]
            bound[open_] += np.exp(-2 * jl * (jl + vo - uo) / so) + np.exp(
                -2 * jl * (jl + uo - vo) / so
            )
            keep = w[open_] <= bound[open_]  # a uniform above an upper bound rejects
            open_, jl, uo, vo, so = open_[keep], jl[keep], uo[keep], vo[keep], so[keep]
            bound[open_] -= np.exp(-2 * (jl + uo) * (jl + vo) / so) + np.exp(
                -2 * (jl + u2[open_]) * (jl + v2[open_]) / so
            )
            below = w[open_] <= bound[open_]  # and one under a lower bound accepts
            accept[open_[below]] = True
            open_ = open_[~below]
            j += 1
        ok = np.flatnonzero(accept)  # in row order, each row's proposals in draw order
        rows = idx[ok]
        first = np.ones(ok.size, dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        out[rows[first]] = y[ok[first]]
        taken[rows[first]] = True
        todo = todo[~taken[todo]]
    return out


def _box_exit(x, lo, hi, g, cap, pool, rng):
    """First exit of paths at x (r, k) from the box of the intervals
    (lo_i, hi_i), its coordinates independent Brownian motions of variance
    rates g (k,), within the time `cap` (r,).  Returns the exit times (inf
    past the cap) and points (r, k), valid where a path exits.

    Each coordinate's exit time comes from `_coordinate_exit`, walked only as
    far as the earliest one so far; the earliest lands on its face.  Given
    that time T and which coordinate attains it, every other coordinate is a
    Brownian motion conditioned to stay inside its interval up to T, so it
    is drawn from the killed transition (`_killed_positions`) and its own
    exit time is discarded."""
    r, k = x.shape
    bound, arg, face = cap.copy(), np.full(r, -1), np.empty(r)
    for i in range(k):
        t, f = _coordinate_exit(x[:, i], lo[i], hi[i], g[i], bound, pool, rng)
        won = t <= bound
        bound[won], arg[won], face[won] = t[won], i, f[won]
    rows = np.flatnonzero(arg >= 0)
    point = x.copy()
    point[rows, arg[rows]] = face[rows]
    if k > 1:
        ri, ci = np.nonzero(np.arange(k) != arg[rows, None])  # the other coordinates
        ri = rows[ri]
        point[ri, ci] = _killed_positions(x[ri, ci], lo[ci], hi[ci], g[ci] * bound[ri], rng)
    return np.where(arg >= 0, bound, np.inf), point


def _jump_exit(jumps, dim, x, lo, hi, g, cols, moved, horizon, pool, rng):
    """First exit of the face coordinates `cols` at x (r, k) from the box
    of the intervals (lo_i, hi_i), under Brownian motion of rates g (k,)
    plus the compound Poisson jumps of `jumps`, by time `horizon`.  Returns
    the exit times (inf for a miss), the exit points (r, k) and each path's
    sum of the jumps' coordinates `moved` (r, len(moved)) up to its exit.

    Epoch by epoch: the next jump comes after tau ~ Exp(intensity); the
    continuous box exit is sampled exactly within tau (`_box_exit`); a path
    that has not left by then is drawn at tau from the killed transition
    (`_killed_positions`), takes the jump, and exits at tau at the
    post-jump point when that lies on or beyond a face."""
    r, k = x.shape
    times, elapsed, acc = np.full(r, np.inf), np.zeros(r), np.zeros((r, moved.size))
    rows = np.arange(r)
    while rows.size:
        tau = rng.standard_exponential(rows.size) / jumps.intensity
        left = horizon - elapsed[rows]
        t, point = _box_exit(x[rows], lo, hi, g, np.minimum(tau, left), pool, rng)
        out = np.isfinite(t)
        times[rows[out]] = elapsed[rows[out]] + t[out]
        x[rows[out]] = point[out]
        go = ~out & (tau < left)  # the jump comes before the horizon
        rows, tau = rows[go], tau[go]
        s = (tau[:, None] * g).ravel()
        y = _killed_positions(x[rows].ravel(), np.tile(lo, rows.size), np.tile(hi, rows.size), s, rng)
        x[rows] = y.reshape(rows.size, k)
        elapsed[rows] += tau
        jump = jumps.sample(rows.size, dim, rng)
        x[rows] += jump[:, cols]
        acc[rows] += jump[:, moved]
        out = off_open_box(x[rows], lo, hi)
        times[rows[out]] = elapsed[rows[out]]
        rows = rows[~out]
    return times, x, acc


def _face_passage(
    triplet: LevyTriplet,
    start: np.ndarray,
    target: TargetSet,
    cfg: PathConfig,
    n_paths: int,
    rng: np.random.Generator,
    locate: bool,
):
    """Exact first passage into a target that is the union of its face
    halfspaces, each face coordinate moved by a drift-free Brownian motion
    of variance rate g > 0, under a continuous or finite-activity jump law.
    Returns (times, locations) like a one-target engine run: time inf and
    the start for a miss; None without locate, which draws no location.

    The target's complement is the box of the intervals (lo_j, hi_j) that
    the faces leave on each face coordinate j (`TargetSet.face_box`).  A start inside the target
    hits at time 0 and draws nothing.  Under a continuous law, or jumps that
    move no face coordinate, the exit is `_box_exit`; under jumps that move
    one, `_jump_exit`.  A path hits when T <= cfg.horizon; the coordinates
    off the faces are then drawn at T (`_draw_rest`) from their Brownian
    part and, when the jumps move no face coordinate, their jumps; for
    `_jump_exit`, the sum of the jumps there is added instead.  The live paths
    draw in path order, so the rows that start inside change no other row's
    draws.  The walk on intervals takes its J* values from one pool
    (`_ExitTimePool`) for the whole call.
    """
    z0 = _starts(start, n_paths)
    dim = z0.shape[1]
    cols, lo, hi = target.face_box()
    g = triplet.gaussian_diag[cols]
    times = np.where(target(z0), 0.0, np.inf)
    live = np.flatnonzero(np.isinf(times))
    x = z0[live[:, None], cols]
    pool = _ExitTimePool(2 * live.size, rng)
    jumps, law, acc = triplet.jumps, triplet, None
    if jumps is None or not np.isin(jumps.support(dim), cols).any():
        t, x = _box_exit(x, lo, hi, g, np.full(live.size, cfg.horizon), pool, rng)
    else:
        support = jumps.support(dim)
        moved = support[~np.isin(support, cols)]
        t, x, acc = _jump_exit(jumps, dim, x, lo, hi, g, cols, moved, cfg.horizon, pool, rng)
        law = replace(triplet, jumps=None)  # the jumps off the faces are in acc
    hit = t <= cfg.horizon
    times[live[hit]] = t[hit]
    if not locate:
        return times, None
    locs = z0[None].copy()
    locs[0, live[hit, None], cols] = x[hit]
    _draw_rest(law, cols, z0, times[None], locs, rng)
    if acc is not None:
        locs[0, live[hit, None], moved] += acc[hit]
    return times, locs[0]


# Coordinates whose E-weight is at least this fraction of the first are the
# radial mode's head: with weights 4^-n, 5 of them.  Heads 4 and 5 tied and
# 6 and 7 were slower in the head sweep (BENCH_radial_floor.json); 5 hands
# off 28% of the benchmark's E-ball paths to the engine, 4 hands off 63%.
_HEAD_FRACTION = 4.0**-4

# Below this many live paths the radius chain's Python loop over the steps
# costs more than finishing them on the engine: 8 to 24 tied in the
# hand-off sweep (BENCH_radial_floor.json).
_RADIAL_MIN_PATHS = 12


def _radial_head(triplet: LevyTriplet, target: TargetSet, start) -> int:
    """The head size m of the radial mode (`_radial_passage`) for a hit of
    `target` from `start`, or 0 when it does not apply.  It needs a
    continuous law, a declared E-form, at least two tail coordinates (those
    whose weight is below _HEAD_FRACTION of the first), moved without drift
    at one variance rate g > 0, and every start's tail at the centre's."""
    form = target.e_form
    if form is None or not triplet.is_continuous:
        return 0
    w = form.weights
    m = int(np.count_nonzero(w >= _HEAD_FRACTION * w[0]))
    g = triplet.gaussian_diag[m:]
    if w.size - m < 2 or g[0] <= 0 or (g != g[0]).any() or triplet.drift[m:].any():
        return 0
    if (np.asarray(start, dtype=float)[..., m:] != form.center[m:]).any():
        return 0
    return m


def _uniform_directions(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.standard_normal((n, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _von_mises_fisher(mu: np.ndarray, kappa: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One unit vector around each unit row of mu (n, d), d >= 2, with
    density proportional to exp(kappa <mu, x>) on the sphere.

    Wood's (1994) sampler: the cosine w = <mu, x> by rejection from
    proposals w = 1 - 2bZ/t, t = 1 - (1 - b) Z, Z ~ Beta((d-1)/2, (d-1)/2),
    b = (d - 1) / (2 kappa + sqrt(4 kappa^2 + (d - 1)^2)), then a uniform
    direction orthogonal to mu.  The acceptance ratio and sqrt(1 - w^2) are
    written in b, Z and t, which do not cancel when kappa is large; kappa =
    0 accepts every proposal, the uniform law."""
    n, d = mu.shape
    b = (d - 1) / (2 * kappa + np.sqrt(4 * kappa * kappa + (d - 1) ** 2))
    w, sin = np.empty(n), np.empty(n)
    todo = np.arange(n)
    while todo.size:
        bt, z = b[todo], rng.beta((d - 1) / 2, (d - 1) / 2, todo.size)
        t = 1 - (1 - bt) * z
        # log of exp(kappa w) (1 - x0 w)^(d-1) over its value at w = x0 = (1 - b) / (1 + b)
        log_ratio = kappa[todo] * (2 * bt / (1 + bt) - 2 * bt * z / t) + (d - 1) * np.log(
            (1 + bt) / (2 * t)
        )
        ok = np.log1p(-rng.random(todo.size)) <= log_ratio
        w[todo[ok]] = 1 - 2 * bt[ok] * z[ok] / t[ok]
        sin[todo[ok]] = 2 * np.sqrt(bt[ok] * z[ok] * (1 - z[ok])) / t[ok]
        todo = todo[~ok]
    v = rng.standard_normal((n, d))
    v -= (v * mu).sum(axis=1, keepdims=True) * mu
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return w[:, None] * mu + sin[:, None] * v


def _tail_radii(radius: np.ndarray, nb: int, d: int, rng: np.random.Generator):
    """Radii (nb + 1, r) of r standard Brownian motions in R^d over nb unit
    steps, from `radius` (r,): the step's component along the current point
    is a normal N, its squared rest chi^2_{d-1}, so r_s = sqrt((r_{s-1} +
    N)^2 + chi^2_{d-1}).  The draws of all nb steps come from one call
    each; the steps chain in a Python loop of an add, a multiply, an add
    and a sqrt in place on each row, with no hypot, which costs about six
    times those three together an element (BENCH_radial_floor.json)."""
    rad = np.empty((nb + 1, radius.size))
    rad[0] = radius
    along = rng.standard_normal((nb, radius.size))
    across = rng.chisquare(d - 1, (nb, radius.size))
    for prev, r, a, c in zip(rad, rad[1:], along, across):
        np.add(prev, a, r)  # positional outs: the loop runs once a grid step
        np.multiply(r, r, r)
        np.add(r, c, r)
        np.sqrt(r, r)
    return rad


def _radial_passage(
    triplet: LevyTriplet,
    start: np.ndarray,
    target: TargetSet,
    cfg: PathConfig,
    n_paths: int,
    rng: np.random.Generator,
    cut,
    m: int,
):
    """A hit of an E-form target that steps the head coordinates c_1..c_m
    on the grid and the tail c_{m+1}..c_N as one squared radius.  Returns
    (times, locations) like a one-target engine run.

    The tail minus the centre's is sqrt(g) times a d-dimensional Brownian
    motion from 0 (d = N - m), so its squared norm rho is a squared Bessel
    process, whose root is stepped exactly in units of sqrt(g dt)
    (`_tail_radii`): r = sqrt(rho / (g dt)).  The weights do not increase,
    so the tail's share of the E-norm^2 lies between lambda_N rho and
    lambda_{m+1} rho, and a step whose bound keeps it out of the target is
    decided without the tail.  At a path's first step s that the bound
    cannot rule out, the tail is drawn: given the radii its direction is
    uniform (rotation invariance), so at s - 1 it is sqrt(rho_{s-1}) U, and
    at s it is sqrt(rho_s) times a von Mises-Fisher draw around U with
    kappa = sqrt(rho_{s-1} rho_s) / (g dt) = r_{s-1} r_s
    (`_von_mises_fisher`), the law of a Gaussian step given its end
    radius.  The real membership then decides.  A path that entered stops
    at s, located by `cut` from its points at s - 1 and s; one that did
    not leaves the radial mode at s with its realized point.  So do all
    live paths, their tails drawn uniform, once fewer than
    _RADIAL_MIN_PATHS remain.  The paths that left finish on the engine
    (`_step_paths`) in one call from their points, for as many steps as
    the longest of their remaining counts, with `cut`; an entry past a
    path's own count is a miss.  The head steps by `sample_increments`.
    """
    form = target.e_form
    z0 = _starts(start, n_paths)
    d = z0.shape[1] - m
    w_head, c_tail = form.weights[:m], form.center[m:]
    c_head = form.center[:m] if form.center[:m].any() else None
    # the bound on the tail's E-norm^2 nearest to entering, per r^2: the
    # largest for a complement, the least for a ball
    var = triplet.gaussian_diag[m] * cfg.dt
    w_near = (form.weights[-1] if form.inside else form.weights[m]) * var
    sd = math.sqrt(var)  # the tail's radius per unit of r
    head = triplet.marginal(np.arange(m))
    times = np.where(target(z0), 0.0, np.inf)
    locs = z0  # a private copy: the entry points overwrite it, a miss keeps its start
    ids = np.flatnonzero(np.isinf(times))
    y, radius = z0[ids, :m], np.zeros(ids.size)
    n_steps = int(np.ceil(cfg.horizon / cfg.dt))
    undecided = []  # per block: path ids, steps, head points at s - 1 and s, radii there
    done = 0
    while done < n_steps and ids.size >= _RADIAL_MIN_PATHS:
        r = ids.size
        nb = min(n_steps - done, max(1, _BLOCK // (r * (m + 2))))
        path = sample_increments(head, cfg.dt, nb * r, rng).reshape(nb, r, m)
        _prefix_sum(path)
        path += y
        rad = _tail_radii(radius, nb, d, rng)
        p = path if c_head is None else path - c_head  # z - 0.0 is z, bit for bit
        maybe = form.holds((p * p) @ w_head + w_near * rad[1:] ** 2)
        stop = maybe.any(axis=0)
        if stop.any():
            rows = np.flatnonzero(stop)
            s = maybe[:, rows].argmax(axis=0)
            head_in = np.where((s > 0)[:, None], path[s - 1, rows], y[rows])
            undecided.append(
                (ids[rows], done + 1 + s, head_in, path[s, rows], rad[s, rows], rad[s + 1, rows])
            )
        ids, y, radius = ids[~stop], path[-1, ~stop], rad[nb, ~stop]
        done += nb
        del path, p  # free this block before the next one is drawn
    # the paths that finish on the engine: ids, points, steps done
    left = [(np.empty(0, dtype=int), np.empty((0, m + d)), np.empty(0, dtype=int))]
    if done < n_steps and ids.size:  # too few live paths for the radius chain
        tail = c_tail + (sd * radius)[:, None] * _uniform_directions(ids.size, d, rng)
        left.append((ids, np.hstack([y, tail]), np.full(ids.size, done)))
    undecided = [np.concatenate(x) for x in zip(*undecided)] or [np.empty(0)]
    # chunks of rows whose eight or so temporaries of N floats stay within a block
    chunk = max(1, _BLOCK // (8 * z0.shape[1]))
    for lo in range(0, undecided[0].size, chunk):
        ids, steps, head_in, head_out, r_in, r_out = (x[lo : lo + chunk] for x in undecided)
        u = _uniform_directions(ids.size, d, rng)
        v = _von_mises_fisher(u, r_in * r_out, rng)
        z_in = np.hstack([head_in, c_tail + (sd * r_in)[:, None] * u])
        z_out = np.hstack([head_out, c_tail + (sd * r_out)[:, None] * v])
        entered = target(z_out)
        times[ids[entered]] = steps[entered] * cfg.dt
        left.append((ids[~entered], z_out[~entered], steps[~entered]))
        locs[ids[entered]] = cut(z_in[entered], z_out[entered])
        del u, v, z_in, z_out  # free this chunk before the next one is drawn
    ids, z, steps = (np.concatenate(x) for x in zip(*left))
    if ids.size:
        t, loc = _step_paths(
            triplet, z, lambda z: target(z)[None], None, cfg, ids.size, rng,
            cuts=[cut], n_steps=n_steps - int(steps.min()),
        )
        j = np.rint(t[0] / cfg.dt)  # the grid steps each path took on the engine
        hit = steps + j <= n_steps
        times[ids[hit]] = (steps[hit] + j[hit]) * cfg.dt
        locs[ids[hit]] = loc[0, hit]
    return times, locs


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
    first of these modes that applies; without locate, face passage and
    the engine draw no entry point and give None for them:
    0. a target that reads no coordinate (coords == ()) is decided by one
       membership call at time 0, for good, and draws nothing;
    1. exact passage (`_face_passage`), with cfg.bridge, a target that
       reads only its face coordinates, and a continuous or finite-activity
       jump law that moves each of them without drift (b_j = 0, g_j > 0);
       the coordinate a continuous exit leaves by is its face value;
    2. the radial mode (`_radial_passage`), for a declared E-form whose
       tail can be stepped as one radius (`_radial_head`): the engine's law
       on its grid, a continuous hit cut onto the boundary (`_boundary_cut`);
    3. the engine, which monitors the target at its grid points, cut alike."""
    if target.coords == ():
        z0 = _starts(start, n_paths)
        return np.where(target(z0), 0.0, np.inf), z0
    cols = sorted({j for j, _, _ in target.faces})
    if (
        cfg.bridge
        and target.coords is not None
        and sorted(set(target.coords)) == cols
        and not triplet.drift[cols].any()
        and (triplet.gaussian_diag[cols] > 0).all()
    ):
        return _face_passage(triplet, start, target, cfg, n_paths, rng, locate)
    cut = _boundary_cut(triplet, target)
    if m := _radial_head(triplet, target, start):
        return _radial_passage(triplet, start, target, cfg, n_paths, rng, cut, m)
    times, locs = _step_paths(
        triplet, start, lambda z: target(z)[None], target.coords, cfg, n_paths, rng,
        cuts=[cut], locate=locate,
    )
    return times[0], locs[0] if locate else None


def _boundary_cut(triplet: LevyTriplet, target: TargetSet):
    """The cut of a continuous hit onto the target's declared boundary:
    `cut(z_in, z_out)` is the point where the entering step's segment
    z_in + theta*(z_out - z_in), z_in outside the target, meets the sphere
    of its E-form, else the first face it crosses, with that face's
    coordinate set to the face value, as face passage lands, so the point
    lies in the closed target.  None for a target that declares neither,
    and under a jump law, whose landing points are kept."""
    form = target.e_form
    if not triplet.is_continuous or (form is None and not target.faces):
        return None

    def cut(z_in, z_out):
        d = z_out - z_in
        if form is not None:
            # a theta^2 + 2b theta + q = 0 with a > 0: the root in (0, 1], in
            # a form that does not cancel; leaving the ball q < 0 and it is
            # the larger root, entering it q > 0 > b and it is the smaller
            w, p = form.weights, z_in - form.center
            a, b = (d * d) @ w, (p * d) @ w
            q = (p * p) @ w - form.r2
            root = np.sqrt(b * b - a * q)
            theta = q / (root - b) if form.inside else -q / (b + root)
            return z_in + theta[..., None] * d
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
    exactly with no time grid (`_face_passage`): the coordinate that leaves
    first lands on its face, and the other face coordinates are drawn at
    the hit time conditioned on having stayed in the box the faces leave.
    Other E-form and face hits are cut onto the boundary from the entering
    step (`_boundary_cut`), other targets' kept at the grid point.  An
    E-form hit of a Brownian law whose far coordinates start at the
    centre's steps those as one squared radius and draws them only at the
    entry step (`_radial_passage`), with the same law.  Jump
    paths hit exactly too, between jumps on a face and at a jump on the
    landing point, which may lie beyond the face; drifted ones are
    stepped.  No landing point of a jump law is cut."""
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
    z0 = _starts(start, n_paths)
    first = [next(i for i, u in enumerate(targets) if u is t) for t in targets]
    pending = [i for i, t in enumerate(targets) if first[i] == i and not t(z0).all()]
    if len(pending) > 1:
        return _step_paths(
            triplet, start, lambda z: np.array([t(z) for t in targets]), _support(targets),
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
    (`_step_paths`) and sees each block's full points and entries; it draws
    nothing, so the times are the same with or without it.
    """
    from .lyapunov import q_x_eval

    levels = np.asarray(levels, dtype=float)
    times, _ = _step_paths(
        triplet, start, lambda z: q_x_eval(norm, z) > levels[:, None], None, cfg,
        n_paths, rng, observe=observe, locate=False,
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

    One scalar per (level, profile, path) is kept, its log, from the stop
    point: the block's entries, which the engine hands `observe`, give each
    entering path's step, and a miss stops at the last grid time.  log cosh
    a = a + log(1 + e^(-2a)) - log 2 keeps it finite at any level."""
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
    log0 = log_h(np.asarray(start, dtype=float)[None, :width])
    # log(e^(-beta S) h(X_S) / h(z_0)) per profile, flat over (level, path);
    # 0 where S = 0
    log_ratio = np.zeros((len(spans), levels.size * n_paths))
    t_end = int(np.ceil(cfg.horizon / cfg.dt)) * cfg.dt
    # (flat indices, S, stop points) of blocks not yet evaluated, settled at
    # a quarter of an engine block: few log_h calls, and a peak memory close
    # to the crossing times' own
    held, n_held = [], 0

    def settle():
        f, stop, pts = (np.concatenate(part) for part in zip(*held))
        log_ratio[:, f] = log_h(pts) - beta * stop - log0
        held.clear()

    def observe(t, idx, z, times, entries):
        nonlocal n_held
        entered, first = entries
        f = np.flatnonzero(entered)  # level * live + row
        steps = first.ravel()[f]
        if t[-1] == t_end:  # a miss stops at the last grid time
            missed = np.flatnonzero(np.isinf(times[:, idx]))
            f = np.concatenate((f, missed))
            steps = np.concatenate((steps, np.full(missed.size, t.size - 1)))
        if not f.size:
            return
        level, rows = np.divmod(f, idx.size)
        held.append((level * n_paths + idx[rows], t[steps], z[steps, rows, :width]))
        n_held += f.size * width
        if n_held >= _BLOCK // 4:
            settle()
            n_held = 0

    times = level_crossing_times(norm, triplet, start, levels, cfg, n_paths, rng, observe)
    if held:
        settle()
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

    times, locs = _step_paths(
        triplet, start, lambda z: M(z)[None], _support([M, *F_targets]), cfg, n_paths, rng,
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
    mean = 0.0
    var = 0.0
    for zi, mi in zip(lam.points, lam.masses):
        time, _ = _hit(triplet, zi, M, cfg, n, rng, locate=False)
        vals = np.exp(-beta * time) / beta  # exp(-inf) = 0 for a miss
        est = McEstimate.from_samples(vals)
        mean += mi * est.mean
        var += (mi * est.stderr) ** 2
    return McEstimate(mean, float(np.sqrt(var)), n * len(lam.points))


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
    means = np.zeros(len(levels))
    var = np.zeros(len(levels))
    for zi, mi in zip(lam.points, lam.masses):
        times, control = _level_control(norm, triplet, zi, levels, beta, cfg, n, rng)
        disc = np.where(np.isfinite(times), np.exp(-beta * times), 0.0) / beta
        resid = _cross_fitted(disc, control)
        for li in range(len(levels)):
            est = McEstimate.from_samples(resid[li])
            means[li] += mi * est.mean
            var[li] += (mi * est.stderr) ** 2
    n_all = n * len(lam.points)
    return [
        {"level": lv, "estimate": McEstimate(float(m), float(np.sqrt(v)), n_all)}
        for lv, m, v in zip(levels, means, var)
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
    the sampled hitting locations lie in M's closure, where a continuous hit
    is cut onto its boundary (an E-form's sphere up to rounding).
    """
    if beta <= 0:
        raise PreconditionError("beta must be positive")
    targets = [spec["target"] for spec in F_specs]
    mean, var = np.zeros(len(targets)), np.zeros(len(targets))
    per_sample_ineq = True
    any_hit = False
    carrier_ok = True
    for zi, mi in zip(nu.points, nu.masses):
        T, D, loc = discounted_occupancy(triplet, zi, M, targets, beta, cfg, n, rng)
        hits = np.isfinite(T)
        if hits.any():
            any_hit = True
            pts, form = loc[hits], M.e_form
            q = None if form is None else ((pts - form.center) ** 2) @ form.weights
            on_sphere = form is not None and np.isclose(q, form.r2, rtol=1e-9, atol=0)
            carrier_ok &= bool(np.all(M(pts) | on_sphere))
        per_sample_ineq &= bool(np.all(D >= 0))
        mean += mi * D.mean(axis=1)
        var += (mi * D.std(axis=1, ddof=1) / np.sqrt(n)) ** 2
    rows = []
    for F, spec, m, v in zip(targets, F_specs, mean, var):
        diff_est = McEstimate(float(m), float(np.sqrt(v)), n * len(nu.points))
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

    Each probe shares one batch of resolvent increments across every cloud
    point of both measures (common random numbers)."""
    if beta <= 0:
        raise PreconditionError("beta must be positive")

    def probe_row(B: TargetSet):
        t = rng.exponential(1.0 / beta, size=n)
        incr = sample_increments(triplet, t, n, rng)
        def side(c):  # each point's share added onto zeros in cloud order
            return sum((m * B(p + incr) / beta for p, m in zip(c.points, c.masses)), np.zeros(n))

        mu_samples, nu_samples = side(mu), side(nu)
        diff = McEstimate.from_samples(nu_samples - mu_samples)
        return {
            "probe": B.name,
            "mu_value": float(mu_samples.mean()),
            "nu_value": float(nu_samples.mean()),
            "difference": diff,
            "verdict": diff.verdict_at_least(0.0),
        }

    hyp_rows = [probe_row(B) for B in probes_in_G]
    hypothesis_ok = all(r["verdict"] != "fail" for r in hyp_rows)
    out = {"hypothesis_rows": hyp_rows, "hypothesis_ok": hypothesis_ok}
    if not hypothesis_ok:
        out["conclusion_rows"] = []
        out["conclusion_ok"] = None  # hypothesis not satisfied on G: conclusion skipped
        return out
    conc_rows = [probe_row(B) for B in probes_out_G]
    out["conclusion_rows"] = conc_rows
    out["conclusion_ok"] = all(r["verdict"] != "fail" for r in conc_rows)
    return out


def polarity_diagnostic(
    triplet: LevyTriplet,
    targets,
    starts,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
) -> dict:
    """Hit probabilities of a nested family of targets, largest first, from
    each start (E-balls around a point, H-balls, ...).

    A diagnostic, not a proof: verdict "consistent with polarity" when, at
    every start, no probability rises above the one before it by more than
    3 BAND_Z hypot(se), and the last is at most half the first plus that band.
    A start inside the largest target would hit them all at time 0."""
    if targets[0](np.asarray(starts, dtype=float)).any():
        raise PreconditionError("a start lies inside the largest target")
    band = lambda a, b: 3 * BAND_Z * np.hypot(a.stderr, b.stderr)
    rows = []
    consistent = True
    for start in starts:
        ests = []
        for target in targets:
            times, _ = _hit(triplet, start, target, cfg, n, rng, locate=False)
            ests.append(McEstimate.from_samples(np.isfinite(times).astype(float)))
            rows.append({"start": np.asarray(start), "target": target.name, "estimate": ests[-1]})
        monotone = all(b.mean <= a.mean + band(a, b) for a, b in zip(ests, ests[1:]))
        shrinking = ests[-1].mean <= 0.5 * ests[0].mean + band(ests[0], ests[-1])
        consistent &= monotone and shrinking
    return {
        "rows": rows,
        "verdict": "consistent with polarity" if consistent else "not consistent",
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
