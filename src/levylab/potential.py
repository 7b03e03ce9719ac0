"""Path simulation, hitting times, reduced functions, capacity and balayage.

Every path estimator runs on one stepping engine.  Paths are stepped on a
fixed time grid; each increment is drawn exactly from the increment law at
the step size, so there is no Euler error, only the discrete monitoring of
the target.  For continuous triplets and coordinate-aligned target faces a
Brownian-bridge crossing draw catches the face crossings between grid
points; such a hit counts at the end of its step.  Every triplet steps only
the coordinates its targets read (`TargetSet.coords`) and the support of
its jump measure; the others carry no jumps, so they are a diagonal
Brownian motion with drift, independent of every stopping time, and are
drawn exactly at each stopping time.  Each engine iteration advances the
live paths by a block of grid steps, sized so that steps x paths x stepped
coordinates stay within `_BLOCK` = 32768 elements (or one step, when that
is larger); a path stops inside its block at its entry step, which is
exact because the draws after that step are independent of everything
kept.  A block is summed along its step axis by contiguous adds of each
step onto the next when one step holds at least 512 elements, else by
`np.cumsum`; both give the same bytes (`_prefix_sum`).  The budget is
capped by the peak memory of a full-width exit: with 1000 paths x 32
coordinates, a block larger than one step (32000 elements) raises the peak
that `test_full_width_exit_memory` bounds at 5.25 steps (40960 measured
5.72).

A single-target hit whose faces all lie on the one coordinate the target
reads, for a continuous triplet that moves that coordinate as a drift-free
Brownian motion, skips the grid altogether: its first passage is sampled
exactly (`_face_passage`), so it carries no monitoring error and its hit
times are off the grid.  Boxes keep the engine, since their other box
coordinates would have to be drawn conditioned on staying inside, and so
do drifted coordinates.

A single-target hit of an E-ball or its complement (a target with a
declared `EForm`) steps only the head of the E-norm on the grid, the
coordinates whose weight is at least _HEAD_FRACTION of the first, when the
law is continuous, the tail has at least two coordinates moved without
drift at one variance rate, and every start's tail is the centre's.  The
tail then enters the E-norm only through its squared radius, a squared
Bessel process stepped exactly; the tail vector is drawn only at the step
where the weight bounds on it cannot rule out entry (`_radial_passage`).
Its hits stay on the grid and have the engine's law.

Hitting uses the D-convention: membership is checked at time 0, so a start
inside an open target hits immediately.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .measures import DEFAULT_CONFIDENCE, LevyTriplet, McEstimate, sample_increments
from .measures import PreconditionError, z_value
from .space import SpaceModel


@dataclass(frozen=True)
class PathConfig:
    dt: float = 0.01
    horizon: float = 50.0
    # exact monitoring of coordinate faces: the bridge crossing draw in the
    # engine, or exact first passage (see the module docstring); False
    # monitors on the grid only
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

    A face (j, v, side) certifies that the target contains the halfspace
    side*(c_j - v) >= 0 locally, enabling the bridge crossing draw on
    coordinate j.  When every face lies on one coordinate j and the target
    reads c_j alone (coords == (j,)), the faces describe the whole target:
    it is the union of their halfspaces, and its first passage is sampled
    exactly (`_face_passage`).  `coords` lists the 0-based coordinates the
    membership reads; None means all of them.  The engine steps these, and
    for a jump triplet the jump support too; a membership with declared
    coords may be handed only the columns up to the largest stepped
    coordinate, with zeros in the unstepped ones.  `e_form` declares a
    membership that is an E-ball or its complement, which lets a hit step
    the E-norm's tail as one radius (`_radial_passage`).
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


@dataclass(frozen=True)
class HitRecord:
    hit: bool
    time: float  # inf when the horizon was reached without a hit
    location: np.ndarray


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


def _from_center(center):
    """z - center, as a function of z; z itself for a center at the origin,
    which saves a pass over every stepped point (z - 0.0 is z, bit for bit)."""
    c = np.asarray(center, dtype=float)
    return (lambda z: z - c) if c.any() else (lambda z: z)


def _e_target(name, model: SpaceModel, center, radius, inside, closed) -> TargetSet:
    offset = _from_center(center)
    form = EForm(model.weights, np.asarray(center, dtype=float), radius * radius, inside, closed)
    return TargetSet(name, lambda z: form.holds(model.e_norm2(offset(z))), e_form=form)


def e_ball(model: SpaceModel, center: np.ndarray, radius: float) -> TargetSet:
    return _e_target(f"e_ball(r={radius})", model, center, radius, True, True)


def e_ball_complement(
    model: SpaceModel, center: np.ndarray, radius: float, closed: bool = False
) -> TargetSet:
    """||z - center||_E > radius, or >= radius when closed (the exit set of
    the open ball)."""
    name = f"e_ball_complement(r={radius}{', closed' if closed else ''})"
    return _e_target(name, model, center, radius, False, closed)


def coord_halfspace(model: SpaceModel, coord: int, level: float, side: int) -> TargetSet:
    """{z : side*(c_coord - level) >= 0}; coord is 1-based."""
    j = coord - 1
    return TargetSet(
        f"halfspace(c{coord}{'>=' if side > 0 else '<='}{level})",
        lambda z: side * (z[..., j] - level) >= 0,
        faces=((j, level, side),),
        coords=(j,),
    )


def slab_complement(model: SpaceModel, coord: int, a: float, b: float) -> TargetSet:
    """Complement of the open slab a < c_coord < b."""
    j = coord - 1
    return TargetSet(
        f"slab_complement(c{coord} outside ({a},{b}))",
        lambda z: (z[..., j] <= a) | (z[..., j] >= b),
        faces=((j, a, -1), (j, b, +1)),
        coords=(j,),
    )


def coordinate_box(model: SpaceModel, lows: np.ndarray, highs: np.ndarray) -> TargetSet:
    lo = np.asarray(lows, dtype=float)
    hi = np.asarray(highs, dtype=float)
    k = lo.size
    return TargetSet(
        "coordinate_box",
        lambda z: np.all((z[..., :k] >= lo) & (z[..., :k] <= hi), axis=-1),
        coords=tuple(range(k)),
    )


def box_complement(model: SpaceModel, lows: np.ndarray, highs: np.ndarray) -> TargetSet:
    """Complement of the open box lows < c < highs in the first k coordinates."""
    lo = np.asarray(lows, dtype=float)
    hi = np.asarray(highs, dtype=float)
    k = lo.size
    return TargetSet(
        "box_complement",
        lambda z: np.any((z[..., :k] <= lo) | (z[..., :k] >= hi), axis=-1),
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


def _restrict(triplet: LevyTriplet, cols: np.ndarray) -> LevyTriplet:
    """The triplet's law on the coordinates `cols` alone.  `cols` holds
    either the whole jump support, and the jumps come along restricted to
    it, or none of it, and the law there is a diagonal Brownian motion with
    drift."""
    jumps = triplet.jumps
    if jumps is not None:
        moved = np.isin(jumps.support(triplet.model.dim), cols).any()
        jumps = replace(jumps, atoms=jumps.atoms[:, cols]) if moved else None
    return LevyTriplet(
        SpaceModel(triplet.model.weights[cols]),
        triplet.drift[cols],
        triplet.gaussian_diag[cols],
        jumps,
    )


# Elements (grid steps x live paths x stepped coordinates) one engine
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
    refine=None,
    faces=(),
    observe=None,
    to_horizon: bool = False,
    locate: bool = True,
    n_steps: int | None = None,
):
    """The stepping engine behind every path estimator.

    `member(z)` maps points (rows, N') to a (targets, rows) membership matrix
    that reads only the coordinates `coords` (None: all); N' is N, or the
    largest stepped coordinate + 1 when some are not stepped.  A path steps
    until it has entered every target, or to the horizon with
    to_horizon.  With one target, `refine(z_in, z_out)` moves an entering
    grid step's end point and `faces` (j, v, side) get the bridge crossing
    draw wherever its probability is at least 2^-53, which snaps c_j of a
    crossing step's end point onto v;
    `observe(t, idx, z, times)` sees the block grid times t (B,) and points
    z (B, len(idx), N') of the stepped paths idx.  Paths take `n_steps`
    grid steps, by default ceil(horizon / dt).  Returns entry times (inf
    when missed) and entry points (the start when missed; none without
    locate).

    Each iteration advances the live paths by a block of B grid steps, the
    largest B (at least 1) with B * paths * stepped coordinates <= _BLOCK, so
    blocks grow as the live set shrinks.  One draw of B * paths increments,
    summed along the step axis (`_prefix_sum`) and added to the positions,
    gives the block's grid points; a path stops at the step where it
    entered its last target.  Stopping inside a block is exact: that step's
    decision reads only the increments up to it, the discarded draws after
    it are independent of everything kept, and the bridge events of the
    steps are independent given the grid points.  The bridge pass gathers
    only the (step, row) pairs before each row's first grid entry, in
    step-major order, so the steps a row discards cost it nothing there.

    The live paths are held compacted, in their original order: their ids,
    stepped positions and still-awaited targets are dense arrays, shrunk
    only on an iteration where some path stopped; paths that start inside
    every target are never live.  The draws are unchanged by this: each
    iteration draws B * paths increments for the same live paths in the
    same order as a scan of all paths would.  The positions stay in the
    buffer allocated before the loop and shrink within it, so an iteration
    allocates only its block and the membership's temporaries.

    The stepped coordinates are `coords` plus the jump measure's support
    (`JumpMeasure.support`); membership sees zeros in the other columns up
    to the largest stepped one.  The rest carry no jumps and a diagonal
    Gaussian part, so they are independent of every stopping time and are
    drawn at the entry times (`_draw_rest`).
    """
    z0 = _starts(start, n_paths)
    dim = z0.shape[1]
    if coords is None:
        coords = range(dim)
    elif triplet.jumps is not None:  # a jump moves its whole support at once
        coords = {*coords, *triplet.jumps.support(dim).tolist()}
    cols = np.array(sorted(set(coords)), dtype=int)
    k = cols.size
    full = k == dim
    law = triplet if full else _restrict(triplet, cols) if k else None
    width = cols[-1] + 1 if k else 0
    dense = np.array_equal(cols, np.arange(width))

    def widen(y):
        if dense:
            return y
        z = np.zeros(y.shape[:-1] + (width,))
        z[..., cols] = y
        return z

    if faces:
        fj, fv, fside = (np.array(x) for x in zip(*faces))
        fj = np.searchsorted(cols, fj)
        fg = law.gaussian_diag[fj]
        fk = np.divide(2.0, fg * cfg.dt, out=np.zeros_like(fg), where=fg > 0)
    times = np.where(member(z0), 0.0, np.inf)
    n_t = times.shape[0]
    locs = np.repeat(z0[None], n_t if locate else 0, axis=0)
    # the live set, kept in path order: path ids, stepped positions and the
    # targets each path still awaits; it shrinks only when a path stops, and
    # the positions shrink within the buffer allocated here
    ids = np.arange(n_paths) if to_horizon else np.flatnonzero(np.isinf(times).any(axis=0))
    pending = np.isinf(times[:, ids])
    y = z0[np.ix_(ids, cols)]
    if n_steps is None:
        n_steps = int(np.ceil(cfg.horizon / cfg.dt))
    done = 0
    while done < n_steps and ids.size:
        r = ids.size
        nb = min(n_steps - done, max(1, _BLOCK // (r * max(k, 1))))
        if law is None:
            path = np.empty((nb, r, 0))
        else:
            path = sample_increments(law, cfg.dt, nb * r, rng).reshape(nb, r, k)
            _prefix_sum(path)
        path += y
        z = widen(path)
        inside = member(z.reshape(nb * r, width)).reshape(n_t, nb, r) & pending[:, None]
        if nb == 1:  # many live paths: no block axis to search
            entered, first = inside[:, 0].copy(), np.zeros((n_t, r), dtype=int)
        else:
            entered, first = inside.any(axis=1), inside.argmax(axis=1)
        if faces:
            # crossings inside the steps before a row's first grid entry: only
            # those (step, row) pairs are gathered, in step-major order, so
            # the pairs of step 0, which start at y, come first
            before = (np.arange(nb)[:, None] < np.where(entered[0], first[0], nb)) & pending[0]
            d0 = fside * (fv - np.concatenate([y[before[0]], path[:-1][before[1:]]])[:, fj])
            d1 = fside * (fv - path[before][:, fj])
            a = d0 * d1 * fk  # the crossing probability is exp(-a)
            # a 53-bit uniform cannot resolve exp(-a) < 2^-53
            cand = np.flatnonzero((d0 > 0) & (d1 > 0) & (fg > 0) & (a < 53 * np.log(2.0)))
            crossed = cand[rng.random(cand.size) < np.exp(-a.ravel()[cand])]
            if crossed.size:
                # crossed lists (step, row, face) in order: keep each row's first
                s, rows = np.nonzero(before)
                pair, fi = np.divmod(crossed, fj.size)
                keep = np.unique(rows[pair], return_index=True)[1]
                s, rows, fi = s[pair[keep]], rows[pair[keep]], fi[keep]
                path[s, rows, fj[fi]] = fv[fi]
                entered[0, rows] = True
                first[0, rows] = s
        t = (done + 1 + np.arange(nb)) * cfg.dt
        entering = entered.any()
        if entering:
            if refine is not None:
                # rows that entered at a grid point, not by a bridge crossing
                rows = np.flatnonzero(entered[0])
                s = first[0, rows]
                grid = inside[0, s, rows]
                rows, s = rows[grid], s[grid]
                if rows.size:
                    z_in = np.where((s > 0)[:, None], path[s - 1, rows], y[rows])
                    path[s, rows] = refine(widen(z_in), widen(path[s, rows]))[:, cols]
            for ti in np.flatnonzero(entered.any(axis=1)):
                rows = np.flatnonzero(entered[ti])
                s = first[ti, rows]
                times[ti, ids[rows]] = t[s]
                if locate:
                    locs[ti, ids[rows, None], cols] = path[s, rows]
            pending &= ~entered
            going = pending.any(axis=0) | to_horizon
        if observe is not None:
            observe(t, ids, z, times)
        if not entering or going.all():
            y[...] = path[nb - 1]
        else:  # the stopped paths leave the live set; the rest move on
            ids, pending = ids[going], pending[:, going]
            y = np.compress(going, path[nb - 1], axis=0, out=y[: ids.size])
        done += nb
        del path, z  # free this block before the next one is drawn
    if locate and not full:
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
    """Draw the coordinates outside `cols` into the entry points `locs`
    (targets, paths, N) at the finite entry `times` (targets, paths).

    Those coordinates carry no jumps and a diagonal Gaussian part, so they
    are independent of every stopping time.  Each path advances them in
    place in its start row of `z0`, one entry time after the other in time
    order, drawn in chunks of consecutive paths of about _BLOCK elements
    (the same draws as one call); a path that entered at time 0 draws
    no increment for it, and a missed target keeps the start."""
    rest = np.delete(np.arange(z0.shape[1]), cols)  # setdiff1d would import numpy.ma, about 1 MB
    if not rest.size:
        return
    rest_law = _restrict(triplet, rest)
    chunk = max(1, _BLOCK // rest.size)
    paths = np.arange(z0.shape[0])
    t_prev = np.zeros(paths.size)
    for kth in np.argsort(times, axis=0, kind="stable"):
        tk = times[kth, paths]
        seen = np.flatnonzero(np.isfinite(tk))
        moving = seen[tk[seen] > t_prev[seen]]
        for lo in range(0, moving.size, chunk):
            rows = moving[lo : lo + chunk]
            dt = tk[rows] - t_prev[rows]
            z0[np.ix_(rows, rest)] += sample_increments(rest_law, dt, rows.size, rng)
        t_prev[moving] = tk[moving]
        for lo in range(0, seen.size, chunk):
            rows = seen[lo : lo + chunk]
            locs[kth[rows, None], rows[:, None], rest] = z0[np.ix_(rows, rest)]


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


def _face_passage(
    triplet: LevyTriplet,
    start: np.ndarray,
    target: TargetSet,
    cfg: PathConfig,
    n_paths: int,
    rng: np.random.Generator,
):
    """Exact first passage into a target that is the union of the face
    halfspaces on one coordinate j, moved by a drift-free Brownian motion of
    variance rate g = gaussian_diag[j] > 0.  Returns (times, locations) like
    a one-target engine run: time inf and the start for a miss.

    A start inside the target hits at time 0 and draws nothing.  From a
    start at distance d of a lone face, T = d^2 / (g Z^2), the Levy law.
    Between two faces a < c_j < b, the walk on intervals (Muller's walk on
    spheres in 1-d): from x, with r the distance to the nearer face, the
    path leaves (x - r, x + r) after r^2 / g * J* (`_unit_exit_times`), at
    x - r or x + r with probability 1/2 each, independently of that time;
    a move onto the nearer face lands exactly on it and stops the path,
    which also stops once its time passes the horizon.  A path hits when
    T <= cfg.horizon; its c_j is then the face value and the other
    coordinates are drawn at T (`_draw_rest`).  The live paths draw in
    path order, so the rows that start inside change no other row's draws.
    """
    z0 = _starts(start, n_paths)
    j = target.faces[0][0]
    g = triplet.gaussian_diag[j]
    lo = max((v for _, v, side in target.faces if side < 0), default=-np.inf)
    hi = min((v for _, v, side in target.faces if side > 0), default=np.inf)
    times = np.where(target(z0), 0.0, np.inf)
    live = np.flatnonzero(np.isinf(times))
    x = z0[live, j]
    if np.isinf(lo) or np.isinf(hi):  # one face: the Levy law
        face = np.full(live.size, lo if np.isfinite(lo) else hi)
        with np.errstate(divide="ignore"):  # Z = 0 never hits
            t = (x - face) ** 2 / (g * rng.standard_normal(live.size) ** 2)
    else:  # two faces: the walk on intervals, until every path stops
        t = np.zeros(live.size)
        walking = np.arange(live.size)
        while walking.size:
            xw = x[walking]
            near = np.where(xw - lo <= hi - xw, lo, hi)
            t[walking] += (xw - near) ** 2 / g * _unit_exit_times(walking.size, rng)
            keep = t[walking] <= cfg.horizon
            walking, xw, near = walking[keep], xw[keep], near[keep]
            onto = rng.random(walking.size) < 0.5
            x[walking] = np.where(onto, near, 2 * xw - near)  # or r beyond x, away from it
            # a move away from the nearer face can round onto the other one
            walking = walking[~onto & (lo < x[walking]) & (x[walking] < hi)]
        face = np.clip(x, lo, hi)
    hit = t <= cfg.horizon
    times[live[hit]] = t[hit]
    locs = z0[None].copy()
    locs[0, live[hit], j] = face[hit]
    _draw_rest(triplet, [j], z0, times[None], locs, rng)
    return times, locs[0]


# Coordinates whose E-weight is at least this fraction of the first are the
# radial mode's head: with weights 4^-n, 7 of them.  Smaller heads ran faster
# in the head sweep (BENCH_radial_tail.json); 7 is the least that leaves an
# 8-coordinate model one tail coordinate, too few, so its E-balls keep the engine.
_HEAD_FRACTION = 4.0**-6

# Below this many live paths the radius chain's Python loop over the steps
# costs more than the tail's normals (BENCH_radial_tail.json).
_RADIAL_MIN_PATHS = 4


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


def _tail_radii(radius: np.ndarray, nb: int, var: float, d: int, rng: np.random.Generator):
    """Radii sqrt(rho) (nb + 1, r) of r Brownian motions in R^d of variance
    `var` a step, from `radius` (r,) over nb steps: the step's component
    along the current point is a normal, its squared rest chi^2_{d-1}, so
    rho_s = (sqrt(rho_{s-1}) + sqrt(var) N)^2 + var chi^2_{d-1}.  The
    draws of all nb steps come from one call each; the steps chain in a
    Python loop of one add and one hypot."""
    rad = np.empty((nb + 1, radius.size))
    rad[0] = radius
    along = np.sqrt(var) * rng.standard_normal((nb, radius.size))
    across = np.sqrt(var * rng.chisquare(d - 1, (nb, radius.size)))
    for s in range(nb):
        np.hypot(rad[s] + along[s], across[s], out=rad[s + 1])
    return rad


def _radial_passage(
    triplet: LevyTriplet,
    start: np.ndarray,
    target: TargetSet,
    cfg: PathConfig,
    n_paths: int,
    rng: np.random.Generator,
    refine,
    m: int,
):
    """A hit of an E-form target that steps the head coordinates c_1..c_m
    on the grid and the tail c_{m+1}..c_N as one squared radius.  Returns
    (times, locations) like a one-target engine run.

    The tail minus the centre's is sqrt(g) times a d-dimensional Brownian
    motion from 0 (d = N - m), so its squared norm rho is a squared Bessel
    process, stepped exactly (`_tail_radii`).  The weights do not
    increase, so the tail's share of the E-norm^2 lies between lambda_N rho
    and lambda_{m+1} rho, and a step whose bound keeps it out of the target
    is decided without the tail.  At a path's first step s that the bound
    cannot rule out, the tail is drawn: given the radii its direction is
    uniform (rotation invariance), so at s - 1 it is sqrt(rho_{s-1}) U, and
    at s it is sqrt(rho_s) times a von Mises-Fisher draw around U with
    kappa = sqrt(rho_{s-1} rho_s) / (g dt) (`_von_mises_fisher`), the law
    of a Gaussian step given its end radius.  The real membership then
    decides.  A path that entered stops at s, with `refine` applied to its
    points at s - 1 and s; one that did not leaves the radial mode at s
    with its realized point.  So do all live paths, their tails drawn
    uniform, once fewer than _RADIAL_MIN_PATHS remain.  The paths that left
    finish on the engine (`_step_paths`) in one call from their points,
    for as many steps as the longest of their remaining counts; an entry
    past a path's own count is a miss.  The head's increments come from
    `sample_increments`.
    """
    form = target.e_form
    z0 = _starts(start, n_paths)
    d = z0.shape[1] - m
    w_head, c_tail = form.weights[:m], form.center[m:]
    offset = _from_center(form.center[:m])
    # the bound on the tail's E-norm^2 nearest to entering: the largest for
    # a complement, the least for a ball
    w_near = form.weights[-1] if form.inside else form.weights[m]
    var = triplet.gaussian_diag[m] * cfg.dt
    head = _restrict(triplet, np.arange(m))
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
        rad = _tail_radii(radius, nb, var, d, rng)
        p = offset(path)
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
        tail = c_tail + radius[:, None] * _uniform_directions(ids.size, d, rng)
        left.append((ids, np.hstack([y, tail]), np.full(ids.size, done)))
    undecided = [np.concatenate(x) for x in zip(*undecided)] or [np.empty(0)]
    # chunks of rows whose eight or so temporaries of N floats stay within a block
    chunk = max(1, _BLOCK // (8 * z0.shape[1]))
    for lo in range(0, undecided[0].size, chunk):
        ids, steps, head_in, head_out, r_in, r_out = (x[lo : lo + chunk] for x in undecided)
        u = _uniform_directions(ids.size, d, rng)
        v = _von_mises_fisher(u, r_in * r_out / var, rng)
        z_in = np.hstack([head_in, c_tail + r_in[:, None] * u])
        z_out = np.hstack([head_out, c_tail + r_out[:, None] * v])
        entered = target(z_out)
        times[ids[entered]] = steps[entered] * cfg.dt
        left.append((ids[~entered], z_out[~entered], steps[~entered]))
        z_in, z_out = z_in[entered], z_out[entered]
        locs[ids[entered]] = z_out if refine is None else refine(z_in, z_out)
        del u, v, z_in, z_out  # free this chunk before the next one is drawn
    ids, z, steps = (np.concatenate(x) for x in zip(*left))
    if ids.size:
        t, loc = _step_paths(
            triplet, z, lambda z: target(z)[None], None, cfg, ids.size, rng,
            refine=refine, n_steps=n_steps - int(steps.min()),
        )
        j = np.rint(t[0] / cfg.dt)  # the grid steps each path took on the engine
        hit = steps + j <= n_steps
        times[ids[hit]] = (steps[hit] + j[hit]) * cfg.dt
        locs[ids[hit]] = loc[0, hit]
    return times, locs


def simulate_hit_batch(
    triplet: LevyTriplet,
    start: np.ndarray,
    target: TargetSet,
    cfg: PathConfig,
    n_paths: int,
    rng: np.random.Generator,
    refine: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
):
    """Step n_paths trajectories from `start` until they enter the target or
    the horizon runs out.  Returns (hit mask, times, locations); non-hit
    rows carry time=inf and the start as their location.  A 2-d start gives
    each path its own origin (one row per path).  `refine(z_in, z_out)`
    moves the entering step's end point; like the membership, it may read
    only the target's coords.

    With cfg.bridge, a continuous triplet and a target whose faces all lie
    on the one coordinate j it reads, moved without drift (b_j = 0, g_j >
    0), the first passage is sampled exactly (`_face_passage`) and no grid
    is stepped; c_j of a hit is then the face value, the point any exact
    `refine` would cut to, so `refine` is not called.  A target with a
    declared E-form whose tail can be stepped as one radius (`_radial_head`)
    takes the radial mode (`_radial_passage`): the same law on the same
    grid, and `refine` still gets full points.  Everything else steps the
    engine."""
    j = target.faces[0][0] if target.faces else None
    if (
        cfg.bridge
        and triplet.is_continuous
        and target.coords == (j,)
        and all(f[0] == j for f in target.faces)
        and triplet.drift[j] == 0
        and triplet.gaussian_diag[j] > 0
    ):
        times, loc = _face_passage(triplet, start, target, cfg, n_paths, rng)
    elif m := _radial_head(triplet, target, start):
        times, loc = _radial_passage(triplet, start, target, cfg, n_paths, rng, refine, m)
    else:
        use_bridge = cfg.bridge and triplet.is_continuous and bool(target.faces)
        times, locs = _step_paths(
            triplet, start, lambda z: target(z)[None], target.coords, cfg, n_paths, rng,
            refine=refine, faces=target.faces if use_bridge else (),
        )
        times, loc = times[0], locs[0]
    return np.isfinite(times), times, loc


def simulate_to_hit(
    triplet: LevyTriplet,
    start: np.ndarray,
    target: TargetSet,
    cfg: PathConfig,
    rng: np.random.Generator,
) -> HitRecord:
    hit, time, loc = simulate_hit_batch(triplet, start, target, cfg, 1, rng)
    return HitRecord(bool(hit[0]), float(time[0]), loc[0])


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
    path.  No bridge correction (membership on the grid only), so all
    targets are monitored identically."""
    times, locs = _step_paths(
        triplet, start, lambda z: np.array([t(z) for t in targets]), _support(targets),
        cfg, n_paths, rng,
    )
    return times, locs


def reduced_function_family(
    triplet: LevyTriplet,
    v,
    targets,
    beta: float,
    z: np.ndarray,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
    confidence: float = DEFAULT_CONFIDENCE,
):
    """Reduced-function estimates for several targets on common paths.

    Returns (list of McEstimate, per-path sample matrix (nT, n)); the
    sample matrix lets callers assert per-sample orderings for nested
    targets."""
    times, locs = multi_target_hit(triplet, z, targets, cfg, n, rng)
    nT = len(targets)
    samples = np.zeros((nT, n))
    for ti in range(nT):
        hit = np.isfinite(times[ti])
        if hit.any():
            samples[ti, hit] = np.exp(-beta * times[ti, hit]) * np.asarray(
                v(locs[ti, hit]), dtype=float
            )
    ests = [McEstimate.from_samples(samples[ti], confidence) for ti in range(nT)]
    return ests, samples


def level_crossing_times(
    norm,
    triplet: LevyTriplet,
    start: np.ndarray,
    levels,
    cfg: PathConfig,
    n_paths: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """First times at which q_x(X_t) exceeds each level, on shared paths.

    Returns an array (n_levels, n_paths) of times (inf when never).  Shared
    paths make the times nondecreasing across nested levels per path.
    """
    from .lyapunov import q_x_eval

    levels = np.asarray(levels, dtype=float)
    times, _ = _step_paths(
        triplet, start, lambda z: q_x_eval(norm, z) > levels[:, None], None, cfg,
        n_paths, rng, locate=False,
    )
    return times


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
    """Per-path grid approximations of the discounted occupancies

        A_F = int_0^inf e^{-beta t} 1_F(X_t) dt        (full path)
        B_F = int_{T_M}^inf e^{-beta t} 1_F(X_t) dt    (after hitting M)

    along one common trajectory per path (the strong-Markov route to the
    balayage comparison: B_F <= A_F per path, with equality when F lies in
    M).  Returns (T_M array, A matrix, B matrix, hit locations)."""
    A = np.zeros((len(F_targets), n_paths))
    B = np.zeros_like(A)

    def observe(t, idx, z, times):
        w = (np.exp(-beta * t) * cfg.dt)[:, None]
        after = t[:, None] >= times[0, idx]
        for fi, F in enumerate(F_targets):
            inF = F(z)
            A[fi, idx] += (w * inF).sum(axis=0)
            B[fi, idx] += (w * (inF & after)).sum(axis=0)

    times, locs = _step_paths(
        triplet, start, lambda z: M(z)[None], _support([M, *F_targets]), cfg, n_paths, rng,
        observe=observe, to_horizon=True,
    )
    return times[0], A, B, locs[0]


# -- potential-theoretic operations ----------------------------------------


def horizon_bias_bound(sup_v: float, beta: float, cfg: PathConfig) -> float:
    """Truncation error certificate ||v|| e^{-beta*horizon}."""
    return sup_v * float(np.exp(-beta * cfg.horizon))


def reduced_function(
    triplet: LevyTriplet,
    v,
    M: TargetSet,
    beta: float,
    z: np.ndarray,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
    transient: bool = False,
    confidence: float = DEFAULT_CONFIDENCE,
) -> McEstimate:
    """Hitting-kernel estimate E[e^{-beta T} v(X_T); T < horizon]."""
    if beta <= 0 and not transient:
        raise PreconditionError(
            "beta = 0 requires a transience certificate (transient=True)"
        )
    hit, time, loc = simulate_hit_batch(triplet, z, M, cfg, n, rng)
    vals = np.zeros(n)
    if hit.any():
        vals[hit] = np.exp(-beta * time[hit]) * np.asarray(v(loc[hit]), dtype=float)
    return McEstimate.from_samples(vals, confidence)


def capacity(
    triplet: LevyTriplet,
    lam: PointCloud,
    M: TargetSet,
    beta: float,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
    confidence: float = DEFAULT_CONFIDENCE,
) -> McEstimate:
    """c_lambda(M) with the bounded potential p = U_beta 1 = 1/beta:

        c_lambda(M) = (1/beta) sum_i m_i E[e^{-beta T_M} ; hit from z_i].
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if M.name == "empty":
        return McEstimate(0.0, 0.0, n, confidence)
    mean = 0.0
    var = 0.0
    total = 0
    for zi, mi in zip(lam.points, lam.masses):
        hit, time, _ = simulate_hit_batch(triplet, zi, M, cfg, n, rng)
        vals = np.where(hit, np.exp(-beta * np.where(hit, time, 0.0)), 0.0) / beta
        est = McEstimate.from_samples(vals, confidence)
        mean += mi * est.mean
        var += (mi * est.stderr) ** 2
        total += n
    return McEstimate(mean, float(np.sqrt(var)), total, confidence)


def capacity_tightness_profile(
    norm,
    triplet: LevyTriplet,
    lam: PointCloud,
    levels,
    beta: float,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
    confidence: float = DEFAULT_CONFIDENCE,
):
    """c_lambda of the complements of nested q_x level sets, on common paths.

    Shared paths make the per-path discount factors nonincreasing across
    levels, so the strict-decrease trend is structural up to ties."""
    results = []
    levels = list(levels)
    means = np.zeros(len(levels))
    var = np.zeros(len(levels))
    for zi, mi in zip(lam.points, lam.masses):
        times = level_crossing_times(norm, triplet, zi, levels, cfg, n, rng)
        disc = np.where(np.isfinite(times), np.exp(-beta * times), 0.0) / beta
        for li in range(len(levels)):
            est = McEstimate.from_samples(disc[li], confidence)
            means[li] += mi * est.mean
            var[li] += (mi * est.stderr) ** 2
    for li, lv in enumerate(levels):
        results.append(
            {
                "level": lv,
                "estimate": McEstimate(
                    float(means[li]), float(np.sqrt(var[li])), n, confidence
                ),
            }
        )
    return results


def balayage_check(
    triplet: LevyTriplet,
    nu: PointCloud,
    M: TargetSet,
    beta: float,
    F_specs,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
    confidence: float = DEFAULT_CONFIDENCE,
) -> dict:
    """Compare nu_M o U_beta with nu o U_beta on probe sets F.

    F_specs is a list of {"target": TargetSet, "inside": bool} where inside
    certifies F subset M.  One common trajectory per sample carries both
    sides: the post-hitting occupancy never exceeds the full occupancy per
    path, and for F inside M the pre-hitting occupancy vanishes exactly.
    Also checks the carrier property of the sampled hitting locations.
    """
    targets = [spec["target"] for spec in F_specs]
    nF = len(targets)
    rows = [
        {
            "F": spec["target"].name,
            "inside": bool(spec["inside"]),
            "nu_side": 0.0,
            "swept_side": 0.0,
            "var_diff": 0.0,
        }
        for spec in F_specs
    ]
    per_sample_ineq = True
    any_hit = False
    carrier_ok = True
    for zi, mi in zip(nu.points, nu.masses):
        T, A, B, loc = discounted_occupancy(
            triplet, zi, M, targets, beta, cfg, n, rng
        )
        hits = np.isfinite(T)
        if hits.any():
            any_hit = True
            carrier_ok &= bool(np.all(M(loc[hits])))
        per_sample_ineq &= bool(np.all(B <= A + 1e-12))
        for fi in range(nF):
            diff = A[fi] - B[fi]
            rows[fi]["nu_side"] += mi * float(A[fi].mean())
            rows[fi]["swept_side"] += mi * float(B[fi].mean())
            rows[fi]["var_diff"] += (mi * diff.std(ddof=1) / np.sqrt(n)) ** 2
    for row in rows:
        diff_est = McEstimate(
            row["nu_side"] - row["swept_side"],
            float(np.sqrt(row.pop("var_diff"))),
            n,
            confidence,
        )
        if row["inside"]:
            row["verdict"] = diff_est.verdict(0.0)
        else:
            row["verdict"] = diff_est.verdict_at_least(0.0)
        row["difference"] = diff_est
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
    confidence: float = DEFAULT_CONFIDENCE,
) -> dict:
    """Domination principle: verify mu o U_beta <= nu o U_beta on probes in
    the carrier G, then test the conclusion on probes outside G.

    Each probe shares one batch of resolvent increments across every cloud
    point of both measures (common random numbers)."""

    def probe_row(B: TargetSet):
        t = rng.exponential(1.0 / beta, size=n)
        incr = sample_increments(triplet, t, n, rng)
        mu_samples = np.zeros(n)
        for zi, mi in zip(mu.points, mu.masses):
            mu_samples += mi * B(zi + incr) / beta
        nu_samples = np.zeros(n)
        for zi, mi in zip(nu.points, nu.masses):
            nu_samples += mi * B(zi + incr) / beta
        diff = McEstimate.from_samples(nu_samples - mu_samples, confidence)
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
        out["conclusion_ok"] = None
        out["note"] = "hypothesis not satisfied on G; conclusion skipped"
        return out
    conc_rows = [probe_row(B) for B in probes_out_G]
    out["conclusion_rows"] = conc_rows
    out["conclusion_ok"] = all(r["verdict"] != "fail" for r in conc_rows)
    return out


def polarity_diagnostic_point(
    triplet: LevyTriplet,
    y: np.ndarray,
    r_grid,
    starts,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
    n_coords: int | None = None,
    allow_degenerate: bool = False,
    confidence: float = DEFAULT_CONFIDENCE,
) -> dict:
    """Shrinking-ball hit probabilities around the point y.

    A diagnostic, not a proof: verdict "consistent with polarity" when the
    probabilities decrease toward 0 with the radius at every start.  The
    hypothesis surrogate requires a Gaussian part nondegenerate in at least
    two truncated coordinates unless allow_degenerate is set (the 1-d
    negative control)."""
    model = triplet.model
    if not allow_degenerate and int(np.count_nonzero(triplet.gaussian_diag)) < 2:
        raise PreconditionError(
            "Gaussian part must be nondegenerate in >= 2 coordinates"
        )
    r_grid = sorted(r_grid, reverse=True)
    rows = []
    consistent = True
    for start in starts:
        ests = []
        for r in r_grid:
            tgt = (
                e_ball(model, y, r)
                if n_coords is None
                else coord_ball(model, y, r, n_coords)
            )
            hit, _, _ = simulate_hit_batch(triplet, start, tgt, cfg, n, rng)
            est = McEstimate.from_samples(hit.astype(float), confidence)
            ests.append(est)
            rows.append({"start": np.asarray(start), "r": r, "estimate": est})
        zc = z_value(confidence)
        monotone = all(
            ests[i + 1].mean
            <= ests[i].mean + 3 * zc * np.hypot(ests[i].stderr, ests[i + 1].stderr)
            for i in range(len(ests) - 1)
        )
        shrinking = ests[-1].mean <= 0.5 * ests[0].mean + 3 * zc * np.hypot(
            ests[0].stderr, ests[-1].stderr
        )
        consistent &= monotone and shrinking
    return {
        "rows": rows,
        "verdict": "consistent with polarity" if consistent else "not consistent",
        "note": "shrinking-target diagnostic, not a proof",
    }


def polarity_diagnostic_H(
    triplet: LevyTriplet,
    rho_grid,
    starts,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
    t_structural: float = 1.0,
    confidence: float = DEFAULT_CONFIDENCE,
) -> dict:
    """Diagnostics for polarity of the Cameron-Martin space H.

    (a) hit probabilities of truncated H-balls shrink with the radius;
    (b) structural moment check: for the pure unit-H Gaussian the truncated
        H-norm^2 at time t has mean |start|_H^2 + N*t (the measure-level
        fact behind the increment law not charging H).
    """
    model = triplet.model
    rho_grid = sorted(rho_grid, reverse=True)
    zc = z_value(confidence)
    rows = []
    shrinks = True
    for start in starts:
        ests = []
        for rho in rho_grid:
            hit, _, _ = simulate_hit_batch(
                triplet, start, h_ball(model, rho), cfg, n, rng
            )
            est = McEstimate.from_samples(hit.astype(float), confidence)
            ests.append(est)
            rows.append({"start": np.asarray(start), "rho": rho, "estimate": est})
        shrinks &= all(
            ests[i + 1].mean <= ests[i].mean + 3 * zc * np.hypot(ests[i].stderr, ests[i + 1].stderr)
            for i in range(len(ests) - 1)
        )
    out = {"hit_rows": rows, "shrinking": shrinks}
    if triplet.is_pure_unit_gaussian:
        start0 = np.asarray(starts[0], dtype=float)
        incr = sample_increments(triplet, t_structural, n, rng)
        est = McEstimate.from_samples(model.h_norm2(start0 + incr), confidence)
        target = float(model.h_norm2(start0)) + model.dim * t_structural
        out["structural"] = {
            "estimate": est,
            "target": target,
            "verdict": est.verdict(target),
        }
    return out


def projection_convergence(
    triplet: LevyTriplet,
    t: float,
    n_grid,
    samples: int,
    rng: np.random.Generator,
    confidence: float = DEFAULT_CONFIDENCE,
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
        est = McEstimate.from_samples(tail.sum(axis=1), confidence)
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
