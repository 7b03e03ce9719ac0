"""Path samplers: the grid engine, exact face passage and the radial mode.

The engine (`_step_paths`) steps paths on a fixed time grid, each increment
drawn exactly from the increment law at the step size, so the only error
is the discrete monitoring of the targets at the grid points.  It steps the
coordinates the targets read and the law moves, plus the jump support, and
draws the others the law moves at the stopping times (`_draw_rest`).  It
steps blocks of grid steps within `_BLOCK` = 32768 elements: with 1000
paths x 32 coordinates, a block larger than one step raises the peak that
`test_full_width_exit_memory` bounds at 5.25 steps (40960 measured 5.72).
A hit of a target made of faces, each moved as a drift-free Brownian
motion, is sampled exactly off the grid (`_face_passage`), also between the
jumps of a finite-activity law.  An E-form hit whose tail coordinates move
at one rate from the centre's tail steps that tail as one squared Bessel
radius (`_radial_passage`), with the engine's law.  A sampler reads a
target only through its membership, `coords`, `faces` (`face_box()`) and
`e_form`; a continuous hit lands where its caller's cut(z_in, z_out) puts it.
"""

import math
from dataclasses import replace

import numpy as np

from .measures import LevyTriplet, sample_increments
from .space import in_box


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
    cfg,
    n_paths: int,
    rng: np.random.Generator,
    cuts=None,
    observe=None,
    locate: bool = True,
    n_steps: int | np.ndarray | None = None,
):
    """The stepping engine behind every path estimator.

    `member(z)` maps points (rows, N') to a (targets, rows) membership matrix
    that reads only the coordinates `coords`; N' is the largest read or
    stepped coordinate + 1.  A path steps until it has entered every
    target.  `cuts` holds a cut or None per membership row: a cut maps the
    entering grid step's points to the entry point, cut(z_in, z_out), and
    the path moves on from the grid point.  Targets are monitored at the grid
    points only; `observe(t, idx, z, times, entries)` sees the block grid
    times t (B,), points z (B, len(idx), N') of the stepped paths idx, the
    entry times found so far, this block's included, to mask the points
    past an entry, and this block's entries (entered, first): entered
    (targets, len(idx)) marks the paths that entered each target in the
    block, and first holds the step of the block where they did (read it
    only where entered).  Paths take `n_steps` grid steps, by default the
    grid's `cfg.n_steps`, or each its own count (an array, one a path): no
    entry past a path's count is recorded.  Returns entry times (inf when
    missed) and entry points (the start when missed; none without locate).

    Each iteration advances the live paths by a block of B grid steps, the
    largest B (at least 1) with B * paths * read or stepped coordinates <=
    _BLOCK and none past the longest count left, so blocks grow as the live
    set shrinks.  One draw of B * paths increments, summed along the step
    axis (`_prefix_sum`) and added to the positions, gives the block's grid
    points; a path stops at the step where it entered its last target, or
    at the end of the block that reaches its count.  Stopping inside a
    block is exact: that step's decision reads only the increments up to
    it, and the discarded draws after it are independent of everything kept.

    The live paths are held compacted, in their original order: their ids,
    stepped positions, awaited targets and counts are dense arrays, shrunk
    only on an iteration where some path stopped; paths that start inside
    every target or have no step are never live.  The draws are unchanged
    by this: each iteration draws B * paths increments for the same live
    paths in the same order as a scan of all paths would.  The positions
    stay in the buffer allocated before the loop and shrink within it, so
    an iteration allocates only its block and the membership's temporaries.

    The stepped coordinates are the read ones the law moves plus the jump
    support (`LevyTriplet.carried`), drawn from the law's marginal on them;
    membership sees a read column the law does not move at its start, and
    0 in the unread ones up to the largest handed.  The others it moves
    carry no jumps and a diagonal Gaussian part, so they are independent of
    every stopping time and are drawn at the entry times (`_draw_rest`).
    """
    z0 = _starts(start, n_paths)
    cols = triplet.carried(coords)
    k = cols.size
    law = triplet.marginal(cols) if k else None
    # the columns membership is handed: the read ones and the stepped ones
    shown = {*coords, *cols.tolist()}
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
    if n_steps is None:
        n_steps = cfg.n_steps
    ends = np.broadcast_to(n_steps, z0.shape[:1])  # each path's step count
    # the live set, kept in path order: path ids, stepped positions, awaited
    # targets and step counts; it shrinks only when a path stops, and the
    # positions shrink within the buffer allocated here
    ids = np.flatnonzero(np.isinf(times).any(axis=0) & (ends > 0))
    pending, ends = np.isinf(times[:, ids]), ends[ids]
    y = z0[np.ix_(ids, cols)]
    last, soonest = int(ends.max(initial=0)), int(ends.min(initial=0))  # of the live paths
    done = 0
    while ids.size:
        r = ids.size
        nb = min(last - done, max(1, _BLOCK // (r * max(len(shown), 1))))
        if law is None:
            path = np.empty((nb, r, 0))
        else:
            path = sample_increments(law, cfg.dt, nb * r, rng).reshape(nb, r, k)
            _prefix_sum(path)
        path += y
        z = widen(path)
        inside = member(z.reshape(nb * r, width)).reshape(n_t, nb, r) & pending[:, None]
        steps = done + 1 + np.arange(nb)
        ending = soonest <= done + nb  # some path takes its last step in this block
        if ending:  # no entry past a path's own count
            inside &= steps[:, None] <= ends
        if nb == 1:  # many live paths: no block axis to search
            entered, first = inside[:, 0], np.zeros((n_t, r), dtype=int)
        else:
            entered, first = inside.any(axis=1), inside.argmax(axis=1)
        t = steps * cfg.dt
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
        if observe is not None:
            observe(t, ids, z, times, (entered, first))
        done += nb
        if entering or ending:
            going = pending.any(axis=0) & (ends > done)
        if not (entering or ending) or going.all():
            y[...] = path[nb - 1]
        else:  # the stopped paths leave the live set; the rest move on
            ids, pending, ends = ids[going], pending[:, going], ends[going]
            y = np.compress(going, path[nb - 1], axis=0, out=y[: ids.size])
            last, soonest = int(ends.max(initial=0)), int(ends.min(initial=0))
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
        out = ~in_box(x[rows], lo, hi, closed=False)
        times[rows[out]] = elapsed[rows[out]]
        rows = rows[~out]
    return times, x, acc


def _face_eligible(triplet: LevyTriplet, target, cfg) -> bool:
    """Whether `_face_passage` applies: cfg.bridge, a target that reads only
    its face coordinates, each moved without drift (b_j = 0, g_j > 0)."""
    cols = sorted({j for j, _, _ in target.faces})
    if not cfg.bridge or sorted(set(target.coords)) != cols:
        return False
    return not triplet.drift[cols].any() and (triplet.gaussian_diag[cols] > 0).all()


def _face_passage(
    triplet: LevyTriplet,
    start: np.ndarray,
    target,
    cfg,
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


def _radial_head(triplet: LevyTriplet, target, start) -> int:
    """The head size m of the radial mode (`_radial_passage`) for a hit of
    `target` from `start`, or 0 when it does not apply.  It needs a
    continuous law, an E-form on all N columns, two or more tail ones (of
    weight below _HEAD_FRACTION of the first), moved without drift at one
    variance rate g > 0, and every start's tail at the centre's."""
    form = target.e_form
    if form is None or form.weights.size != triplet.model.dim or not triplet.is_continuous:
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


def _tail_step(u, r_in, along, across, sd, rng):
    """The tails at step s minus the centre's, sd ((r_in + along) u +
    sqrt(across) v) (n, d), of paths at sd r_in u at s - 1, u unit rows,
    whose radius chain drew `along` and `across` for step s (`_tail_radii`);
    v is uniform on the unit sphere orthogonal to u: the Gaussian step's law
    given those draws, also at r_in = 0."""
    v = rng.standard_normal(u.shape)
    v -= (v * u).sum(axis=1, keepdims=True) * u
    v *= (sd * np.sqrt(across) / np.linalg.norm(v, axis=1))[:, None]
    return v + (sd * (r_in + along))[:, None] * u


def _tail_radii(radius: np.ndarray, nb: int, d: int, rng: np.random.Generator):
    """Radii (nb + 1, r) of r standard Brownian motions in R^d over nb unit
    steps from `radius` (r,), and their draws (along, across) (nb, r): a
    step's component along the current point is a normal N, its squared
    rest a chi^2_{d-1}, so r_s = sqrt((r_{s-1} + N)^2 + chi^2_{d-1}).  Each
    kind comes from one call; the steps chain in a Python loop of an add, a
    multiply, an add and a sqrt in place on each row, with no hypot, which
    costs about six times those three an element (BENCH_radial_floor.json)."""
    rad = np.empty((nb + 1, radius.size))
    rad[0] = radius
    along = rng.standard_normal((nb, radius.size))
    across = rng.chisquare(d - 1, (nb, radius.size))
    for prev, r, a, c in zip(rad, rad[1:], along, across):
        np.add(prev, a, r)  # positional outs: the loop runs once a grid step
        np.multiply(r, r, r)
        np.add(r, c, r)
        np.sqrt(r, r)
    return rad, along, across


def _radial_passage(
    triplet: LevyTriplet,
    start: np.ndarray,
    target,
    cfg,
    n_paths: int,
    rng: np.random.Generator,
    locate: bool,
    cut,
    m: int,
):
    """A hit of an E-form target that steps the head coordinates c_1..c_m
    on the grid and the tail c_{m+1}..c_N as one squared radius.  Returns
    (times, locations) like a one-target engine run; without locate it
    builds no entry point, calls no cut and gives None for them.

    The tail minus the centre's is sqrt(g) times a d-dimensional Brownian
    motion from 0 (d = N - m), so its squared norm rho is a squared Bessel
    process, whose root is stepped exactly in units of sqrt(g dt)
    (`_tail_radii`): r = sqrt(rho / (g dt)).  The weights do not increase,
    so the tail's share of the E-norm^2 lies between lambda_N rho and
    lambda_{m+1} rho, and a step whose bound keeps it out of the target is
    decided without the tail.  At a path's first step s that the bound
    cannot rule out, the tail is placed from the chain's draws of step s:
    given them its direction U at s - 1 is uniform (rotation invariance),
    and the step is the draw a along U plus sqrt(c) times a uniform V
    orthogonal to U (`_tail_step`).  The real membership then decides.  A
    path that entered stops at s, located by `cut` from its points at s - 1
    and s; one that did not leaves the radial mode at s with its realized
    point.  So do all live paths, their tails drawn uniform, once fewer than
    _RADIAL_MIN_PATHS remain.  The paths that left finish on the engine
    (`_step_paths`) in one call from their points, each for its remaining
    step count, with `cut`.  The head steps by `sample_increments`.
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
    n_steps = cfg.n_steps
    undecided = []  # per block: path ids, steps, head points at s - 1 and s, r_{s-1}, a, c
    done = 0
    while done < n_steps and ids.size >= _RADIAL_MIN_PATHS:
        r = ids.size
        nb = min(n_steps - done, max(1, _BLOCK // (r * (m + 2))))
        path = sample_increments(head, cfg.dt, nb * r, rng).reshape(nb, r, m)
        _prefix_sum(path)
        path += y
        rad, along, across = _tail_radii(radius, nb, d, rng)
        p = path if c_head is None else path - c_head  # z - 0.0 is z, bit for bit
        maybe = form.holds((p * p) @ w_head + w_near * rad[1:] ** 2)
        stop = maybe.any(axis=0)
        if stop.any():
            rows = np.flatnonzero(stop)
            s = maybe[:, rows].argmax(axis=0)
            head_in = np.where((s > 0)[:, None], path[s - 1, rows], y[rows])
            chain = (x[s, rows] for x in (rad, along, across))  # r_{s-1} and step s's draws
            undecided.append((ids[rows], done + 1 + s, head_in, path[s, rows], *chain))
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
        ids, steps, head_in, head_out, r_in, a, c = (x[lo : lo + chunk] for x in undecided)
        u = _uniform_directions(ids.size, d, rng)
        z_out = np.hstack([head_out, c_tail + _tail_step(u, r_in, a, c, sd, rng)])
        entered = target(z_out)
        times[ids[entered]] = steps[entered] * cfg.dt
        left.append((ids[~entered], z_out[~entered], steps[~entered]))
        if locate:
            z_in = np.hstack([head_in[entered], c_tail + (sd * r_in[entered])[:, None] * u[entered]])
            locs[ids[entered]] = cut(z_in, z_out[entered])
    ids, z, steps = (np.concatenate(x) for x in zip(*left))
    if ids.size:
        t, loc = _step_paths(
            triplet, z, lambda z: target(z)[None], target.coords, cfg, ids.size, rng,
            cuts=[cut], locate=locate, n_steps=n_steps - steps,
        )
        # its steps before the hand-off and on the engine; a miss stays inf
        times[ids] = (steps + np.rint(t[0] / cfg.dt)) * cfg.dt
        if locate:
            hit = np.isfinite(t[0])
            locs[ids[hit]] = loc[0, hit]
    return times, locs if locate else None
