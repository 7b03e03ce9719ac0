"""Exit-distribution solution of the Dirichlet problem on regular open sets.

The stochastic solution at z is the mean of the boundary data at the exit
location of a path started at z: a hit of the domain's exit target
(`potential.simulate_hit_batch`, whose docstring gives the exit law).
Supported domains are E-balls, coordinate slabs and coordinate boxes; all
have the exterior-cone property, so paths of the continuous process exit
through the topological boundary, where the hit lands them.

The controlled-convergence checker is deterministic: it consumes evaluators
for the candidate solution h, the boundary data f and the control k, and
classifies each approach sequence into the bounded-control branch (compare
h against f at the limit point) or the exploding-control branch (h/(1+k)
must vanish).
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .measures import BAND_Z, LevyTriplet, McEstimate
from .operators import TestFunction
from .potential import PathConfig, TargetSet, simulate_hit_batch
from .potential import box_complement, e_ball_complement, slab_complement
from .space import PreconditionError, SpaceModel, in_box


@dataclass(frozen=True)
class Domain:
    """Open set whose exit TargetSet holds its geometry, from which `_domain`
    derives its membership: the `e_form` of an E-ball's complement, or the
    `faces` of a slab's or a box's.  All three satisfy an exterior cone
    condition at every boundary point, the regularity continuous paths need.
    """

    model: SpaceModel
    membership: Callable[[np.ndarray], np.ndarray]
    exit_target: TargetSet

    def contains(self, z: np.ndarray) -> bool:
        return bool(np.all(self.membership(np.atleast_2d(np.asarray(z, float)))))

    def inner_domain(self, x: np.ndarray, r: float) -> "Domain":
        """A shrunken neighborhood of x of the same geometry (an E-ball, or a
        slab or box on the same coordinates; a one-coordinate box comes back
        as a slab) whose closure lies in the domain; raises
        PreconditionError when it does not fit."""
        x = np.asarray(x, dtype=float)
        form = self.exit_target.e_form
        if form is not None:
            if math.sqrt(form.distance2(x)) + r >= form.radius:
                raise PreconditionError("inner ball does not fit inside the domain")
            return e_ball_domain(self.model, x, r)
        cols, lo, hi = self.exit_target.face_box()
        xs = x[cols]
        if not (np.all(lo < xs - r) and np.all(xs + r < hi)):
            raise PreconditionError("inner neighborhood does not fit inside the domain")
        if len(cols) == 1:
            return slab_domain(self.model, cols[0] + 1, xs[0] - r, xs[0] + r)
        return box_domain(self.model, xs - r, xs + r)  # a box reads columns 0..k-1


def _domain(model: SpaceModel, exit_target: TargetSet) -> Domain:
    """The open domain outside `exit_target`, a face or E-form target: the
    open box its faces leave or the other side of its E-form, so a NaN in a
    read column lies in neither the domain nor its exit set."""
    form = exit_target.e_form
    if form is not None:
        rest = replace(form, inside=not form.inside, closed=not form.closed)
        return Domain(model, lambda z: rest.holds(form.distance2(z)), exit_target)
    cols, lo, hi = exit_target.face_box()
    if not (lo.size and np.all(lo < hi)):
        raise ValueError("the faces must leave a nonempty open box, lows < highs")
    return Domain(model, lambda z: in_box(z[..., cols], lo, hi, closed=False), exit_target)


def e_ball_domain(model: SpaceModel, center: np.ndarray, radius: float) -> Domain:
    return _domain(model, e_ball_complement(model, center, radius, closed=True))


def slab_domain(model: SpaceModel, coord: int, a: float, b: float) -> Domain:
    return _domain(model, slab_complement(model, coord, a, b))


def box_domain(model: SpaceModel, lows, highs) -> Domain:
    return _domain(model, box_complement(model, lows, highs))


# Boundary data: a test function whose declared bound is checked on every
# batch of exit locations.  Its evaluator takes any point a path exits at:
# points on the boundary and, for jump processes, exterior landing points.
BoundaryData = TestFunction


@dataclass(frozen=True)
class DirichletEstimate:
    estimate: McEstimate
    non_exit_fraction: float

    @property
    def flagged(self) -> bool:
        """More paths cut off by the horizon than a solve tolerates."""
        return self.non_exit_fraction > _MAX_NON_EXIT


# the largest non-exit mass a solve tolerates before it is flagged
_MAX_NON_EXIT = 0.01


def solve(
    triplet: LevyTriplet,
    domain: Domain,
    f: BoundaryData,
    z,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
) -> DirichletEstimate:
    """Mean of f at the exit location from z; non-exit paths contribute 0
    and their mass is reported (and flagged above _MAX_NON_EXIT).  Data
    beyond their declared bound raise `operators.BoundViolation`."""
    z = np.asarray(z, dtype=float)
    if not domain.contains(z):
        raise PreconditionError("start point must lie inside the domain")
    hit, _, loc = simulate_hit_batch(triplet, z, domain.exit_target, cfg, n, rng)
    vals = np.zeros(n)
    if hit.any():
        vals[hit] = f(loc[hit])
    return DirichletEstimate(
        estimate=McEstimate.from_samples(vals),
        non_exit_fraction=float(1.0 - hit.mean()),
    )


def gambler_ruin_value(domain: Domain, fa: float, fb: float, x: float) -> float:
    """Closed form for 1-coordinate slab data: linear interpolation of the
    two face values at the start coordinate."""
    (_, a, _), (_, b, _) = domain.exit_target.faces
    return fa * (b - x) / (b - a) + fb * (x - a) / (b - a)


def approach_sequence(y: np.ndarray, x0: np.ndarray, n_points: int) -> np.ndarray:
    """Geometric ray x_k = y + 2^-k (x0 - y), k = 1..n_points."""
    y = np.asarray(y, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    ks = np.arange(1, n_points + 1)
    return y + (0.5**ks)[:, None] * (x0 - y)


def boundary_continuity_check(
    triplet: LevyTriplet,
    domain: Domain,
    f: BoundaryData,
    y: np.ndarray,
    sequence: np.ndarray,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
) -> dict:
    """Solve along an approach sequence to the boundary point y and test the
    trend toward f(y): gaps nonincreasing within noise, final gap inside
    3 bands.  The report holds the verdict and a row a point, with its gap
    |u(x_k) - f(y)| and its DirichletEstimate under "solve", which carries
    the non-exit mass."""
    fy = float(f(np.asarray(y, dtype=float)[None, :])[0])
    rows = []
    for xk in np.atleast_2d(sequence):
        est = solve(triplet, domain, f, xk, n, cfg, rng)
        rows.append({"gap": abs(est.estimate.mean - fy), "solve": est})
    noise = [3.0 * BAND_Z * r["solve"].estimate.stderr for r in rows]
    trend = all(
        rows[i + 1]["gap"] <= rows[i]["gap"] + noise[i] + noise[i + 1]
        for i in range(len(rows) - 1)
    )
    final_ok = rows[-1]["gap"] <= noise[-1]
    return {"rows": rows, "verdict": "pass" if (trend and final_ok) else "fail"}


def harmonicity_check(
    triplet: LevyTriplet,
    domain: Domain,
    f: BoundaryData,
    x: np.ndarray,
    r_grid,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
) -> list[dict]:
    """Strong-Markov consistency: exit a small inner neighborhood of x
    first, then solve from its exit points; the two-stage mean must agree
    with the direct solve at x within the combined confidence bands.  A row
    a radius holds r, the estimate of the two-stage mean minus the direct
    one under "difference" (the caller checks it against 0), and both
    DirichletEstimates, two-stage first, under "solves"."""
    x = np.asarray(x, dtype=float)
    rows = []
    for r in r_grid:
        inner = domain.inner_domain(x, r)  # raises if it does not fit
        hit, _, mid = simulate_hit_batch(triplet, x, inner.exit_target, cfg, n, rng)
        if not hit.all():
            raise RuntimeError("inner exit did not complete before the horizon")
        staged = solve(triplet, domain, f, mid, n, cfg, rng)
        direct = solve(triplet, domain, f, x, n, cfg, rng)
        diff = McEstimate(
            staged.estimate.mean - direct.estimate.mean,
            float(np.hypot(staged.estimate.stderr, direct.estimate.stderr)),
            n,
        )
        rows.append({"r": r, "difference": diff, "solves": (staged, direct)})
    return rows


@dataclass(frozen=True)
class SequenceRecord:
    branch: str  # "c1" | "c2"
    verdict: str


@dataclass(frozen=True)
class ControlReport:
    records: tuple

    @property
    def all_pass(self) -> bool:
        return all(r.verdict == "pass" for r in self.records)


# the control's limsup is read off its largest value over the last _TAIL
# points of a sequence, and counts as exploding from _K_CAP on
_TAIL = 3
_K_CAP = 1e6


def controlled_convergence_check(
    h_eval: Callable[[np.ndarray], np.ndarray],
    f_eval: Callable[[np.ndarray], np.ndarray],
    k_eval: Callable[[np.ndarray], np.ndarray],
    V0_membership: Callable[[np.ndarray], np.ndarray],
    sequences: list[np.ndarray],
    boundary_points: list[np.ndarray],
    tol: float,
) -> ControlReport:
    """Classify each approach sequence by the control k.

    Bounded-control branch (the largest k over the last _TAIL points below
    _K_CAP): the tail of h must reach f at the limit point within tol.
    Exploding branch: the tail of h/(1+k) must reach 0 within tol.
    """
    records = []
    for sid, (xs, y) in enumerate(zip(sequences, boundary_points)):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        y = np.asarray(y, dtype=float)
        if not np.all(V0_membership(xs)):
            raise ValueError(f"sequence {sid} leaves the control region")
        dist = np.linalg.norm(xs - y, axis=1)
        if not (np.all(np.diff(dist) <= 0) and dist[-1] <= 0.5 * dist[0]):
            raise ValueError(f"sequence {sid} does not converge to its boundary point")
        hv = np.asarray(h_eval(xs), dtype=float)
        kv = np.asarray(k_eval(xs), dtype=float)
        if np.max(kv[-_TAIL:]) < _K_CAP:
            branch = "c1"
            fy = float(f_eval(y[None, :])[0])
            ok = abs(hv[-1] - fy) <= tol
        else:
            branch = "c2"
            ratio = hv / (1.0 + kv)
            ok = abs(ratio[-1]) <= tol
        records.append(SequenceRecord(branch, "pass" if ok else "fail"))
    return ControlReport(records=tuple(records))


def majorant_stability_check(
    h_eval, f_eval, k_eval, V0_membership, sequences, boundary_points, tol: float
) -> dict:
    """A pass must survive replacing the control k by its majorant 2k."""
    k2_eval = lambda xs: 2.0 * np.asarray(k_eval(xs), dtype=float)
    base, doubled = (
        controlled_convergence_check(h_eval, f_eval, k, V0_membership, sequences, boundary_points, tol)
        for k in (k_eval, k2_eval)
    )
    stable = not any(
        r0.verdict == "pass" and r1.verdict == "fail"
        for r0, r1 in zip(base.records, doubled.records)
    )
    return {"base": base, "stable": stable}
