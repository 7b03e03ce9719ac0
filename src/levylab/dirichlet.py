"""Exit-distribution solution of the Dirichlet problem on regular open sets.

The stochastic solution at z is the mean of the boundary data at the exit
location of a path started at z.  Supported domains are E-balls, coordinate
slabs and coordinate boxes; all have the exterior-cone property, so paths
of the continuous process exit through the topological boundary.

The controlled-convergence checker is deterministic: it consumes evaluators
for the candidate solution h, the boundary data f and the control k, and
classifies each approach sequence into the bounded-control branch (compare
h against f at the limit point) or the exploding-control branch (h/(1+k)
must vanish).
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .measures import DEFAULT_CONFIDENCE, LevyTriplet, McEstimate, z_value
from .potential import PathConfig, PointCloud, TargetSet, simulate_hit_batch
from .potential import box_complement, e_ball_complement, slab_complement
from .space import SpaceModel


class IntegrabilityError(RuntimeError):
    """A ladder of bounded approximations failed to converge in mean."""


@dataclass(frozen=True)
class Domain:
    """Open set with a signed distance proxy and an exit TargetSet.

    kinds: "e_ball", "slab", "box".  All three satisfy an exterior cone
    condition at every boundary point, the regularity needed for boundary
    exit of continuous paths.
    """

    kind: str
    model: SpaceModel
    membership: Callable[[np.ndarray], np.ndarray]
    boundary_distance: Callable[[np.ndarray], np.ndarray]
    exit_target: TargetSet
    params: dict = field(default_factory=dict)

    def contains(self, z: np.ndarray) -> bool:
        return bool(np.all(self.membership(np.atleast_2d(np.asarray(z, float)))))

    def inner_domain(self, x: np.ndarray, r: float) -> "Domain":
        """A shrunken same-kind neighborhood of x whose closure lies in the
        domain; raises ValueError when it does not fit."""
        x = np.asarray(x, dtype=float)
        if self.kind == "e_ball":
            c, R = self.params["center"], self.params["radius"]
            if self.model.e_norm(x - c) + r >= R:
                raise ValueError("inner ball does not fit inside the domain")
            return e_ball_domain(self.model, x, r)
        if self.kind == "slab":
            j, a, b = self.params["coord"], self.params["a"], self.params["b"]
            xj = x[j - 1]
            if not (a < xj - r and xj + r < b):
                raise ValueError("inner slab does not fit inside the domain")
            return slab_domain(self.model, j, xj - r, xj + r)
        lo, hi = self.params["lows"], self.params["highs"]
        if not (np.all(lo < x[: lo.size] - r) and np.all(x[: lo.size] + r < hi)):
            raise ValueError("inner box does not fit inside the domain")
        return box_domain(self.model, x[: lo.size] - r, x[: lo.size] + r)


def e_ball_domain(model: SpaceModel, center: np.ndarray, radius: float) -> Domain:
    c = np.asarray(center, dtype=float)
    return Domain(
        kind="e_ball",
        model=model,
        membership=lambda z: model.e_norm(z - c) < radius,
        boundary_distance=lambda z: radius - model.e_norm(z - c),
        exit_target=e_ball_complement(model, c, radius, closed=True),
        params={"center": c, "radius": float(radius)},
    )


def slab_domain(model: SpaceModel, coord: int, a: float, b: float) -> Domain:
    if not a < b:
        raise ValueError("need a < b")
    j = coord - 1
    return Domain(
        kind="slab",
        model=model,
        membership=lambda z: (z[..., j] > a) & (z[..., j] < b),
        boundary_distance=lambda z: np.minimum(z[..., j] - a, b - z[..., j]),
        exit_target=slab_complement(model, coord, a, b),
        params={"coord": coord, "a": float(a), "b": float(b)},
    )


def box_domain(model: SpaceModel, lows, highs) -> Domain:
    lo = np.asarray(lows, dtype=float)
    hi = np.asarray(highs, dtype=float)
    if lo.shape != hi.shape or np.any(lo >= hi):
        raise ValueError("need elementwise lows < highs")
    k = lo.size
    return Domain(
        kind="box",
        model=model,
        membership=lambda z: np.all((z[..., :k] > lo) & (z[..., :k] < hi), axis=-1),
        boundary_distance=lambda z: np.min(
            np.minimum(z[..., :k] - lo, hi - z[..., :k]), axis=-1
        ),
        exit_target=box_complement(model, lo, hi),
        params={"lows": lo, "highs": hi},
    )


@dataclass(frozen=True)
class BoundaryData:
    """Boundary evaluator, tolerant of points in a collar around the
    boundary (and, for jump processes, of exterior landing points)."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    integrability_class: str = "bounded-continuous"
    bound: float | None = None
    name: str = ""

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(z, dtype=float)), dtype=float)


@dataclass(frozen=True)
class DirichletEstimate:
    estimate: McEstimate
    non_exit_fraction: float
    flagged: bool


def _exact_exit(domain: Domain):
    """Refinement callback: the point where the last step's segment
    z_in + theta*(z_out - z_in), z_in inside, meets the boundary."""

    def refine(z_in: np.ndarray, z_out: np.ndarray) -> np.ndarray:
        d = z_out - z_in
        if domain.kind == "e_ball":
            # a theta^2 + 2b theta + q = 0 with a > 0 > q: the positive root,
            # in a form that does not cancel
            w, p = domain.model.weights, z_in - domain.params["center"]
            a, b = (d * d) @ w, (p * d) @ w
            q = (p * p) @ w - domain.params["radius"] ** 2
            theta = -q / (b + np.sqrt(b * b - a * q))
        else:  # the segment leaves through the first face it crosses
            theta = np.ones(len(z_in))
            for j, v, side in domain.exit_target.faces:
                crossed = side * (z_out[:, j] - v) >= 0
                frac = (v - z_in[crossed, j]) / d[crossed, j]
                theta[crossed] = np.minimum(theta[crossed], frac)
        return z_in + theta[..., None] * d

    return refine


def sample_exits(
    triplet: LevyTriplet,
    domain: Domain,
    z,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
):
    """Exit simulation; returns (exited mask, times, locations), with the
    start as the location of a path that has not exited by the horizon.

    Continuous paths exit on the boundary.  A slab exit, when the law moves
    the slab's coordinate without drift, is sampled exactly with no time
    grid (`potential._face_passage`), and lands on the face value; E-balls,
    boxes and drifted slabs report the point where the crossing step's
    segment meets the boundary.  An E-ball exit of a Brownian law whose
    far coordinates start at the centre's steps those coordinates as one
    squared radius and draws them only at the exit step
    (`potential._radial_passage`), with the same law.  Jump paths report
    the landing point, which may lie outside the closure.
    """
    refine = _exact_exit(domain) if triplet.is_continuous else None
    return simulate_hit_batch(
        triplet, z, domain.exit_target, cfg, n, rng, refine=refine
    )


def solve(
    triplet: LevyTriplet,
    domain: Domain,
    f: BoundaryData,
    z,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
    max_non_exit: float = 0.01,
    confidence: float = DEFAULT_CONFIDENCE,
) -> DirichletEstimate:
    """Mean of f at the exit location from z; non-exit paths contribute 0
    and their mass is reported (and flagged above max_non_exit)."""
    z = np.asarray(z, dtype=float)
    if not domain.contains(z):
        raise ValueError("start point must lie inside the domain")
    hit, _, loc = sample_exits(triplet, domain, z, n, cfg, rng)
    vals = np.zeros(n)
    if hit.any():
        vals[hit] = f(loc[hit])
    frac = float(1.0 - hit.mean())
    return DirichletEstimate(
        estimate=McEstimate.from_samples(vals, confidence),
        non_exit_fraction=frac,
        flagged=frac > max_non_exit,
    )


def gambler_ruin_value(domain: Domain, fa: float, fb: float, x: float) -> float:
    """Closed form for 1-coordinate slab data: linear interpolation of the
    two face values at the start coordinate."""
    a, b = domain.params["a"], domain.params["b"]
    return fa * (b - x) / (b - a) + fb * (x - a) / (b - a)


def approach_sequence(y: np.ndarray, x0: np.ndarray, n_points: int = 8) -> np.ndarray:
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
    modulus_allowance: float = 0.0,
    confidence: float = DEFAULT_CONFIDENCE,
) -> dict:
    """Solve along an approach sequence to the boundary point y and test the
    trend toward f(y): gaps nonincreasing within noise, final gap inside
    3 bands plus the declared continuity allowance.  Each row keeps its
    DirichletEstimate under "solve", with the non-exit mass."""
    fy = float(f(np.asarray(y, dtype=float)[None, :])[0])
    rows = []
    for xk in np.atleast_2d(sequence):
        est = solve(triplet, domain, f, xk, n, cfg, rng, confidence=confidence)
        gap = abs(est.estimate.mean - fy)
        rows.append({"x": xk, "estimate": est.estimate, "gap": gap, "solve": est})
    zc = z_value(confidence)
    noise = [3.0 * zc * r["estimate"].stderr for r in rows]
    trend = all(
        rows[i + 1]["gap"] <= rows[i]["gap"] + noise[i] + noise[i + 1]
        for i in range(len(rows) - 1)
    )
    final_ok = rows[-1]["gap"] <= noise[-1] + modulus_allowance
    return {
        "target": fy,
        "rows": rows,
        "verdict": "pass" if (trend and final_ok) else "fail",
    }


def harmonicity_check(
    triplet: LevyTriplet,
    domain: Domain,
    f: BoundaryData,
    x: np.ndarray,
    r_grid,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
    confidence: float = DEFAULT_CONFIDENCE,
) -> list[dict]:
    """Strong-Markov consistency: exit a small inner neighborhood of x
    first, then solve from its exit points; the two-stage mean must agree
    with the direct solve at x within the combined confidence bands.  Each
    row holds the difference estimate and both DirichletEstimates."""
    x = np.asarray(x, dtype=float)
    rows = []
    for r in r_grid:
        inner = domain.inner_domain(x, r)  # raises if it does not fit
        hit, _, mid = sample_exits(triplet, inner, x, n, cfg, rng)
        if not hit.all():
            raise RuntimeError("inner exit did not complete before the horizon")
        staged = solve(triplet, domain, f, mid, n, cfg, rng, confidence=confidence)
        direct = solve(triplet, domain, f, x, n, cfg, rng, confidence=confidence)
        diff = McEstimate(
            staged.estimate.mean - direct.estimate.mean,
            float(np.hypot(staged.estimate.stderr, direct.estimate.stderr)),
            n,
            confidence,
        )
        rows.append(
            {
                "r": r,
                "two_stage": staged.estimate,
                "direct": direct.estimate,
                "difference": diff,
                "solves": (staged, direct),
                "verdict": diff.verdict(0.0),
            }
        )
    return rows


def solve_l1(
    triplet: LevyTriplet,
    domain: Domain,
    f: BoundaryData,
    ladder: list[BoundaryData],
    lam: PointCloud,
    n: int,
    cfg: PathConfig,
    rng: np.random.Generator,
    k_controls: list[Callable[[np.ndarray], np.ndarray]] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> dict:
    """Constructive control function for nonnegative L1 boundary data.

    Shares one batch of exits per cloud point across the whole ladder, so
    the per-level solution values h_m are monotone per sample along a
    monotone ladder.  A subsequence m_j with cloud-mean deficit
    lambda(h) - lambda(h_mj) <= 2^-j is extracted; failure to extract one
    is an IntegrabilityError.  Returns the solution values h, the control
    k = k0 + l on the cloud (k0 the weighted ladder controls, l the summed
    deficits along the subsequence) and the bookkeeping report.
    """
    pts = lam.points
    n_pts = pts.shape[0]
    n_lad = len(ladder)
    if n_lad == 0:
        raise ValueError("ladder must be nonempty")
    h_m = np.zeros((n_lad, n_pts))
    h = np.zeros(n_pts)
    exited = np.zeros(n_pts)
    for i, zi in enumerate(pts):
        hit, _, loc = sample_exits(triplet, domain, zi, n, cfg, rng)
        exited[i] = hit.mean()
        if hit.any():
            locs = loc[hit]
            h[i] = f(locs).sum() / n
            for m, fm in enumerate(ladder):
                h_m[m, i] = fm(locs).sum() / n
    w = lam.masses / max(lam.total_mass, 1e-300)
    lam_h = float(w @ h)
    lam_hm = h_m @ w
    deficits = lam_h - lam_hm
    subseq = []
    pos = 0
    for j in range(1, n_lad + 1):
        while pos < n_lad and deficits[pos] > 2.0**-j:
            pos += 1
        if pos >= n_lad:
            break
        subseq.append(pos)
        pos += 1
    if not subseq:
        raise IntegrabilityError(
            "ladder means do not approach the L1 mean of the data; "
            "integrability of f against the exit law of the cloud is suspect"
        )
    k0 = np.zeros(n_pts)
    if k_controls is not None:
        for m, km in enumerate(k_controls):
            if km is not None:
                k0 += 2.0 ** -(m + 1) * np.asarray(km(pts), dtype=float)
    l_vals = np.sum(h[None, :] - h_m[subseq], axis=0)
    return {
        "h_values": h,
        "ladder_values": h_m,
        "lambda_h": lam_h,
        "lambda_ladder": lam_hm.tolist(),
        "subsequence": subseq,
        "k0_values": k0,
        "l_values": l_vals,
        "k_values": k0 + l_vals,
        "exit_fractions": exited,
    }


@dataclass(frozen=True)
class SequenceRecord:
    sequence_id: int
    boundary_point: np.ndarray
    h_values: np.ndarray
    k_values: np.ndarray
    limsup_k: float
    branch: str  # "c1" | "c2"
    verdict: str


@dataclass(frozen=True)
class ControlReport:
    records: tuple
    all_pass: bool


def controlled_convergence_check(
    h_eval: Callable[[np.ndarray], np.ndarray],
    f_eval: Callable[[np.ndarray], np.ndarray],
    k_eval: Callable[[np.ndarray], np.ndarray],
    V0_membership: Callable[[np.ndarray], np.ndarray],
    sequences: list[np.ndarray],
    boundary_points: list[np.ndarray],
    tol: float = 1e-2,
    k_cap: float = 1e6,
    tail: int = 3,
) -> ControlReport:
    """Classify each approach sequence by the control k.

    Bounded-control branch (limsup of k along the tail below k_cap): the
    tail of h must reach f at the limit point within tol.  Exploding branch:
    the tail of h/(1+k) must reach 0 within tol.
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
        limsup_k = float(np.max(kv[-tail:]))
        if limsup_k < k_cap:
            branch = "c1"
            fy = float(f_eval(y[None, :])[0])
            ok = abs(hv[-1] - fy) <= tol
        else:
            branch = "c2"
            ratio = hv / (1.0 + kv)
            ok = abs(ratio[-1]) <= tol
        records.append(
            SequenceRecord(
                sequence_id=sid,
                boundary_point=y,
                h_values=hv,
                k_values=kv,
                limsup_k=limsup_k,
                branch=branch,
                verdict="pass" if ok else "fail",
            )
        )
    return ControlReport(
        records=tuple(records), all_pass=all(r.verdict == "pass" for r in records)
    )


def majorant_stability_check(
    h_eval,
    f_eval,
    k_eval,
    V0_membership,
    sequences,
    boundary_points,
    majorant_factors=(2.0,),
    tol: float = 1e-2,
    k_cap: float = 1e6,
) -> dict:
    """A pass must survive replacing k by alpha*k or any pointwise majorant."""
    base = controlled_convergence_check(
        h_eval, f_eval, k_eval, V0_membership, sequences, boundary_points, tol, k_cap
    )
    stable = True
    variants = []
    for a in majorant_factors:
        rep = controlled_convergence_check(
            h_eval,
            f_eval,
            lambda xs, a=a: a * np.asarray(k_eval(xs), dtype=float),
            V0_membership,
            sequences,
            boundary_points,
            tol,
            k_cap,
        )
        variants.append(rep)
        for r0, r1 in zip(base.records, rep.records):
            if r0.verdict == "pass" and r1.verdict == "fail":
                stable = False
    return {"base": base, "variants": variants, "stable": stable}
