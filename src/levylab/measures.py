"""Increment laws of the truncated Levy semigroup and their moment checks.

The sampled law at time t is

    Z_t = t*b + sqrt(t)*G + sum_{i <= Poisson(t*intensity)} J_i,

with G a diagonal Gaussian in pairing coordinates and J the jump law of a
finite-intensity compound Poisson part.  Small jumps are truncated away and
their compensator is folded into the effective drift b, so only the law of
Z_t is represented, which is all the downstream estimators consume.  A
reader of a few coordinates draws them from the triplet's marginal law on
the read ones it moves plus the jump support (`sample_read`).

Every stochastic operation returns an McEstimate; assertions on estimates
yield three-valued verdicts (pass / fail / inconclusive).
"""

from dataclasses import dataclass, replace
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .space import PreconditionError, SpaceModel

DEFAULT_CONFIDENCE = 0.999
DEFAULT_ATOL = 1e-9


class InstabilityError(RuntimeError):
    """A Monte Carlo estimate failed its convergence self-check."""


def z_value(confidence: float) -> float:
    """Two-sided normal quantile for the given confidence level."""
    return NormalDist().inv_cdf(0.5 * (1.0 + confidence))


# half-width of every band, in standard errors: the one level all estimates,
# verdicts and diagnostics use (z ~ 3.29)
BAND_Z = z_value(DEFAULT_CONFIDENCE)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error.

    The verdict rule: pass when the target sits inside the band of
    DEFAULT_CONFIDENCE (BAND_Z standard errors), fail when it is more than
    three bands away, inconclusive in between.
    """

    mean: float
    stderr: float
    n_samples: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "McEstimate":
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        mean = float(samples.mean())
        stderr = float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return cls(mean=mean, stderr=stderr, n_samples=n)

    # -- three-valued assertions ------------------------------------------

    def _classify(self, gap: float, atol: float) -> str:
        band = BAND_Z * self.stderr
        if gap <= band + atol:
            return "pass"
        if gap > 3.0 * band + atol:
            return "fail"
        return "inconclusive"

    def verdict(self, target: float, atol: float = DEFAULT_ATOL) -> str:
        return self._classify(abs(self.mean - target), atol)

    def verdict_at_least(self, bound: float) -> str:
        return self._classify(bound - self.mean, DEFAULT_ATOL)

    def verdict_at_most(self, bound: float) -> str:
        return self._classify(self.mean - bound, DEFAULT_ATOL)


@dataclass(frozen=True)
class JumpMeasure:
    """Finite-intensity jump law: intensity plus a named jump distribution.

    kinds:
      "pointmass"  uniform mixture of atoms (the rows of `atoms`)
      "poisson01"  embedded Dirac mass at a uniform point of (0,1) in the
                   sine-basis realization of L^2(0,1) in H^-1; coordinate n
                   of delta_u is sqrt(2)*sin(n*pi*u)
    """

    intensity: float
    kind: str
    atoms: np.ndarray | None = None

    def __post_init__(self):
        if self.intensity <= 0:
            raise ValueError("jump intensity must be positive")
        if self.kind == "pointmass":
            atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
            object.__setattr__(self, "atoms", atoms)
            if np.any(np.all(atoms == 0.0, axis=1)):
                raise ValueError("zero jumps are rejected: M({0}) = 0")
        elif self.kind != "poisson01":
            raise ValueError(f"unknown jump kind {self.kind!r}")

    @cached_property
    def probs(self) -> np.ndarray:
        """The atoms' equal weights.  The draw passes them to `rng.choice`
        as `p`, which consumes the stream differently from a draw without
        `p`, so every jump keeps its value."""
        return np.full(self.atoms.shape[0], 1.0 / self.atoms.shape[0])

    def support(self, dim: int) -> np.ndarray:
        """0-based coordinates a jump can move: the nonzero atom columns for
        "pointmass", every coordinate for "poisson01"."""
        if self.kind == "pointmass":
            return np.flatnonzero(np.any(self.atoms != 0.0, axis=0))
        return np.arange(dim)

    def sample(self, n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "pointmass":
            idx = rng.choice(self.atoms.shape[0], size=n, p=self.probs)
            return self.atoms[idx]
        u = rng.uniform(0.0, 1.0, size=n)
        k = np.arange(1, dim + 1)
        return np.sqrt(2.0) * np.sin(np.pi * np.outer(u, k))

    # closed-form jump moments against a fixed functional xi (H coordinates)

    def pairing_mean(self, xi: np.ndarray) -> float:
        """E<xi, J> for a single jump."""
        xi = np.asarray(xi, dtype=float)
        if self.kind == "pointmass":
            return float(self.probs @ (self.atoms @ xi))
        k = np.arange(1, xi.size + 1)
        # integral of sqrt(2) sin(k pi u) over (0,1)
        coef = np.sqrt(2.0) * (1.0 - (-1.0) ** k) / (k * np.pi)
        return float(xi @ coef)

    def pairing_second_moment(self, xi: np.ndarray) -> float:
        """E<xi, J>^2 for a single jump."""
        xi = np.asarray(xi, dtype=float)
        if self.kind == "pointmass":
            return float(self.probs @ (self.atoms @ xi) ** 2)
        # Parseval: xi is a finite sine combination, so int_0^1 xi(u)^2 du
        return float(xi @ xi)

    def mean_e_norm2(self, model: SpaceModel) -> float:
        """E ||J||_E^2, the second-E-moment certificate of the measure."""
        if self.kind == "pointmass":
            return float(self.probs @ model.e_norm2(self.atoms))
        return float(model.weights.sum())  # E sum lambda_n 2 sin^2 = sum lambda_n


@dataclass(frozen=True)
class LevyTriplet:
    """Effective drift, diagonal Gaussian part, optional compound Poisson part.

    gaussian_diag holds the variance rate of each pairing coordinate: the
    unit-H cylinder Gaussian of the Brownian case is all-ones, matching the
    variance identity t|l|^2 + l^2(z).
    """

    model: SpaceModel
    drift: np.ndarray
    gaussian_diag: np.ndarray
    jumps: JumpMeasure | None = None

    def __post_init__(self):
        d = np.asarray(self.drift, dtype=float)
        g = np.asarray(self.gaussian_diag, dtype=float)
        if d.shape != (self.model.dim,) or g.shape != (self.model.dim,):
            raise ValueError("drift and gaussian_diag must match the model dimension")
        if np.any(g < 0):
            raise ValueError("gaussian variances must be nonnegative")
        object.__setattr__(self, "drift", d)
        object.__setattr__(self, "gaussian_diag", g)
        if self.jumps is not None:
            if not np.isfinite(self.jumps.intensity * self.jumps.mean_e_norm2(self.model)):
                raise ValueError("jump measure must have finite second E-moment")

    @property
    def is_continuous(self) -> bool:
        return self.jumps is None

    @cached_property
    def unit_gaussian(self) -> bool:
        """Every variance rate is 1, so the Gaussian part scales by sqrt(t)."""
        return bool(np.all(self.gaussian_diag == 1.0))

    @cached_property
    def gaussian_coords(self) -> np.ndarray:
        """0-based coordinates with a positive variance rate, the only ones
        that draw normals."""
        return np.flatnonzero(self.gaussian_diag > 0)

    @cached_property
    def drift_is_noop(self) -> bool:
        """The drift is zero, so the t*b term is skipped."""
        return not self.drift.any()

    @property
    def is_pure_unit_gaussian(self) -> bool:
        return self.jumps is None and self.drift_is_noop and self.unit_gaussian

    def carried(self, read) -> np.ndarray:
        """The columns (0-based, increasing) a reader of the coordinates `read`
        needs drawn: the read ones the law moves (g > 0 or b != 0) and the
        whole jump support.  Any other column keeps its start value."""
        keep = np.zeros(self.model.dim, dtype=bool)
        keep[np.asarray(read, dtype=int)] = True
        keep &= (self.gaussian_diag > 0) | (self.drift != 0)
        if self.jumps is not None:
            keep[self.jumps.support(self.model.dim)] = True
        return np.flatnonzero(keep)

    def marginal(self, cols) -> "LevyTriplet":
        """The law of the coordinates `cols` (0-based, increasing) alone, its
        linear image (Sato 1999, section 11).  `cols` holds the whole jump
        support, whose atoms come along restricted, or none of it."""
        cols = np.asarray(cols, dtype=int)
        if np.array_equal(cols, np.arange(self.model.dim)):
            return self
        jumps = self.jumps
        if jumps is not None:
            inside = np.isin(jumps.support(self.model.dim), cols)
            if inside.any() and not inside.all():
                raise PreconditionError("a marginal must hold all of the jump support or none")
            jumps = replace(jumps, atoms=jumps.atoms[:, cols]) if inside.any() else None
        model = SpaceModel(self.model.weights[cols])
        return LevyTriplet(model, self.drift[cols], self.gaussian_diag[cols], jumps)


def brownian_triplet(model: SpaceModel) -> LevyTriplet:
    """The unit-H cylinder Brownian case."""
    return LevyTriplet(model, np.zeros(model.dim), np.ones(model.dim))


def poisson_example_space(dim: int) -> SpaceModel:
    """Spectral realization of L^2(0,1) in H^-1: lambda_n = 1/(1 + n^2 pi^2)."""
    n = np.arange(1, dim + 1)
    return SpaceModel(1.0 / (1.0 + (n * np.pi) ** 2))


def poisson_example_triplet(dim: int) -> LevyTriplet:
    """Poisson point measure on (0,1) embedded via the sine basis."""
    model = poisson_example_space(dim)
    return LevyTriplet(
        model,
        np.zeros(dim),
        np.zeros(dim),
        JumpMeasure(intensity=1.0, kind="poisson01"),
    )


def sample_increments(
    triplet: LevyTriplet, t, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n independent draws of Z_t; t may be a scalar or a length-n array."""
    t = np.asarray(t, dtype=float)
    if (t <= 0).any():
        raise ValueError("time must be positive")
    dim = triplet.model.dim
    # a scalar time broadcasts without building per-row copies of it
    tc = t if t.ndim == 0 else np.broadcast_to(t, (n,))[:, None]
    # normals only where the variance is positive; the other columns start
    # at +0.0.  The scaling is in place and builds no (n, dim) temporary
    pos = triplet.gaussian_coords
    if pos.size == dim:
        out = gauss = rng.standard_normal((n, dim))
    else:
        out, gauss = np.zeros((n, dim)), rng.standard_normal((n, pos.size))
    gauss *= np.sqrt(tc)
    if not triplet.unit_gaussian:
        gauss *= np.sqrt(triplet.gaussian_diag[pos])
    if gauss is not out:
        out[:, pos] = gauss
    if not triplet.drift_is_noop:
        out += tc * triplet.drift
    if triplet.jumps is not None:
        counts = rng.poisson(np.broadcast_to(t, (n,)) * triplet.jumps.intensity)
        total = int(counts.sum())
        if total:
            draws = triplet.jumps.sample(total, dim, rng)
            # rank by rank, the k-th jump of every row with more than k: each
            # row adds its jumps in draw order, as np.add.at does, at a
            # fraction of its cost
            first = np.cumsum(counts) - counts
            rows = np.flatnonzero(counts)
            for k in range(int(counts.max())):
                rows = rows[counts[rows] > k]
                out[rows] += draws[first[rows] + k]
    return out


def sample_read(triplet: LevyTriplet, read, start, t, n: int, rng: np.random.Generator):
    """n draws (n, len(read)) of start + Z_t on the coordinates `read`
    (0-based, increasing) alone, from the marginal on the columns they need
    (`LevyTriplet.carried`); a column the law does not move keeps its start."""
    read = np.asarray(read, dtype=int)
    pts = np.broadcast_to(np.asarray(start, dtype=float)[..., read], (n, read.size)).copy()
    cols = triplet.carried(read)
    if cols.size:
        incr = sample_increments(triplet.marginal(cols), t, n, rng)
        pts[:, np.isin(read, cols)] += incr[:, np.isin(cols, read)]
    return pts


def pairing_second_moment(
    triplet: LevyTriplet,
    xi: np.ndarray,
    t: float,
    n: int,
    rng: np.random.Generator,
    start: np.ndarray | None = None,
) -> McEstimate:
    """Monte Carlo estimate of the second pairing moment E<xi, z + Z_t>^2
    from the start z (0 by default), drawn on xi's support (`sample_read`)."""
    xi = np.asarray(xi, dtype=float)
    read = np.flatnonzero(xi)
    z = np.zeros(xi.size) if start is None else start
    vals = (sample_read(triplet, read, z, t, n, rng) @ xi[read]) ** 2
    return McEstimate.from_samples(vals)


def pairing_second_moment_target(triplet: LevyTriplet, xi: np.ndarray, t: float) -> float:
    """Closed form of E<xi, Z_t>^2 in the effective-drift parametrization:

        t^2 (<xi,b> + L*E<xi,J>)^2 + t (sum xi_n^2 r_n + L*E<xi,J>^2).
    """
    xi = np.asarray(xi, dtype=float)
    mean_rate = float(xi @ triplet.drift)
    var_rate = float(xi**2 @ triplet.gaussian_diag)
    if triplet.jumps is not None:
        mean_rate += triplet.jumps.intensity * triplet.jumps.pairing_mean(xi)
        var_rate += triplet.jumps.intensity * triplet.jumps.pairing_second_moment(xi)
    return t**2 * mean_rate**2 + t * var_rate

