"""Monte Carlo action of the resolvent U_alpha.

U_alpha f(z) is represented exactly by an exponential random time:
(1/alpha) E[f(z + Z_T)], T ~ Exp(alpha).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import LevyTriplet, McEstimate, PreconditionError, sample_increments, sample_read


class BoundViolation(RuntimeError):
    """A test function exceeded its declared sup-norm certificate."""


@dataclass(frozen=True)
class TestFunction:
    """Bounded measurable map on E, or a cylinder function of the first
    `cylinder` coordinates, whose evaluator reads only those and so also
    takes points of those coordinates alone.  `bound` is a sup-norm
    certificate checked on every batch the function is applied to; None
    admits an unbounded function under a caller-declared moment envelope.
    Dirichlet boundary data are test functions too (`dirichlet.BoundaryData`)."""

    __test__ = False  # keep pytest from collecting the class by name

    evaluator: Callable[[np.ndarray], np.ndarray]
    bound: float | None = None
    cylinder: int | None = None
    name: str = ""

    def __call__(self, z: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.evaluator(np.asarray(z, dtype=float)), dtype=float)
        if self.bound is not None and vals.size:
            worst = float(np.max(np.abs(vals)))
            if worst > self.bound * (1.0 + 1e-12) + 1e-12:
                raise BoundViolation(
                    f"{self.name or 'test function'}: |f| reached {worst:.6g} "
                    f"above the certified bound {self.bound:.6g}"
                )
        return vals


def apply_Ualpha(
    triplet: LevyTriplet,
    f: TestFunction,
    alpha: float,
    z: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> McEstimate:
    """Estimate U_alpha f(z) via exponential time randomization."""
    if alpha <= 0:
        raise PreconditionError("alpha must be positive")
    t = rng.exponential(1.0 / alpha, size=n)
    incr = sample_increments(triplet, t, n, rng)
    return McEstimate.from_samples(f(np.asarray(z) + incr) / alpha)


def apply_Ualpha_projected(
    triplet: LevyTriplet,
    f: TestFunction,
    alpha: float,
    x: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> McEstimate:
    """U_alpha f(x) for a cylinder function f on its k = f.cylinder
    coordinates alone, by the same exponential randomization, drawn from
    the law's marginal on them (`sample_read`)."""
    k = f.cylinder
    if k is None:
        raise PreconditionError(f"{f.name or 'test function'} declares no cylinder")
    t = rng.exponential(1.0 / alpha, size=n)
    vals = f(sample_read(triplet, np.arange(k), x, t, n, rng)) / alpha
    return McEstimate.from_samples(vals)

