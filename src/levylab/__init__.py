"""Monte Carlo laboratory for truncated infinite-dimensional Levy processes.

A Hilbert-Schmidt triple is truncated to N pairing coordinates; Gaussian
and compound-Poisson increment laws are sampled exactly, and the classical
potential-theoretic objects (resolvents, reduced functions, capacities,
balayage, stochastic Dirichlet solutions) are estimated with confidence
bands and three-valued verdicts.
"""

__version__ = "0.1.0"

from .measures import (
    DEFAULT_CONFIDENCE,
    InstabilityError,
    JumpMeasure,
    LevyTriplet,
    McEstimate,
    PreconditionError,
    brownian_triplet,
    poisson_example_space,
    poisson_example_triplet,
    sample_increments,
)
from .rng import substream
from .space import (
    GrowthBasis,
    SpaceModel,
    build_growth_basis,
    canonical_x,
    make_space,
)

__all__ = [
    "GrowthBasis",
    "DEFAULT_CONFIDENCE",
    "InstabilityError",
    "JumpMeasure",
    "LevyTriplet",
    "McEstimate",
    "PreconditionError",
    "SpaceModel",
    "brownian_triplet",
    "build_growth_basis",
    "canonical_x",
    "make_space",
    "poisson_example_space",
    "poisson_example_triplet",
    "sample_increments",
    "substream",
    "__version__",
]
