"""Truncated Hilbert-Schmidt triple E' in H in E.

Points are stored as pairing coordinates c_n = <e_n, z> of an H-orthonormal
basis {e_n} lying in E'.  One representation carries all three norms:

    |z|_H^2  = sum c_n^2,        ||z||_E^2 = sum lambda_n c_n^2,

with summable positive weights lambda_n.  Vectors are plain numpy arrays of
shape (..., N); batch axes broadcast through every operation.  Diagonal
quadratic forms such as the E-norm are one product and one matrix-vector
contraction, (z * z) @ weights, not a sum over a weighted copy.
"""

from dataclasses import dataclass

import numpy as np


class PreconditionError(ValueError):
    """The operation was called outside its stated hypotheses (e.g. the point
    of a growth basis is too close to H)."""


@dataclass(frozen=True)
class SpaceModel:
    """Truncation dimension plus the weight sequence defining the triple."""

    weights: np.ndarray
    generator: str | None = None  # formula name, if the weights came from one

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        if not np.all(w > 0):
            raise ValueError("weights must be strictly positive")
        if np.any(np.diff(w) > 0):
            raise ValueError("weights must be nonincreasing")

    @property
    def dim(self) -> int:
        return int(self.weights.size)

    def e_norm2(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z)
        return (z * z) @ self.weights

    def h_norm2(self, z: np.ndarray) -> np.ndarray:
        return np.sum(np.asarray(z) ** 2, axis=-1)

    def weight_tail(self, m: int) -> float:
        """sum_{k > m} lambda_k against the generator formula when known.

        With an explicit weight array the tail beyond the truncation is zero.
        """
        if self.generator == "4^-n":
            return (4.0 ** -m) / 3.0
        return float(self.weights[m:].sum())

    def weight_after(self, m: int) -> float:
        """lambda_{m+1} against the generator formula when known."""
        if self.generator == "4^-n":
            return 4.0 ** -(m + 1)
        return float(self.weights[m]) if m < self.dim else 0.0

    def basis_vector(self, n: int) -> np.ndarray:
        e = np.zeros(self.dim)
        e[n - 1] = 1.0
        return e


def in_box(z, lo, hi, closed):
    """Whether lo_j <= z_j <= hi_j (closed) or lo_j < z_j < hi_j (open) in
    every column j < lo.size of z (..., N); True everywhere for an empty box.
    One column at a time: a reduction over a short last axis, such as
    np.all(..., axis=-1), costs tens of ns a row."""
    above, below = (np.greater_equal, np.less_equal) if closed else (np.greater, np.less)
    m = np.ones(z.shape[:-1], dtype=bool)
    for j, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        m &= above(z[..., j], a)
        m &= below(z[..., j], b)
    return m


def make_space(dim: int) -> SpaceModel:
    """The triple with weights lambda_n = 4^-n, truncated to `dim` coordinates."""
    return SpaceModel(4.0 ** -np.arange(1, dim + 1), generator="4^-n")


def canonical_x(model: SpaceModel) -> np.ndarray:
    """The distinguished off-H point with coordinates c_n = 2^(n/2).

    With weights 4^-n its E-norm stays bounded while the H-norm diverges,
    and the identity basis realizes the growth bound with equality.
    """
    return np.sqrt(2.0) ** np.arange(1, model.dim + 1)


@dataclass(frozen=True)
class GrowthBasis:
    """H-orthonormal family of pairings that grow fast on an off-H point x:
    <e_n^x, x> >= 2^(n/2)."""

    basis: np.ndarray  # (K, N), rows H-orthonormal, rows lie in E'

    @property
    def depth(self) -> int:
        return int(self.basis.shape[0])

    def pairings(self, z: np.ndarray) -> np.ndarray:
        """<e_n^x, z> for n = 1..K; batch axes broadcast."""
        return np.asarray(z) @ self.basis.T


# |x|_H^2 at truncation below this is too close to H for a growth family
_H_NORM2_THRESHOLD = 100.0


def build_growth_basis(model: SpaceModel, x: np.ndarray) -> GrowthBasis:
    """Construct an H-orthonormal family with <e_n^x, x> >= 2^(n/2).

    Coordinates of x are consumed in consecutive blocks: block n is the
    shortest run of remaining coordinates whose H-mass reaches 2^(n/2), and
    e_n^x is the normalized restriction of x to that block.  Blocks have
    disjoint support, so orthonormality is structural, and each e_n^x is a
    finite coordinate combination, hence lies in E'.  For the canonical x
    (c_n = 2^(n/2)) every block is a single coordinate and the bound holds
    with equality.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError("x must be a coordinate vector of the model dimension")
    if model.h_norm2(x) < _H_NORM2_THRESHOLD:
        raise PreconditionError(
            f"truncated |x|_H^2 = {model.h_norm2(x):.3g} below the off-H "
            f"certificate threshold {_H_NORM2_THRESHOLD:.3g}"
        )
    rows = []
    lo = 0
    n = 1
    while lo < model.dim:
        need2 = 2.0 ** n  # (2^(n/2))^2
        acc = 0.0
        hi = lo
        while hi < model.dim and acc < need2:
            acc += x[hi] ** 2
            hi += 1
        if acc < need2:
            break
        e = np.zeros(model.dim)
        e[lo:hi] = x[lo:hi] / np.sqrt(acc)
        rows.append(e)
        lo = hi
        n += 1
    if not rows:
        raise PreconditionError(
            "growth deficit: no coordinate block of x reaches the required "
            "pairing 2^(1/2); x is too close to H at this truncation"
        )
    return GrowthBasis(np.array(rows))
