"""Compact Lyapunov norms and the exact-resolvent estimate of U_1 q_x^2.

Two kinds of norm:

  gaussian   q_x(z)^2 = sum_n 2^n ||Q_{n+1} z - Q_n z||_E^2 + g(z)^2
  levy       q_x(z)^2 = sum_n a_n lambda_n c_n^2            + g(z)^2

with g(z) = sum_n 2^(-n/2) |<e_n^x, z>| over the fast-growth family, Q_n a
projection subsequence certified deterministically, and a_n nondecreasing
coefficients with sum a_n lambda_n < infinity.

The resolvent value v_0(z) = U_1 q_x^2 (z) is sampled exactly by exponential
time randomization: v_0(z) = E[q_x^2(z + Z_T)], T ~ Exp(1).  No quadrature,
no bias; the only error is statistical.
"""

from dataclasses import dataclass

import numpy as np

from .measures import (
    DEFAULT_CONFIDENCE,
    InstabilityError,
    LevyTriplet,
    McEstimate,
    sample_increments,
)
from .space import GrowthBasis, SpaceModel


def select_subsequence(model: SpaceModel, depth: int) -> list[int]:
    """Minimal strictly increasing m_1 < ... < m_depth with, at each level n,

        sqrt(lambda_{m+1}) <= 2^-n          (operator-norm certificate)
        sum_{k>m} lambda_k <= 8^-n          (Chebyshev tail certificate, t<=1)

    Tails are taken against the weight generator formula when one is known,
    so the certificates are those of the untruncated sequence.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    out: list[int] = []
    m = 0
    for n in range(1, depth + 1):
        m = max(m + 1, 1) if out else 1
        while m <= model.dim and not (
            np.sqrt(model.weight_after(m)) <= 2.0**-n
            and model.weight_tail(m) <= 8.0**-n
        ):
            m += 1
        if m > model.dim:
            raise ValueError(
                f"truncation dim={model.dim} cannot certify subsequence depth {n}"
            )
        out.append(m)
    return out


def _max_depth(model: SpaceModel) -> int:
    depth = 0
    try:
        while True:
            select_subsequence(model, depth + 1)
            depth += 1
    except ValueError:
        return depth


@dataclass(frozen=True)
class LyapunovNorm:
    """Evaluator for q_x with its certified coefficient data.

    Both kinds reduce the first sum to one diagonal form, sum_j coef_j c_j^2:
    coef_j = 2^n lambda_j on the certified block n (m_n < j <= m_{n+1},
    m_0 = 0; the remainder beyond the last m_n is block depth) for the
    gaussian kind, and coef_j = a_j lambda_j for the levy kind.
    """

    kind: str  # "gaussian" | "levy"
    model: SpaceModel
    growth_basis: GrowthBasis
    coef: np.ndarray


def gaussian_norm(
    model: SpaceModel, growth_basis: GrowthBasis, depth: int | None = None
) -> LyapunovNorm:
    depth = _max_depth(model) if depth is None else depth
    bounds = (0, *select_subsequence(model, depth), model.dim)
    dyadic = np.repeat(2.0 ** np.arange(len(bounds) - 1), np.diff(bounds))
    return LyapunovNorm("gaussian", model, growth_basis, dyadic * model.weights)


def levy_norm(model: SpaceModel, growth_basis: GrowthBasis, alphas="2^n") -> LyapunovNorm:
    if isinstance(alphas, str):
        if alphas != "2^n":
            raise ValueError(f"unknown alpha formula {alphas!r}")
        a = 2.0 ** np.arange(1, model.dim + 1)
    else:
        a = np.asarray(alphas, dtype=float)
        if a.shape != (model.dim,):
            raise ValueError("alphas must match the model dimension")
    if np.any(np.diff(a) < 0) or np.any(a <= 0):
        raise ValueError("alphas must be positive and nondecreasing")
    if not np.isfinite((a * model.weights).sum()):
        raise ValueError("sum alpha_n lambda_n must be finite")
    return LyapunovNorm("levy", model, growth_basis, a * model.weights)


def _growth_sum(norm: LyapunovNorm, z: np.ndarray) -> np.ndarray:
    pair = norm.growth_basis.pairings(z)
    np.abs(pair, out=pair)  # in place: a batch holds one (rows, depth) array
    w = 2.0 ** (-0.5 * np.arange(1, norm.growth_basis.depth + 1))
    return pair @ w


def q_x_eval(norm: LyapunovNorm, z: np.ndarray) -> np.ndarray:
    """q_x at a point or a batch (..., N) of points; exact at truncation.
    The first sum is one pass over the batch, (z * z) @ norm.coef."""
    z = np.asarray(z, dtype=float)
    return np.sqrt((z * z) @ norm.coef + _growth_sum(norm, z) ** 2)


def _check_shrinking(samples: np.ndarray, what: str) -> None:
    half = samples[: samples.size // 2]
    se_half = half.std(ddof=1) / np.sqrt(half.size)
    se_full = samples.std(ddof=1) / np.sqrt(samples.size)
    if se_full > 0.95 * se_half + 1e-12:
        raise InstabilityError(
            f"{what}: stderr not shrinking; integrability against the "
            "increment law is suspect (weak second-moment bound check)"
        )


def v0_estimate(
    norm: LyapunovNorm,
    triplet: LevyTriplet,
    z: np.ndarray,
    n: int,
    rng: np.random.Generator,
    confidence: float = DEFAULT_CONFIDENCE,
) -> McEstimate:
    """v_0(z) = E[q_x^2(z + Z_T)], T ~ Exp(1): the exact U_1 q_x^2 sample."""
    t = rng.exponential(1.0, size=n)
    incr = sample_increments(triplet, t, n, rng)
    vals = q_x_eval(norm, np.asarray(z) + incr) ** 2
    _check_shrinking(vals, "v0_estimate")
    return McEstimate.from_samples(vals, confidence)


def qx_square_mean(
    norm: LyapunovNorm,
    triplet: LevyTriplet,
    t: float,
    n: int,
    rng: np.random.Generator,
    confidence: float = DEFAULT_CONFIDENCE,
) -> McEstimate:
    """Estimate of the q_x^2 mass of the increment law at time t."""
    incr = sample_increments(triplet, t, n, rng)
    return McEstimate.from_samples(q_x_eval(norm, incr) ** 2, confidence)


def moment_constant_estimate(
    norm: LyapunovNorm,
    triplet: LevyTriplet,
    t_grid,
    n: int,
    rng: np.random.Generator,
) -> float:
    """C_tilde with E q_x^2(Z_t) <= C_tilde (1 + t^2) over the time grid."""
    best = 0.0
    for t in t_grid:
        est = qx_square_mean(norm, triplet, t, n, rng)
        best = max(best, est.mean / (1.0 + t**2))
    return best

