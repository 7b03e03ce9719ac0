"""Triple construction, projections, and the fast-growing basis."""

import numpy as np
import pytest

from levylab.space import (
    GrowthBasis,
    ConstructionError,
    SpaceModel,
    build_growth_basis,
    canonical_x,
    make_space,
)


def test_default_weights():
    model = make_space(8)
    assert model.dim == 8
    np.testing.assert_allclose(model.weights, 4.0 ** -np.arange(1, 9))


def test_weight_validation():
    with pytest.raises(ValueError):
        SpaceModel(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        SpaceModel(np.array([0.25, 0.5]))  # increasing
    with pytest.raises(ValueError):
        SpaceModel(np.array([]))


def test_norms_basis_vector():
    model = make_space(32)
    e1 = model.basis_vector(1)
    assert model.h_norm2(e1) == 1.0
    assert model.e_norm(e1) == pytest.approx(0.5)  # sqrt(lambda_1) = sqrt(1/4)


def test_canonical_x_norms():
    model = make_space(32)
    x = canonical_x(model)
    # E-norm^2 = sum 4^-n 2^n = 1 - 2^-32
    assert model.e_norm2(x) == pytest.approx(1.0 - 2.0**-32)
    # truncated H-norm^2 = sum 2^n = 2^33 - 2: the off-H divergence
    assert model.h_norm2(x) == pytest.approx(2.0**33 - 2.0)


def test_weight_tail_generator():
    model = make_space(32)
    assert model.weight_tail(3) == pytest.approx(4.0**-3 / 3.0)
    assert model.weight_after(3) == pytest.approx(4.0**-4)
    explicit = SpaceModel(4.0 ** -np.arange(1, 33))
    assert explicit.weight_tail(32) == 0.0


def test_projection_contracts_norms():
    model = make_space(16)
    rng = np.random.default_rng(0)
    z = rng.standard_normal((20, 16))
    for n in (1, 5, 16):
        zp = z.copy()
        zp[:, n:] = 0.0  # the coordinate projection P_n
        assert np.all(model.e_norm2(zp) <= model.e_norm2(z) + 1e-12)
        assert np.all(model.h_norm2(zp) <= model.h_norm2(z) + 1e-12)


@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4)])
def test_e_norm2_one_pass_matches_elementwise_sum(shape):
    model = make_space(16)
    z = np.random.default_rng(len(shape)).standard_normal(shape + (16,)) * 3.0
    ref = np.sum(model.weights * z**2, axis=-1)
    np.testing.assert_allclose(model.e_norm2(z), ref, rtol=1e-12, atol=0)


def test_growth_basis_canonical_identity_basis():
    model = make_space(32)
    x = canonical_x(model)
    datum = build_growth_basis(model, x)
    assert datum.depth == 32
    np.testing.assert_allclose(datum.basis, np.eye(32))
    np.testing.assert_allclose(datum.basis @ x, np.sqrt(2.0) ** np.arange(1, 33))


def test_growth_basis_growth_and_orthonormality_generic():
    model = make_space(32)
    rng = np.random.default_rng(1)
    x = canonical_x(model) * (1.0 + 0.3 * rng.random(32))
    datum = build_growth_basis(model, x)
    gram = datum.basis @ datum.basis.T
    np.testing.assert_allclose(gram, np.eye(datum.depth), atol=1e-12)
    lower = np.sqrt(2.0) ** np.arange(1, datum.depth + 1)
    pair = datum.pairings(x)
    assert np.all(pair >= lower - 1e-9)
    np.testing.assert_allclose(pair, datum.basis @ x)


def test_growth_basis_rejects_near_H_point():
    model = make_space(32)
    x = np.zeros(32)
    x[0] = 1.0  # |x|_H^2 = 1, far below the off-H threshold
    with pytest.raises(ConstructionError):
        build_growth_basis(model, x)


def test_growth_basis_threshold_is_100():
    """The off-H certificate needs |x|_H^2 >= 100 at truncation."""
    model = make_space(8)
    with pytest.raises(ConstructionError):
        build_growth_basis(model, np.full(8, 3.5))  # |x|_H^2 = 98
    datum = build_growth_basis(model, np.full(8, 3.6))  # |x|_H^2 = 103.68
    assert isinstance(datum, GrowthBasis)
    assert datum.depth >= 1
