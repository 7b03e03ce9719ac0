"""Resolvent estimators and projection consistency."""

import numpy as np
import pytest

from levylab.measures import McEstimate, PreconditionError, brownian_triplet
from levylab.operators import (
    BoundViolation,
    TestFunction,
    apply_Ualpha,
    apply_Ualpha_projected,
)
from levylab.rng import substream
from levylab.space import make_space


@pytest.fixture(scope="module")
def setup():
    model = make_space(32)
    return model, brownian_triplet(model)


ONE = TestFunction(lambda z: np.ones(z.shape[:-1]), bound=1.0, name="one")


def test_constant_resolvent_exact(setup):
    model, triplet = setup
    for alpha in (0.5, 2.0):
        est = apply_Ualpha(triplet, ONE, alpha, np.zeros(32), 500, substream(1))
        assert est.mean == pytest.approx(1.0 / alpha)
        assert est.stderr == 0.0


def test_time_validation(setup):
    model, triplet = setup
    for alpha in (-1.0, 0.0):
        with pytest.raises(PreconditionError, match="alpha must be positive"):
            apply_Ualpha(triplet, ONE, alpha, np.zeros(32), 100, substream(0))


def test_bound_violation_detected(setup):
    model, triplet = setup
    liar = TestFunction(lambda z: z[..., 0], bound=1e-6, name="liar")
    with pytest.raises(BoundViolation):
        apply_Ualpha(triplet, liar, 0.2, np.zeros(32), 2000, substream(2))


def test_projection_identity_resolvent(setup):
    """Full resolvent of a cylinder function vs the k-dim estimate."""
    model, triplet = setup
    rng = substream(3, "proj")
    z = rng.standard_normal(32)
    for k in (1, 2, 3):
        f = TestFunction(
            lambda y, k=k: np.cos(np.sum(y[..., :k], axis=-1)),
            bound=1.0,
            cylinder=k,
        )
        for alpha in (0.5, 1.0, 2.0):
            full = apply_Ualpha(triplet, f, alpha, z, 40_000, rng)
            proj = apply_Ualpha_projected(triplet, f, alpha, z, 40_000, rng)
            diff = McEstimate(
                full.mean - proj.mean,
                float(np.hypot(full.stderr, proj.stderr)),
                full.n_samples,
            )
            assert diff.verdict(0.0) == "pass"


def test_projected_resolvent_gaussian_moment(setup):
    """k-dim second moment through the projected resolvent: for Brownian
    motion U_alpha of c1^2 at 0 is E[T]/alpha = 1/alpha^2."""
    model, triplet = setup
    rng = substream(4, "projU")
    alpha = 1.0 / 1.5
    f = TestFunction(lambda y: y[..., 0] ** 2, cylinder=1)
    est = apply_Ualpha_projected(triplet, f, alpha, np.zeros(32), 40_000, rng)
    assert est.verdict(1.0 / alpha**2) == "pass"


def test_projected_resolvent_needs_a_cylinder(setup):
    """The projected resolvent takes k from the function's cylinder, so a
    function that declares none is refused before any draw."""
    model, triplet = setup
    with pytest.raises(PreconditionError, match="one"):
        apply_Ualpha_projected(triplet, ONE, 1.0, np.zeros(32), 100, substream(5))
