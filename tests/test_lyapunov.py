"""Lyapunov norms, subsequence certificates, and resolvent bounds."""

import tracemalloc

import numpy as np
import pytest

from levylab.lyapunov import (
    gaussian_norm,
    levy_norm,
    moment_constant_estimate,
    q_x_eval,
    qx_square_mean,
    select_subsequence,
    v0_estimate,
)
from levylab.measures import JumpMeasure, LevyTriplet, brownian_triplet
from levylab.rng import substream
from levylab.space import build_growth_basis, canonical_x, make_space


@pytest.fixture(scope="module")
def gaussian_setup():
    model = make_space(32)
    growth_basis = build_growth_basis(model, canonical_x(model))
    return model, growth_basis, gaussian_norm(model, growth_basis)


@pytest.fixture(scope="module")
def levy_setup():
    model = make_space(32)
    growth_basis = build_growth_basis(model, canonical_x(model))
    return model, growth_basis, levy_norm(model, growth_basis)


def test_subsequence_certificates_hold():
    """Independent re-check of both defining inequalities per level."""
    model = make_space(32)
    seq = select_subsequence(model)[:4]
    assert seq == sorted(set(seq))
    for n, m in enumerate(seq, start=1):
        assert np.sqrt(model.weight_after(m)) <= 2.0**-n
        assert model.weight_tail(m) <= 8.0**-n
        # minimality: m - 1 fails at least one certificate (or collides)
        prev = seq[n - 2] if n >= 2 else 0
        if m - 1 > prev:
            assert (
                np.sqrt(model.weight_after(m - 1)) > 2.0**-n
                or model.weight_tail(m - 1) > 8.0**-n
            )


def test_subsequence_frozen_values():
    model = make_space(32)
    # enumeration oracle for weights 4^-n: tail after m is 4^-m/3
    assert select_subsequence(model)[:3] == [1, 3, 4]


def test_subsequence_ends_at_the_truncation():
    """The list is the deepest one certified: 5, 11 and 21 levels at N = 8,
    16 and 32, where no coordinate after the last m certifies the next
    level; one truncation's list starts every deeper one's."""
    seqs = {dim: select_subsequence(make_space(dim)) for dim in (1, 8, 16, 32)}
    assert {dim: len(seq) for dim, seq in seqs.items()} == {1: 1, 8: 5, 16: 11, 32: 21}
    for dim, seq in seqs.items():
        model, n = make_space(dim), len(seq) + 1
        for m in range(seq[-1] + 1, dim + 1):
            assert (
                np.sqrt(model.weight_after(m)) > 2.0**-n or model.weight_tail(m) > 8.0**-n
            )
    for short, long in zip(seqs.values(), list(seqs.values())[1:]):
        assert long[: len(short)] == short


def test_gaussian_norm_dominates_e_norm(gaussian_setup):
    """||z||_E <= sqrt(2) q_x(z) via the dyadic block telescoping."""
    model, _, norm = gaussian_setup
    rng = np.random.default_rng(2)
    z = rng.standard_normal((50, 32)) * 3.0
    q = q_x_eval(norm, z)
    assert np.all(np.sqrt(model.e_norm2(z)) <= np.sqrt(2.0) * q + 1e-12)


def test_gaussian_norm_bounded_on_H(gaussian_setup):
    """q_x(h) <= sqrt(3) |h|_H for the Gaussian construction."""
    model, _, norm = gaussian_setup
    rng = np.random.default_rng(3)
    h = rng.standard_normal((50, 32))
    q = q_x_eval(norm, h)
    assert np.all(q <= np.sqrt(3.0 * model.h_norm2(h)) + 1e-12)


def test_q_x_eval_gaussian_batch_memory(gaussian_setup):
    """One Gaussian q_x_eval at 1000 x 32 holds at most one pairing array:
    its tracemalloc peak stays below 1.5 times the input."""
    _, _, norm = gaussian_setup
    z = np.random.default_rng(0).standard_normal((1000, 32))
    q_x_eval(norm, z)
    tracemalloc.start()
    try:
        q_x_eval(norm, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * z.nbytes


def _q_x_elementwise(model, growth_basis, z, subseq=None, alphas=None):
    """q_x by the block-by-block elementwise sums of its definition."""
    w = model.weights
    if alphas is not None:
        first = np.sum(alphas * w * z**2, axis=-1)
    else:
        bounds = (0, *subseq)
        first = np.zeros(z.shape[:-1])
        for n in range(len(subseq)):
            lo, hi = bounds[n], bounds[n + 1]
            first = first + 2.0**n * np.sum(w[lo:hi] * z[..., lo:hi] ** 2, axis=-1)
        first = first + 2.0 ** len(subseq) * np.sum(w[subseq[-1]:] * z[..., subseq[-1]:] ** 2, axis=-1)
    g = np.abs(growth_basis.pairings(z)) @ 2.0 ** (-0.5 * np.arange(1, growth_basis.depth + 1))
    return np.sqrt(first + g**2)


@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4)])
def test_q_x_eval_one_pass_matches_block_sums(shape):
    """One coefficient vector gives the block sums of both kinds to 1e-12
    relative, for 1, 2 and 3 batch axes, at truncations whose certified
    subsequences have 5, 11 and 21 levels."""
    for dim in (8, 16, 32):
        model = make_space(dim)
        growth_basis = build_growth_basis(model, canonical_x(model))
        z = np.random.default_rng(len(shape)).standard_normal(shape + (dim,)) * 3.0
        subseq = select_subsequence(model)
        ref = _q_x_elementwise(model, growth_basis, z, subseq=subseq)
        got = q_x_eval(gaussian_norm(model, growth_basis), z)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
        ref = _q_x_elementwise(model, growth_basis, z, alphas=2.0 ** np.arange(1, dim + 1))
        got = q_x_eval(levy_norm(model, growth_basis), z)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def test_levy_norm_unit_value(levy_setup):
    """q(e_1)^2 = a_1 l_1 + (2^{-1/2})^2 = 1/2 + 1/2 = 1 exactly."""
    model, _, norm = levy_setup
    e1 = model.basis_vector(1)
    assert float(q_x_eval(norm, e1)) == pytest.approx(1.0, abs=1e-12)


def test_levy_norm_dominates_e_norm(levy_setup):
    model, _, norm = levy_setup
    rng = np.random.default_rng(4)
    z = rng.standard_normal((50, 32))
    assert np.all(np.sqrt(model.e_norm2(z)) <= q_x_eval(norm, z) + 1e-12)


def test_norm_axioms(levy_setup, gaussian_setup):
    for _, _, norm in (levy_setup, gaussian_setup):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(32)
        w = rng.standard_normal(32)
        qz, qw = float(q_x_eval(norm, z)), float(q_x_eval(norm, w))
        assert float(q_x_eval(norm, np.zeros(32))) == 0.0
        assert float(q_x_eval(norm, 2.5 * z)) == pytest.approx(2.5 * qz)
        assert float(q_x_eval(norm, z + w)) <= qz + qw + 1e-12


def test_v0_gaussian_lower_bound(gaussian_setup):
    model, _, norm = gaussian_setup
    triplet = brownian_triplet(model)
    rng = substream(9, "v0")
    for _ in range(3):
        z = rng.standard_normal(32)
        q2 = float(q_x_eval(norm, z)) ** 2
        v0 = v0_estimate(norm, triplet, z, 20_000, rng)
        assert v0.verdict_at_least(q2) == "pass"


def test_v0_gaussian_upper_bound(gaussian_setup):
    model, _, norm = gaussian_setup
    triplet = brownian_triplet(model)
    rng = substream(10, "v0u")
    mass = qx_square_mean(norm, triplet, 1.0, 20_000, rng)
    z = rng.standard_normal(32)
    q2 = float(q_x_eval(norm, z)) ** 2
    v0 = v0_estimate(norm, triplet, z, 20_000, rng)
    assert v0.verdict_at_most(2.0 * q2 + 2.0 * mass.mean) == "pass"


def test_levy_sandwich_bounds(levy_setup):
    model, _, norm = levy_setup
    atoms = np.zeros((1, 32))
    atoms[0, 0] = 1.0
    triplet = LevyTriplet(
        model,
        np.zeros(32),
        np.ones(32),
        JumpMeasure(intensity=0.5, kind="pointmass", atoms=atoms),
    )
    rng = substream(12, "sandwich")
    c_tilde = moment_constant_estimate(norm, triplet, (0.5, 1.0, 2.0), 20_000, rng)
    z = rng.standard_normal(32)
    q2 = float(q_x_eval(norm, z)) ** 2
    v0 = v0_estimate(norm, triplet, z, 20_000, rng)
    assert v0.verdict_at_least(0.5 * q2 - 3.0 * c_tilde) == "pass"
    assert v0.verdict_at_most(2.0 * q2 + 6.0 * c_tilde) == "pass"
