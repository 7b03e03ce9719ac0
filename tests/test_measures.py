"""Increment laws, jump measures, and the estimate/verdict machinery."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from levylab.measures import (
    JumpMeasure,
    LevyTriplet,
    McEstimate,
    PreconditionError,
    brownian_triplet,
    pairing_second_moment,
    pairing_second_moment_target,
    poisson_example_space,
    poisson_example_triplet,
    sample_increments,
    sample_read,
    z_value,
)
from levylab.rng import substream
from levylab.space import make_space


def test_verdict_trivial_cases():
    est = McEstimate(mean=1.0, stderr=0.1, n_samples=1000)
    assert est.verdict(1.0) == "pass"
    assert est.verdict(1.0 + 10 * 0.1 * 3.29) == "fail"
    # gap between 1 and 3 confidence bands
    assert est.verdict(1.0 + 2.0 * 0.1 * 3.3) == "inconclusive"


def test_nan_estimates_fail():
    """A NaN mean or stderr fails every verdict: no band holds a NaN gap."""
    for est, target in ((McEstimate(np.nan, 0.1, 100), 0.0), (McEstimate(0.0, np.nan, 100), 1.0)):
        assert est.verdict(target) == "fail"
        assert est.verdict_at_least(target) == "fail"
        assert est.verdict_at_most(target) == "fail"


def test_one_sided_verdicts():
    est = McEstimate(mean=1.0, stderr=0.01, n_samples=1000)
    assert est.verdict_at_least(0.5) == "pass"
    assert est.verdict_at_least(2.0) == "fail"
    assert est.verdict_at_most(2.0) == "pass"
    assert est.verdict_at_most(0.5) == "fail"


def test_z_value_matches_tabulated_quantiles():
    """Two-sided normal quantiles, to 16 significant digits."""
    table = {
        0.9: 1.6448536269514727,
        0.95: 1.9599639845400542,
        0.99: 2.5758293035489004,
        0.999: 3.2905267314919255,
    }
    for confidence, z in table.items():
        assert abs(z_value(confidence) - z) < 1e-12


def test_harness_import_leaves_scipy_out():
    """scipy is a test dependency only: the runtime import path avoids it."""
    src = str(Path(__import__("levylab").__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, levylab.harness; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_estimate_validation():
    with pytest.raises(ValueError):
        McEstimate(0.0, -1.0, 10)


LABELS = st.lists(st.one_of(st.text(max_size=6), st.integers(-5, 5)), max_size=3)


@given(seed=st.integers(0, 2**63), labels=LABELS, other=LABELS)
@settings(max_examples=60, deadline=None)
def test_substream_reproducible_and_label_keyed(seed, labels, other):
    draws = substream(seed, *labels).standard_normal(8)
    np.testing.assert_array_equal(draws, substream(seed, *labels).standard_normal(8))
    if [str(l) for l in labels] != [str(l) for l in other]:  # labels key by str()
        assert not np.array_equal(draws, substream(seed, *other).standard_normal(8))


def test_substream_streams_reproduce_and_are_uncorrelated():
    """The same key repeats its draws; two labels, or two seeds, give
    normals whose correlation over 10^5 pairs is within 5/sqrt(n) of 0."""
    n = 100_000
    a = substream(2024, "c1").standard_normal(n)
    np.testing.assert_array_equal(a, substream(2024, "c1").standard_normal(n))
    for other in (substream(2024, "c2"), substream(2025, "c1")):
        assert abs(np.corrcoef(a, other.standard_normal(n))[0, 1]) < 5 / np.sqrt(n)


def test_brownian_increments_deterministic():
    model = make_space(8)
    triplet = brownian_triplet(model)
    z1 = sample_increments(triplet, 1.0, 100, substream(7, "t"))
    z2 = sample_increments(triplet, 1.0, 100, substream(7, "t"))
    np.testing.assert_array_equal(z1, z2)
    z3 = sample_increments(triplet, 1.0, 100, substream(8, "t"))
    assert not np.array_equal(z1, z3)


def _general_increments(triplet, t, n, rng):
    """(G * sqrt(t)) * sqrt(g) + t * b plus the jumps, with no term skipped;
    G holds normals in the positive-variance columns and zeros elsewhere."""
    t = np.asarray(t, dtype=float)
    tc = t if t.ndim == 0 else t[:, None]
    pos = np.flatnonzero(triplet.gaussian_diag > 0)
    out = np.zeros((n, triplet.model.dim))
    out[:, pos] = rng.standard_normal((n, pos.size))
    out = out * np.sqrt(tc) * np.sqrt(triplet.gaussian_diag) + tc * triplet.drift
    if triplet.jumps is not None:
        counts = rng.poisson(np.broadcast_to(t, (n,)) * triplet.jumps.intensity)
        if counts.sum():
            draws = triplet.jumps.sample(int(counts.sum()), triplet.model.dim, rng)
            np.add.at(out, np.repeat(np.arange(n), counts), draws)
    return out


@pytest.mark.parametrize("jumps", [False, True])
@pytest.mark.parametrize("per_row", [False, True])
@pytest.mark.parametrize("drift", [False, True])
@pytest.mark.parametrize("gauss", ["unit", "scaled", "degenerate"])
def test_sample_increments_skips_change_no_bits(gauss, drift, per_row, jumps):
    """Scaling a unit Gaussian part by sqrt(t) alone, leaving out a zero
    drift and drawing no normals for zero variances give the bits of the
    general formula; a zero-variance column without drift or jumps is +0.0."""
    model = make_space(6)
    g = {
        "unit": np.ones(6),
        "scaled": np.array([0.5, 2.0, 1.0, 3.0, 0.25, 1.5]),
        "degenerate": np.array([1.0, 0.5, 0.0, 0.0, 1.0, 2.0]),
    }[gauss]
    b = np.array([0.3, -1.0, 0.0, 2.0, 0.0, 0.1]) if drift else np.zeros(6)
    atoms = np.zeros((2, 6))
    atoms[:, :2] = [(0.6, 0.5), (-0.6, -0.5)]
    jump = JumpMeasure(intensity=3.0, kind="pointmass", atoms=atoms) if jumps else None
    triplet = LevyTriplet(model, b, g, jump)
    n = 400
    t = np.linspace(0.01, 2.0, n) if per_row else 0.7
    got = sample_increments(triplet, t, n, substream(12, gauss, drift, per_row, jumps))
    want = _general_increments(triplet, t, n, substream(12, gauss, drift, per_row, jumps))
    assert got.tobytes() == want.tobytes()
    if gauss == "degenerate" and not drift:
        assert got[:, 2:4].tobytes() == np.zeros((n, 2)).tobytes()  # no jumps move c3, c4


@pytest.mark.parametrize("per_row", [False, True])
def test_sample_increments_gaussian_variances(per_row):
    """Each column's Gaussian part has variance t*g: for g in (0.25, 1, 4)
    the sum of squares over n rows, scaled by t*g, sits inside the 0.999
    chi-square band with n degrees of freedom; a g = 0 column without
    drift or jumps is exactly +0.0."""
    from scipy.stats import chi2

    g = np.array([0.0, 0.25, 1.0, 4.0])
    triplet = LevyTriplet(make_space(4), np.zeros(4), g)
    n = 20_000
    t = np.linspace(0.05, 3.0, n) if per_row else 0.7
    z = sample_increments(triplet, t, n, substream(13, per_row))
    assert z[:, 0].tobytes() == np.zeros(n).tobytes()
    tc = np.asarray(t).reshape(-1, 1) if per_row else t
    stat = ((z[:, 1:] ** 2) / (tc * g[1:])).sum(axis=0)
    lo, hi = chi2.ppf([0.0005, 0.9995], n)
    assert np.all((lo < stat) & (stat < hi)), stat


def test_increment_time_validation():
    triplet = brownian_triplet(make_space(4))
    with pytest.raises(ValueError):
        sample_increments(triplet, 0.0, 10, substream(0))
    with pytest.raises(ValueError):
        sample_increments(triplet, [-1.0] * 5, 5, substream(0))


def test_variance_identity_single_cell():
    """Second pairing moment of z + Z_t is t|xi|^2 + <xi,z>^2."""
    model = make_space(32)
    triplet = brownian_triplet(model)
    rng = substream(11, "var")
    xi = model.basis_vector(1) + model.basis_vector(2)
    z = rng.standard_normal(32)
    t = 0.7
    incr = sample_increments(triplet, t, 50_000, rng)
    est = McEstimate.from_samples(((z + incr) @ xi) ** 2)
    target = t * float(xi @ xi) + float(xi @ z) ** 2
    assert est.verdict(target) == "pass"


def test_jump_measure_validation():
    with pytest.raises(ValueError):
        JumpMeasure(intensity=0.0, kind="pointmass", atoms=np.ones((1, 4)))
    with pytest.raises(ValueError):
        JumpMeasure(intensity=1.0, kind="nope")
    with pytest.raises(ValueError):
        # zero atom violates M({0}) = 0
        JumpMeasure(intensity=1.0, kind="pointmass", atoms=np.zeros((1, 4)))


def test_pointmass_jump_moments():
    """The atoms are equally likely: a quarter each of four."""
    atoms = np.array([[1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, -2.0, 0.0], [0.0, -2.0, 0.0]])
    jm = JumpMeasure(intensity=1.0, kind="pointmass", atoms=atoms)
    xi = np.array([1.0, 1.0, 0.0])
    assert jm.pairing_mean(xi) == pytest.approx(0.25 * 1.0 + 0.75 * (-2.0))
    assert jm.pairing_second_moment(xi) == pytest.approx(0.25 * 1.0 + 0.75 * 4.0)


def test_poisson01_jump_moments_against_quadrature():
    jm = JumpMeasure(intensity=1.0, kind="poisson01")
    model = poisson_example_space(16)
    xi = np.zeros(16)
    xi[0], xi[2] = 1.0, 0.5  # xi(u) = sqrt2 sin(pi u) + 0.5 sqrt2 sin(3 pi u)

    def xi_fun(u):
        return np.sqrt(2.0) * (np.sin(np.pi * u) + 0.5 * np.sin(3 * np.pi * u))

    mean_ref, _ = quad(xi_fun, 0.0, 1.0)
    second_ref, _ = quad(lambda u: xi_fun(u) ** 2, 0.0, 1.0)
    assert jm.pairing_mean(xi) == pytest.approx(mean_ref, abs=1e-10)
    assert jm.pairing_second_moment(xi) == pytest.approx(second_ref, abs=1e-10)
    assert jm.mean_e_norm2(model) == pytest.approx(float(model.weights.sum()))


def test_poisson_example_second_moment_formula():
    """t * int xi^2 + t^2 (int xi)^2 for the embedded point measure."""
    triplet = poisson_example_triplet(32)
    model = triplet.model
    rng = substream(3, "poisson")
    xi = model.basis_vector(1) + 2.0 * model.basis_vector(2)
    for t in (0.5, 1.5):
        est = pairing_second_moment(triplet, xi, t, 60_000, rng)
        target = pairing_second_moment_target(triplet, xi, t)
        jm = triplet.jumps
        explicit = t * jm.pairing_second_moment(xi) + t**2 * jm.pairing_mean(xi) ** 2
        assert target == pytest.approx(explicit)
        assert est.verdict(target) == "pass"


def test_triplet_validation():
    model = make_space(4)
    with pytest.raises(ValueError):
        LevyTriplet(model, np.zeros(3), np.ones(4))
    with pytest.raises(ValueError):
        LevyTriplet(model, np.zeros(4), -np.ones(4))


def test_pure_unit_gaussian_flag():
    model = make_space(4)
    assert brownian_triplet(model).is_pure_unit_gaussian
    drifted = LevyTriplet(model, np.ones(4), np.ones(4))
    assert not drifted.is_pure_unit_gaussian
    assert drifted.is_continuous


def test_single_increment_shape():
    triplet = brownian_triplet(make_space(6))
    z = sample_increments(triplet, 0.5, 1, substream(1))[0]
    assert z.shape == (6,)


def _marginal_case(case):
    """(law on 8 coordinates, the columns of its marginal).  "drift" has
    zero-variance columns, one of them drifted, and "pointmass" moves only
    its jump support (1, 3) by normals, so those two draw the same normals
    and jumps for their marginal as for the full law."""
    model = make_space(8)
    if case == "brownian":
        return brownian_triplet(model), [0, 2, 5]
    if case == "drift":
        g = np.array([1.0, 0.0, 2.0, 0.0, 0.5, 0.0, 0.0, 0.0])
        return LevyTriplet(model, np.linspace(-1.0, 1.0, 8), g), [0, 1, 2, 4]
    atoms = np.zeros((2, 8))
    atoms[:, [1, 3]] = [[0.6, 0.5], [-0.6, 1.0]]
    drift, g = np.zeros(8), np.zeros(8)
    drift[0], g[[1, 3]] = 0.3, [1.0, 0.7]
    return LevyTriplet(model, drift, g, JumpMeasure(2.0, "pointmass", atoms)), [1, 3]


@pytest.mark.parametrize("case", ["brownian", "drift", "pointmass"])
def test_marginal_columns_match_the_full_draw(case):
    """The marginal is the triplet's columns `cols`, and its draws match
    the full draw's columns in law: moment by moment, and byte for byte
    from one stream when the full law draws its normals only in `cols`."""
    law, cols = _marginal_case(case)
    marg = law.marginal(cols)
    np.testing.assert_array_equal(marg.model.weights, law.model.weights[cols])
    np.testing.assert_array_equal(marg.drift, law.drift[cols])
    np.testing.assert_array_equal(marg.gaussian_diag, law.gaussian_diag[cols])
    if law.jumps is not None:
        np.testing.assert_array_equal(marg.jumps.atoms, law.jumps.atoms[:, cols])
    t, n = 0.7, 20_000
    full = sample_increments(law, t, n, substream(40, case))[:, cols]
    if np.isin(law.gaussian_coords, cols).all():
        np.testing.assert_array_equal(sample_increments(marg, t, n, substream(40, case)), full)
    part = sample_increments(marg, t, n, substream(41, case))
    for a, b in zip(full.T, part.T):
        for fa, fb in ((a, b), (a * a, b * b)):  # first and second moments
            ea, eb = McEstimate.from_samples(fa), McEstimate.from_samples(fb)
            diff = McEstimate(ea.mean - eb.mean, float(np.hypot(ea.stderr, eb.stderr)), n)
            assert diff.verdict(0.0) == "pass"


def test_marginal_keeps_the_jump_support_whole():
    """A marginal holds the whole jump support or none of it; every column
    of poisson01 is in its support, so it has no proper marginal."""
    law, _ = _marginal_case("pointmass")
    assert law.marginal([0, 2]).jumps is None
    assert law.marginal(np.arange(8)) is law
    for bad_law, cols in ((law, [1, 2]), (poisson_example_triplet(8), [0, 1])):
        with pytest.raises(PreconditionError):
            bad_law.marginal(cols)


def test_carried_columns_are_the_moved_reads_and_the_jump_support():
    drift_law, _ = _marginal_case("drift")
    jump_law, _ = _marginal_case("pointmass")
    assert drift_law.carried([0, 1, 3, 5]).tolist() == [0, 1, 3, 5]  # c4 and c6 only drift
    assert drift_law.carried(range(8)).tolist() == list(range(8))
    assert jump_law.carried([0, 2]).tolist() == [0, 1, 3]  # c3 stays at its start
    assert jump_law.carried([]).tolist() == [1, 3]
    line = LevyTriplet(make_space(8), np.zeros(8), np.eye(8)[0])
    assert line.carried(range(8)).tolist() == [0]


def test_estimators_draw_only_the_columns_they_read(monkeypatch):
    """Pairings and projected resolvents draw from the marginal on the
    columns they read; poisson01's jumps move every column, so its pairing
    draws all of them.  A read column the law does not move keeps its start."""
    from levylab import measures, operators

    widths = []
    draw = measures.sample_increments

    def recorded(law, t, n, rng):
        widths.append(law.model.dim)
        return draw(law, t, n, rng)

    monkeypatch.setattr(measures, "sample_increments", recorded)
    bm = brownian_triplet(make_space(8))
    e = bm.model.basis_vector
    pairing_second_moment(bm, e(1) + e(3), 1.0, 100, substream(42))
    pairing_second_moment(poisson_example_triplet(8), e(2), 1.0, 100, substream(42))
    f = operators.TestFunction(lambda y: np.cos(y.sum(axis=-1)), bound=1.0, cylinder=3)
    operators.apply_Ualpha_projected(bm, f, 1.0, np.zeros(8), 100, substream(42))
    assert widths == [2, 8, 3]
    line = LevyTriplet(bm.model, np.zeros(8), np.eye(8)[0])
    start = np.arange(8.0)
    pts = sample_read(line, [0, 2, 5], start, 1.0, 50, substream(43))
    assert widths[3:] == [1]
    np.testing.assert_array_equal(pts[:, 1:], np.broadcast_to(start[[2, 5]], (50, 2)))
    assert (pts[:, 0] != start[0]).all()
