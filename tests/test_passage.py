"""The samplers' own kernels, called directly: the J* sampler of the walk
on intervals and the squared-Bessel radius chain of the radial mode.  The
samplers' laws through the hit API are checked in test_potential.py."""

import math

import numpy as np
import pytest

from levylab import passage
from levylab.measures import McEstimate
from levylab.rng import substream


class _CountingRng:
    """A generator that counts the uniforms drawn through `random`."""

    def __init__(self, rng):
        self._rng, self.uniforms = rng, 0

    def random(self, size=None):
        self.uniforms += 1 if size is None else int(np.prod(size))
        return self._rng.random(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_unit_exit_time_law():
    """J*: mean 1, variance 2/3 and E exp(-sJ) = 1/cosh(sqrt(2s))."""
    J = passage._unit_exit_times(100_000, substream(50))
    assert McEstimate.from_samples(J).verdict(1.0) == "pass"
    assert McEstimate.from_samples((J - 1.0) ** 2).verdict(2.0 / 3.0) == "pass"
    for s in (1.0, 3.0):
        exact = 1.0 / np.cosh(np.sqrt(2.0 * s))
        assert McEstimate.from_samples(np.exp(-s * J)).verdict(exact) == "pass", s


def test_unit_exit_time_series_rejects_at_its_rate():
    """The proposal has density a_0 / Z, with Z the integral of a_0, and
    the series check accepts it with probability 1/Z.  So a draw rejects a
    geometric number of proposals, of mean Z - 1 (about 7e-4) and variance
    Z (Z - 1); each proposal takes two uniforms.  Accepting every proposal
    passes the law checks above, which cannot see a 7e-4 share of the mass
    moved, but it fails here."""
    n, t = 400_000, 0.64
    rng = _CountingRng(substream(59))
    passage._unit_exit_times(n, rng)
    Z = 4.0 / np.pi * np.exp(-np.pi**2 * t / 8.0) + 2.0 * math.erfc(1.0 / math.sqrt(2.0 * t))
    rejected = McEstimate((rng.uniforms / 2 - n) / n, float(np.sqrt(Z * (Z - 1.0) / n)), n)
    assert rejected.verdict(Z - 1.0) == "pass"


@pytest.mark.parametrize("r0", [0.0, 2.0])
def test_tail_radii_step_a_squared_bessel_process(r0):
    """After n steps of variance v, the squared radius of a d-dimensional
    Brownian motion from radius r0 has mean r0^2 + n d v and variance
    2 n^2 d v^2 + 4 r0^2 n v; at every step the radii stay nonnegative.
    The chain steps in units of sqrt(v), so its radii are scaled back."""
    d, n, v = 24, 50, 0.01
    rad = np.sqrt(v) * passage._tail_radii(np.full(20000, r0 / np.sqrt(v)), n, d, substream(66, r0))
    assert rad.shape == (n + 1, 20000) and np.all(rad >= 0)
    rho = rad[-1] ** 2
    mean = r0 * r0 + n * d * v
    assert McEstimate.from_samples(rho).verdict(mean) == "pass"
    var = 2 * n * n * d * v * v + 4 * r0 * r0 * n * v
    assert McEstimate.from_samples((rho - mean) ** 2).verdict(var) == "pass"
