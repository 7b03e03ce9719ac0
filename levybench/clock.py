"""Timing units of work at a reference machine speed.

On a machine shared with other tenants (2 cores, Python 3.11.7, numpy
2.4.6), one fixed batch took anywhere from 1.4 s to 2.7 s within minutes,
more than any bound a benchmark may set.  `SpeedClock` times a batch as a
list of units (its estimator calls), runs `speed_probe()` before the first
unit and after each, and scales each unit's wall time by REF_PROBE_S over
the mean of the two probes around it.  The probe runs no levylab code, so
the scaling cancels the machine's drift and leaves a change to the program
in the number.  Probes sit between units, never inside one, so they add
nothing to a unit's time.  Drift is fast: probing between the estimator
calls of a face_exits batch, rather than only around the batch, halved the
spread of its scaled times (coefficient of variation 0.069 to 0.033).

Fresh-interpreter set-up is import work, which that probe does not track:
on the same machine one `import scipy.stats` took 0.9 s or 1.6 s from one
second to the next, while the probe barely moved.  Set-up times are instead
scaled by `reference_import()`, a fresh interpreter that imports numpy and
scipy.stats and no levylab code, run right before each set-up probe.
"""

import math
import statistics
import subprocess
import sys
import time

import numpy as np

# speed_probe() seconds on the machine the baseline was taken on (2 cores,
# Python 3.11.7, numpy 2.4.6); scaled times are reported at this speed
REF_PROBE_S = 0.012
# reference_import() seconds on the same machine; scaled set-up times are
# reported at this speed
REF_IMPORT_S = 1.0
REF_IMPORT_CODE = (
    "import time; t0 = time.perf_counter(); import numpy, scipy.stats; "
    "print(time.perf_counter() - t0)"
)


def _seconds(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def _path_step():
    """Philox normals, a mask, a gather and a scatter on a (500, 32) batch."""
    g = np.random.Generator(np.random.Philox(key=0))
    z = np.zeros((500, 32))
    for _ in range(50):
        z += g.standard_normal((500, 32))
        idx = np.flatnonzero(z[:, 0] < 1e9)
        z[idx] = z[idx] * 1.0


def _interpreter():
    """Pure-Python dict updates, like the per-call bookkeeping of estimators."""
    d = {}
    for i in range(30000):
        d[i % 997] = d.get(i % 997, 0) + i


def _large_array():
    """Memory-bound normals and row sums on a (20000, 32) array."""
    g = np.random.default_rng(0)
    a = np.empty((20000, 32))
    for _ in range(3):
        g.standard_normal(out=a)
        a.sum(axis=1)


def _small_array():
    """Numpy call overhead: masked updates of a (50, 32) array."""
    a = np.zeros((50, 32))
    for _ in range(400):
        b = a + 1.0
        m = b[:, 0] < 5
        a[m] = b[m] * 1.0


KERNELS = (_path_step, _interpreter, _large_array, _small_array)


def speed_probe() -> float:
    """Geometric mean of the times of four fixed kernels, one for each kind
    of work in a batch: vectorised path steps, interpreter bookkeeping,
    memory-bound array passes and small-array call overhead; about 0.08 s.
    No single kernel tracked the batches as well: over 84 batches of
    full_support_paths, the spread of 10-batch medians scaled by the
    path-step kernel alone was 0.10, by all four 0.03."""
    return math.exp(statistics.fmean(math.log(_seconds(k)) for k in KERNELS))


def reference_import() -> float:
    """Seconds a fresh interpreter takes to import numpy and scipy.stats,
    from after its start-up, as set-up probes are timed."""
    res = subprocess.run(
        [sys.executable, "-c", REF_IMPORT_CODE], capture_output=True, text=True, timeout=120, check=True
    )
    return float(res.stdout.split()[-1])


class SpeedClock:
    def time(self, units):
        """Run the callables `units` in order, with a speed probe before the
        first and after each; return (their results, raw seconds, seconds
        at the reference speed).  Each unit is scaled by the two probes
        around it, so the drift is followed unit by unit."""
        outs, raw, scaled = [], 0.0, 0.0
        before = speed_probe()
        for unit in units:
            t0 = time.perf_counter()
            outs.append(unit())
            seconds = time.perf_counter() - t0
            after = speed_probe()
            raw += seconds
            scaled += seconds * REF_PROBE_S / statistics.fmean((before, after))
            before = after
        return outs, raw, scaled


class PlainClock:
    """Same interface without probes, for runs whose times are not reported."""

    def time(self, units):
        t0 = time.perf_counter()
        outs = [unit() for unit in units]
        raw = time.perf_counter() - t0
        return outs, raw, raw
