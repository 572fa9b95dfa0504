"""Host-speed calibration: a fixed kernel timed between workload units.

On a shared host the speed of a core drifts by up to 1.5x over seconds to
minutes (other tenants on the same physical core and caches), and a run of
tens of seconds averages too few of these swings to give a steady figure.
The benchmark therefore times a short slice of a kernel, which never calls
the package under test, before every unit and after the last unit of each
round, outside every unit's timing.  Each time is then rescaled by the
kernel's ``REFERENCE_SECONDS`` over the mean slice time near it: for a
unit, the slices taken within one unit duration of its start or end (at
least the two around it, so a long unit is judged by the host speed over a
span as long as itself); for a round, the slices taken during it.  The
rescaled times are what the work would have taken at the speed at which the
host runs one slice in ``REFERENCE_SECONDS``.  The raw times are printed
and saved beside them.

Swings slow some kinds of work more than others, so each workload names the
kernel whose work is most like its own (``KERNELS``).  A kernel's inputs are
built once, outside every timed interval, and do not depend on the seed.
numpy and scipy are imported only when a kernel is built, so that importing
this module leaves the benchmark's own import and thread settings alone.
"""

from __future__ import annotations

import bisect
import itertools
import time

WARMUP_SLICES = 10


def _laplacian_2d(sp, n: int):
    """Five-point Laplacian on an n x n grid."""
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (n, n))
    eye = sp.identity(n)
    return sp.kron(eye, lap) + sp.kron(lap, eye)


class Calibration:
    """A fixed piece of work.  ``slice()`` runs it once and returns its time;
    ``pause()`` runs it and appends (midpoint, seconds) to ``times``."""

    # Median time of one slice on a 2-vCPU Xeon (Sapphire Rapids class, KVM
    # guest, 2.1 GHz) with every BLAS pool pinned to one thread.
    REFERENCE_SECONDS = 0.01

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        self._build(np, sp, spla)
        self.times = []
        for _ in range(WARMUP_SLICES):
            self.slice()

    def _build(self, np, sp, spla) -> None:
        raise NotImplementedError

    def slice(self) -> float:
        raise NotImplementedError

    def pause(self) -> None:
        t0 = time.perf_counter()
        seconds = self.slice()
        self.times.append((t0 + seconds / 2, seconds))

    def round_factor(self, seconds) -> float:
        """``REFERENCE_SECONDS`` over the mean of the slice times ``seconds``."""
        return self.REFERENCE_SECONDS * len(seconds) / sum(seconds)

    def unit_factors(self, slices, spans) -> list:
        """Rescaling factor of each (start, seconds) span from the slices
        (midpoint, seconds), sorted by midpoint, within one span duration of
        it; always at least the last slice before the span and the first
        after."""
        mids = [mid for mid, _ in slices]
        sums = [0.0, *itertools.accumulate(sec for _, sec in slices)]
        factors = []
        for start, seconds in spans:
            end = start + seconds
            lo = min(bisect.bisect_left(mids, start - seconds),
                     bisect.bisect_left(mids, start) - 1)
            hi = max(bisect.bisect_right(mids, end + seconds),
                     bisect.bisect_right(mids, end) + 1)
            lo, hi = max(lo, 0), min(hi, len(mids))
            if hi <= lo:
                raise ValueError(f"no calibration slice near the span at {start}")
            factors.append(self.REFERENCE_SECONDS * (hi - lo) / (sums[hi] - sums[lo]))
        return factors


class Mixed(Calibration):
    """The kinds of work of the SGD and scan workloads: an interpreter loop,
    numpy calls on a few elements (per-call overhead), numpy calls on ~1600
    elements, and triangular solves with a small sparse LU factor (under
    0.5 MB, so a slice evicts little of the workload's data)."""

    REFERENCE_SECONDS = 0.012
    GRID, SOLVES = 32, 40
    PY_ITERS, SMALL_CALLS, MID_CALLS = 40_000, 700, 250

    def _build(self, np, sp, spla) -> None:
        n = self.GRID
        self._lu = spla.splu((_laplacian_2d(sp, n) + sp.identity(n * n)).tocsc())
        self._rhs = np.ones(n * n)
        rng = np.random.default_rng(0)
        self._small = rng.random(8)
        self._left = rng.random((50, 32))
        self._right = rng.random((32, 32))
        self._tanh = np.tanh

    def slice(self) -> float:
        t0 = time.perf_counter()
        x = self._rhs
        for _ in range(self.SOLVES):
            x = self._lu.solve(x)
        acc = 0
        for i in range(self.PY_ITERS):
            acc += i * i
        for _ in range(self.SMALL_CALLS):
            self._tanh(self._small).sum()
        for _ in range(self.MID_CALLS):
            self._tanh(self._left @ self._right).sum()
        return time.perf_counter() - t0


class ImplicitSteps(Calibration):
    """The work of ``fpe.decay_rate``: implicit steps of a diffusion on a
    51 x 51 grid, each a triangular solve with the LU factor of a five-point
    operator plus the chi-square and mass sums over the grid."""

    REFERENCE_SECONDS = 0.01
    GRID, STEPS, DT = 51, 30, 0.02

    def _build(self, np, sp, spla) -> None:
        n = self.GRID
        step = sp.identity(n * n) + self.DT * (n - 1) ** 2 * _laplacian_2d(sp, n)
        self._lu = spla.splu(step.tocsc())
        self._mu = np.full(n * n, 1.0 / (n * n))
        self._rho = np.random.default_rng(0).random(n * n)
        self._sum = np.sum

    def slice(self) -> float:
        t0 = time.perf_counter()
        rho, mu = self._rho, self._mu
        for _ in range(self.STEPS):
            diff = rho - mu
            self._sum(diff * diff / mu)
            self._sum(rho)
            rho = self._lu.solve(rho)
        return time.perf_counter() - t0


KERNELS = {"mixed": Mixed, "implicit_steps": ImplicitSteps}
