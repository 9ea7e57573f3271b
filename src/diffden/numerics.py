"""The randomness substrate and the Monte Carlo estimate record.

Vectors and matrices are plain float64 ndarrays; factorisations, solves and
eigendecompositions call numpy.linalg (LAPACK) directly.  The Rng wraps a
counter-based Philox bit generator so that `split` yields independent,
reproducible substreams; normal draws go through an explicit Box-Muller
transform so the number of uniforms consumed per call is fixed.  The
transform runs in place on its own two uniform arrays (log, scale, sqrt;
angle; cos and sin written straight into the output): it consumes the same
uniforms with the same operations as the textbook form, so its draws are
the same bits, without that form's temporaries.
"""

from typing import NamedTuple

import numpy as np


class McEstimate(NamedTuple):
    """Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    n: int

    def __float__(self):
        return self.value


class Rng:
    """Splittable counter-based random stream.

    The stream is fully determined by (seed, path): `split(k)` and
    `child(*ints)` derive substreams by extending the path, so parallel or
    keyed consumers stay reproducible without sharing mutable state.
    """

    def __init__(self, seed, path=()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def __repr__(self):
        return f"Rng(seed={self.seed}, path={self.path})"

    def split(self, k):
        return [Rng(self.seed, self.path + (i,)) for i in range(k)]

    def child(self, *ints):
        return Rng(self.seed, self.path + tuple(int(i) for i in ints))

    def uniform(self, n=None, low=0.0, high=1.0):
        u = self._gen.random() if n is None else self._gen.random(n)
        return low + (high - low) * u

    def integers(self, low, high, n=None):
        return self._gen.integers(low, high, size=n)

    def standard_normal(self, n):
        """n i.i.d. N(0,1) draws via Box-Muller (fixed uniform consumption)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        half = (n + 1) // 2
        r = self._gen.random(half)
        np.subtract(1.0, r, out=r)  # in (0, 1], keeps log finite
        theta = self._gen.random(half)
        np.log(r, out=r)  # r = sqrt(-2 log u1)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * np.pi
        z = np.empty(2 * half)
        cos, sin = z[0::2], z[1::2]
        np.cos(theta, out=cos)
        np.sin(theta, out=sin)
        cos *= r
        sin *= r
        return z[:n]

    def normal_matrix(self, rows, cols):
        return self.standard_normal(rows * cols).reshape(rows, cols)
