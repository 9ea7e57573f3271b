"""The randomness substrate and the Monte Carlo estimate record.

Vectors and matrices are plain float64 ndarrays; factorisations, solves and
eigendecompositions call numpy.linalg (LAPACK) directly.  The Rng wraps a
counter-based Philox bit generator so that `split` yields independent,
reproducible substreams.  Normal draws are numpy's ziggurat method
(`Generator.standard_normal`); a hot loop hands `standard_normal` a buffer
it owns and the draws are written there.  The ziggurat method rejects a
small share of its candidates, so the number of bits a call consumes
depends on the draws: a stream is reproducible call for call, but no code
may assume a fixed consumption per normal.
"""

from typing import NamedTuple

import numpy as np

from .errors import InvalidSize


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

    def standard_normal(self, n, out=None):
        """n i.i.d. N(0,1) draws (numpy's ziggurat method), written into
        `out` (a C-contiguous float64 array of n entries, returned) when it
        is given: the bytes of a fresh draw either way."""
        if n < 1:
            raise InvalidSize(f"need n >= 1 normal draws, got {n}")
        if out is None:
            return self._gen.standard_normal(n)
        if out.size != n:
            raise InvalidSize(f"out holds {out.size} entries, not {n}")
        return self._gen.standard_normal(out=out)

    def normal_matrix(self, rows, cols):
        return self.standard_normal(rows * cols).reshape(rows, cols)
