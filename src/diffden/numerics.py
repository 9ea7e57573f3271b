"""The randomness substrate and the Monte Carlo estimate record.

Vectors and matrices are plain float64 ndarrays; factorisations, solves and
eigendecompositions call numpy.linalg (LAPACK) directly.  The Rng wraps a
counter-based Philox bit generator so that `child` yields independent,
reproducible substreams.  A hot loop hands `standard_normal` a buffer it
owns and the draws are written there; the buffer's dtype selects the
method.  Float64 normals (no buffer, or a float64 one) are numpy's
ziggurat method (`Generator.standard_normal`), which rejects a small share
of its candidates, so the number of bits a call consumes depends on the
draws: a stream is reproducible call for call, but no code may assume a
fixed consumption per normal.  Float32 normals, which the samplers and
the DSM training noise draw, are a vectorised Box-Muller transform of
float32 uniforms from the same stream: ceil(n/2) pairs (u1, u2) give
r = sqrt(-2 log(1 - u1)) and theta = 2 pi u2, and the first half of the
buffer gets r cos theta, the second half r sin theta (an odd n drops the
last sine).  1 - u1 >= 2^-24, so there is no log(0), and |z| stops at
5.77.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import BadConfig, InvalidSize, PreconditionViolated


class McEstimate(NamedTuple):
    """Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    n: int

    def __float__(self):
        return self.value


class Rng:
    """Splittable counter-based random stream.

    The stream is fully determined by (seed, path), non-negative integers:
    `child(*ints)` derives a substream by extending the path, so parallel or
    keyed consumers stay reproducible without sharing mutable state.
    """

    def __init__(self, seed, path=()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        if self.seed < 0 or min(self.path, default=0) < 0:
            raise BadConfig(f"seed and stream key must be >= 0, got "
                            f"seed {self.seed}, path {self.path}")
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def __repr__(self):
        return f"Rng(seed={self.seed}, path={self.path})"

    def child(self, *ints):
        return Rng(self.seed, self.path + tuple(int(i) for i in ints))

    def uniform(self, n=None, low=0.0, high=1.0):
        u = self._gen.random() if n is None else self._gen.random(n)
        return low + (high - low) * u

    def integers(self, low, high, n=None):
        return self._gen.integers(low, high, size=n)

    def standard_normal(self, n, out=None):
        """n i.i.d. N(0,1) draws, written into `out` (a C-contiguous array of
        n entries, returned) when it is given.  A float64 `out`, or none,
        gets numpy's ziggurat method (the bytes of a fresh draw either way);
        a float32 `out` gets the Box-Muller transform of the module
        docstring."""
        if n < 1:
            raise InvalidSize(f"need n >= 1 normal draws, got {n}")
        if out is None:
            return self._gen.standard_normal(n)
        if (not isinstance(out, np.ndarray) or not out.flags.c_contiguous
                or out.dtype not in (np.float64, np.float32)):
            raise PreconditionViolated("out must be a C-contiguous float64 or float32 "
                                       f"array, got {type(out).__name__} "
                                       f"{getattr(out, 'dtype', '')}")
        if out.size != n:
            raise InvalidSize(f"out holds {out.size} entries, not {n}")
        if out.dtype == np.float64:
            return self._gen.standard_normal(out=out)
        flat = out.reshape(-1)
        half = (n + 1) // 2
        r = self._gen.random(out=flat[:half], dtype=np.float32)
        theta = self._gen.random(half, dtype=np.float32)
        np.subtract(1.0, r, out=r)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * math.pi
        sines = flat[half:]
        np.sin(theta[:n - half], out=sines)
        sines *= r[:n - half]
        r *= np.cos(theta, out=theta)
        return out

    def normal_matrix(self, rows, cols):
        return self.standard_normal(rows * cols).reshape(rows, cols)
