"""Kernel density estimation baselines (Gaussian and uniform kernels) for
the bits-per-dimension comparison.  Only fitting and sampling are needed:
BPD is taken under p0, so the KDE's own density is never evaluated.  Data
in and samples out are plain (n, D) float64 arrays."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, EmptyDataset, InvalidSize, NonFiniteState

_KERNELS = ("gaussian", "uniform")


@dataclass(frozen=True)
class KdeModel:
    train: np.ndarray  # (n, D)
    bandwidth: float
    kernel: str

    @property
    def dim(self):
        return self.train.shape[1]

    @property
    def n(self):
        return self.train.shape[0]


def scott_bandwidth(x):
    """Scott's rule n^(-1/(D+4)) times the pooled per-dimension std."""
    n, dim = x.shape
    pooled = math.sqrt(float(np.mean(np.var(x, axis=0, ddof=1))))
    return n ** (-1.0 / (dim + 4)) * pooled


def fit(dataset, kernel="gaussian", bandwidth=None):
    """Fit a KDE; bandwidth defaults to Scott's rule (needs n >= 2)."""
    x = np.array(dataset, dtype=np.float64, ndmin=2)
    if not np.all(np.isfinite(x)):
        raise NonFiniteState("KDE data contains non-finite entries")
    if x.shape[0] < 1:
        raise EmptyDataset("KDE needs at least one data point")
    if kernel not in _KERNELS:
        raise BadConfig(f"kernel must be one of {_KERNELS}")
    if bandwidth is None:
        if x.shape[0] < 2:
            raise EmptyDataset("automatic bandwidth needs n >= 2")
        bandwidth = scott_bandwidth(x)
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise BadConfig(f"bandwidth must be finite and positive, got {bandwidth}")
    return KdeModel(x, float(bandwidth), kernel)


def sample(model, n_samples, rng):
    """Pick a datum uniformly, add kernel noise (h z or Uniform[-h, h]^D);
    n_samples below 1 raises InvalidSize."""
    if n_samples < 1:
        raise InvalidSize(f"n_samples must be >= 1, got {n_samples}")
    idx = rng.integers(0, model.n, n_samples)
    base = model.train[idx]
    if model.kernel == "gaussian":
        noise = model.bandwidth * rng.standard_normal(
            n_samples * model.dim).reshape(n_samples, model.dim)
    else:
        noise = rng.uniform(n_samples * model.dim,
                            -model.bandwidth, model.bandwidth
                            ).reshape(n_samples, model.dim)
    return base + noise
