"""Kernel density estimation baselines (Gaussian and uniform kernels) for
the bits-per-dimension comparison.  Only fitting and sampling are needed:
BPD is taken under p0, so the KDE's own density is never evaluated."""

import math
from dataclasses import dataclass

import numpy as np

from .densities import Dataset
from .errors import BadConfig, EmptyDataset

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
    x = (dataset if isinstance(dataset, Dataset) else Dataset(dataset)).x
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
    return KdeModel(np.array(x, dtype=np.float64), float(bandwidth), kernel)


def sample(model, n_samples, rng):
    """Pick a datum uniformly, add kernel noise (h z or Uniform[-h, h]^D)."""
    idx = rng.integers(0, model.n, n_samples)
    base = model.train[idx]
    if model.kernel == "gaussian":
        noise = model.bandwidth * rng.standard_normal(
            n_samples * model.dim).reshape(n_samples, model.dim)
    else:
        noise = rng.uniform(n_samples * model.dim,
                            -model.bandwidth, model.bandwidth
                            ).reshape(n_samples, model.dim)
    return Dataset(base + noise, {"family": f"kde_{model.kernel}",
                                  "bandwidth": model.bandwidth, "n": model.n})
