"""Kernel density estimation baselines (Gaussian and uniform kernels) with
sampling, for the bits-per-dimension comparison."""

import math
from dataclasses import dataclass

import numpy as np

from .densities import Dataset
from .errors import EmptyDataset

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
    x = dataset.x if isinstance(dataset, Dataset) else np.atleast_2d(np.asarray(dataset))
    if x.shape[0] < 1:
        raise EmptyDataset("KDE needs at least one data point")
    if kernel not in _KERNELS:
        raise ValueError(f"kernel must be one of {_KERNELS}")
    if bandwidth is None:
        if x.shape[0] < 2:
            raise EmptyDataset("automatic bandwidth needs n >= 2")
        bandwidth = scott_bandwidth(x)
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return KdeModel(np.array(x, dtype=np.float64), float(bandwidth), kernel)


def _gauss_logsum(train, x, inv_two_h2):
    # log sum_i exp(-|x - X_i|^2 * inv_two_h2), stabilised per query
    d2 = np.sum((x[:, None, :] - train[None, :, :]) ** 2, axis=2)
    e = -d2 * inv_two_h2
    m = e.max(axis=1)
    return m + np.log(np.sum(np.exp(e - m[:, None]), axis=1))


def _box_count(train, x, h):
    inside = np.all(np.abs(x[:, None, :] - train[None, :, :]) <= h, axis=2)
    return inside.sum(axis=1).astype(np.float64)


def density(model, x):
    """(1/n) sum_i K_h(x - X_i); accepts one point or a (q, D) batch."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    h = model.bandwidth
    if model.kernel == "gaussian":
        ls = _gauss_logsum(model.train, pts, 1.0 / (2.0 * h * h))
        norm = (2.0 * math.pi * h * h) ** (-model.dim / 2.0)
        out = norm * np.exp(ls) / model.n
    else:
        counts = _box_count(model.train, pts, h)
        out = counts / (model.n * (2.0 * h) ** model.dim)
    return float(out[0]) if single else out


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
