"""Ground-truth density families with exact sampling, log-density, analytic
noised scores where closed forms exist, and the bits-per-dimension metric.

The three benchmark families: an isotropic Gaussian (effective dimension 1),
a grid Markov-random-field Gaussian whose precision couples only 4-neighbor
pixels (effective dimension 2), and a Gaussian mixture with frozen random
means (not factorizable).  FactorDensity covers generic factorizable targets
on [-1,1]^D for the quadrature machinery.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (CorruptFile, DimensionMismatch, DimensionTooLarge,
                     EmptyDataset, InvalidSize, NoAnalyticScore,
                     NotPositiveDefinite, OutOfSupport, RejectionBudgetExceeded,
                     read_text)
from .numerics import McEstimate

_LOG_2PI = math.log(2.0 * math.pi)
_LN2 = math.log(2.0)


@dataclass
class Dataset:
    """Sample matrix (n, D) plus generator metadata."""

    x: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        if not np.all(np.isfinite(self.x)):
            raise ValueError("dataset contains non-finite entries")

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def dim(self):
        return self.x.shape[1]

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(f"x{i + 1}" for i in range(self.dim)) + "\n")
            for row in self.x:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    @staticmethod
    def from_csv(path, meta=None):
        header, *lines = read_text(path).split("\n")
        if not header.startswith("x1"):
            raise CorruptFile(
                f"{path} line 1: dataset CSV must start with an x1,..,xD header")
        width = len(header.split(","))
        rows = []
        for lineno, line in enumerate(lines, 2):
            if not line.strip():
                continue
            cells = line.split(",")
            if len(cells) != width:
                raise CorruptFile(
                    f"{path} line {lineno}: {len(cells)} cells, header has {width}")
            try:
                row = [float(c) for c in cells]
            except ValueError:
                raise CorruptFile(
                    f"{path} line {lineno}: non-numeric cell") from None
            if not all(map(math.isfinite, row)):
                raise CorruptFile(f"{path} line {lineno}: non-finite cell")
            rows.append(row)
        if not rows:
            raise EmptyDataset(f"no rows in {path}")
        return Dataset(np.array(rows), meta or {})

    def write_meta(self, path):
        with open(path, "w") as fh:
            json.dump(self.meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


class IsoGaussian:
    """Standard normal on R^D; stationary for the OU process, so the noised
    score is -x at every time."""

    family = "iso_gaussian"

    def __init__(self, dim):
        self.dim = int(dim)

    def sample(self, n, rng):
        x = rng.standard_normal(n * self.dim).reshape(n, self.dim)
        return Dataset(x, {"family": self.family, "dim": self.dim})

    def log_density(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return -0.5 * np.sum(x * x, axis=1) - 0.5 * self.dim * _LOG_2PI

    def score_t(self, x, t, schedule):
        return -np.atleast_2d(np.asarray(x, dtype=np.float64))

    def meta(self):
        return {"family": self.family, "dim": self.dim}


class GridMrfGaussian:
    """Zero-mean Gaussian on a K x K grid with 4-neighbor precision coupling.

    Precision has `diag_value` on the diagonal and `coupling` between grid
    neighbors; diagonal dominance (diag > 4|coupling|) keeps it positive
    definite.  The precision is eigendecomposed once, Lambda = V diag(lam) V^T:
    the covariance, the log-determinant, the noised score and the sampler
    all come from (lam, V).  Sampling maps z through the eigen factor
    V diag(lam)^(-1/2) of the covariance.  A smallest eigenvalue at or
    below dim * eps * (largest eigenvalue), the rounding floor of the
    decomposition, is not positive.
    """

    family = "grid_mrf"

    def __init__(self, side, diag_value=1.0, coupling=-0.2):
        self.side = int(side)
        self.dim = self.side ** 2
        self.diag_value = float(diag_value)
        self.coupling = float(coupling)
        self.precision = self._build_precision()
        self._eigvals, self._eigvecs = np.linalg.eigh(self.precision)
        floor = self.dim * np.finfo(np.float64).eps * abs(self._eigvals[-1])
        if self._eigvals[0] <= floor:
            raise NotPositiveDefinite(
                f"MRF precision has smallest eigenvalue {float(self._eigvals[0])!r}")
        self.covariance = (self._eigvecs / self._eigvals) @ self._eigvecs.T
        self.covariance = 0.5 * (self.covariance + self.covariance.T)
        self._factor = self._eigvecs / np.sqrt(self._eigvals)
        self._logdet_prec = float(np.sum(np.log(self._eigvals)))

    def _build_precision(self):
        k = self.side
        lam = np.zeros((self.dim, self.dim))
        np.fill_diagonal(lam, self.diag_value)
        for r in range(k):
            for c in range(k):
                i = r * k + c
                if c + 1 < k:
                    lam[i, i + 1] = lam[i + 1, i] = self.coupling
                if r + 1 < k:
                    lam[i, i + k] = lam[i + k, i] = self.coupling
        return lam

    def sample(self, n, rng):
        z = rng.standard_normal(n * self.dim).reshape(n, self.dim)
        return Dataset(z @ self._factor.T, self.meta())

    def log_density(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        quad = np.einsum("ni,ij,nj->n", x, self.precision, x)
        return 0.5 * self._logdet_prec - 0.5 * self.dim * _LOG_2PI - 0.5 * quad

    def score_t(self, x, t, schedule):
        # -(mu_t^2 Sigma + sigma_t^2 I)^-1 x, diagonal in the eigenbasis of
        # the precision; t is a scalar or one time per row of x
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        mu_t, sigma_t = schedule.mu_sigma(t)
        mu_t = np.reshape(mu_t, (-1, 1))
        sigma_t = np.reshape(sigma_t, (-1, 1))
        z = x @ self._eigvecs
        z /= mu_t ** 2 / self._eigvals + sigma_t ** 2
        return -z @ self._eigvecs.T

    def meta(self):
        return {"family": self.family, "dim": self.dim, "K": self.side,
                "precision_diag": self.diag_value,
                "precision_coupling": self.coupling}


class GaussMixture:
    """Equal-weight mixture of unit-covariance Gaussians with means drawn
    once from N(0, I) and frozen."""

    family = "gauss_mixture"

    def __init__(self, dim, n_components, rng, means=None):
        self.dim = int(dim)
        self.n_components = int(n_components)
        if means is not None:
            self.means = np.asarray(means, dtype=np.float64)
        else:
            self.means = rng.normal_matrix(self.n_components, self.dim)

    def sample(self, n, rng):
        comp = rng.integers(0, self.n_components, n)
        z = rng.standard_normal(n * self.dim).reshape(n, self.dim)
        return Dataset(self.means[comp] + z, self.meta())

    def _component_logpdfs(self, x, mean_scale=1.0):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        diff = x[:, None, :] - mean_scale * self.means[None, :, :]
        return -0.5 * np.sum(diff * diff, axis=2) - 0.5 * self.dim * _LOG_2PI

    def log_density(self, x):
        lp = self._component_logpdfs(x)
        m = lp.max(axis=1)
        return m + np.log(np.mean(np.exp(lp - m[:, None]), axis=1))

    def score_t(self, x, t, schedule):
        # X_t = mu_t X_0 + sigma_t Z with unit component covariance keeps the
        # noised law a mixture of N(mu_t * mean_k, I); t is a scalar or one
        # time per row of x
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        mu_t, _ = schedule.mu_sigma(t)
        mean_scale = np.reshape(mu_t, (-1, 1, 1))
        lp = self._component_logpdfs(x, mean_scale)
        lp -= lp.max(axis=1, keepdims=True)
        resp = np.exp(lp)
        resp /= resp.sum(axis=1, keepdims=True)
        centered = mean_scale * self.means[None, :, :] - x[:, None, :]
        return np.sum(resp[:, :, None] * centered, axis=1)

    def meta(self):
        return {"family": self.family, "dim": self.dim,
                "M": self.n_components, "means": self.means.tolist()}


class FactorDensity:
    """p0(x) proportional to a product of factor functions over index sets,
    supported on [-1,1]^D; the normalisation constant is computed on a fine
    tensor grid (hence the D <= 3 limit)."""

    family = "factor"

    def __init__(self, dim, index_sets, factors, name="factor", grid_per_axis=None):
        self.dim = int(dim)
        if self.dim > 3:
            raise DimensionTooLarge("FactorDensity normalisation requires D <= 3")
        self.index_sets = tuple(tuple(int(i) for i in idx) for idx in index_sets)
        self.factors = tuple(factors)
        self.name = name
        if len(self.index_sets) != len(self.factors):
            raise ValueError("one factor function per index set")
        for idx in self.index_sets:
            if any(i < 0 or i >= self.dim for i in idx):
                raise ValueError("index set out of range")
        if grid_per_axis is None:
            grid_per_axis = {1: 20001, 2: 801, 3: 161}[self.dim]
        self._grid_per_axis = int(grid_per_axis)
        self.norm_const, self._envelope_max = self._normalise()

    @property
    def effective_dim(self):
        return max(len(idx) for idx in self.index_sets)

    def unnormalized(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.ones(x.shape[0])
        for idx, g in zip(self.index_sets, self.factors):
            out *= np.asarray(g(x[:, idx]), dtype=np.float64)
        return out

    def _normalise(self):
        n = self._grid_per_axis
        centers = (np.arange(n) + 0.5) * (2.0 / n) - 1.0
        grids = np.meshgrid(*([centers] * self.dim), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        vals = self.unnormalized(pts)
        if np.any(vals < 0):
            raise ValueError("factor functions must be nonnegative")
        cell = (2.0 / n) ** self.dim
        return float(vals.sum() * cell), float(vals.max())

    def _check_support(self, x):
        if np.any(np.abs(x) > 1.0 + 1e-12):
            raise OutOfSupport("point outside [-1,1]^D")

    def log_density(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self._check_support(x)
        vals = self.unnormalized(x)
        with np.errstate(divide="ignore"):
            return np.log(vals) - math.log(self.norm_const)

    def eval_unit_cube(self, x):
        """Normalised density on a batch of points inside the cube."""
        return self.unnormalized(x) / self.norm_const

    def sample(self, n, rng, max_draws=None):
        """Rejection from the uniform envelope on the cube."""
        bound = 1.000001 * self._envelope_max
        budget = max_draws if max_draws is not None else max(1000 * n, 100000)
        out = np.empty((n, self.dim))
        got = 0
        drawn = 0
        while got < n:
            if drawn >= budget:
                raise RejectionBudgetExceeded(
                    f"acceptance too low after {drawn} proposals")
            batch = min(max(4 * (n - got), 256), budget - drawn)
            props = rng.uniform(batch * self.dim, -1.0, 1.0).reshape(batch, self.dim)
            u = rng.uniform(batch)
            keep = u * bound <= self.unnormalized(props)
            drawn += batch
            take = min(int(keep.sum()), n - got)
            out[got:got + take] = props[keep][:take]
            got += take
        return Dataset(out, self.meta())

    def score_t(self, x, t, schedule):
        raise NoAnalyticScore(
            "FactorDensity has no closed-form noised score; use pt_quadrature")

    def meta(self):
        return {"family": self.family, "dim": self.dim, "name": self.name,
                "index_sets": [list(i) for i in self.index_sets]}


def cosine_bump(dim):
    """Default smooth factorizable test density on [-1,1]^D:
    p0(x) proportional to prod_i (1 + cos(pi x_i)) / 2."""

    def g(xi):
        return (1.0 + np.cos(np.pi * xi[:, 0])) / 2.0

    return FactorDensity(dim, [(i,) for i in range(dim)], [g] * dim,
                         name="cosine_bump")


# --- operation surface ------------------------------------------------------


def sample(density, n, rng):
    if n < 1:
        raise InvalidSize("n must be >= 1")
    return density.sample(n, rng)


def bpd(density, samples):
    """-(1 / (n D)) sum log2 p0(x_i) over generated samples; a zero-density
    sample yields +inf."""
    x = samples.x if isinstance(samples, Dataset) else np.atleast_2d(samples)
    if x.shape[0] < 1:
        raise EmptyDataset("bpd requires at least one sample")
    if x.shape[1] != density.dim:
        raise DimensionMismatch(
            f"samples have {x.shape[1]} columns, the density has dim {density.dim}")
    logp = density.log_density(x)
    if np.any(np.isneginf(logp)):
        return math.inf
    return float(-np.mean(logp) / (_LN2 * x.shape[1]))


def reference_bpd(density, n_mc, rng):
    """Monte Carlo estimate of -E[log2 p0(X)] / D with its standard error."""
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    data = density.sample(n_mc, rng)
    vals = -density.log_density(data.x) / (_LN2 * density.dim)
    se = float(np.std(vals, ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else math.inf
    return McEstimate(float(np.mean(vals)), se, n_mc)


def iso_gaussian_bpd(dim=1):
    """Analytic differential entropy of N(0, I) in bits per dimension."""
    return 0.5 * math.log2(2.0 * math.pi * math.e)


def grid_mrf_bpd(density):
    """Closed-form Gaussian entropy per dimension for the MRF family."""
    return (0.5 * math.log2(2.0 * math.pi * math.e)
            - density._logdet_prec / (2.0 * density.dim * _LN2))
