"""Forward OU process, denoising score-matching loss, and Adam training.

The forward diffusion dX = -alpha_t X dt + sqrt(2 alpha_t) dB has Gaussian
transitions X_t | X_0 ~ N(mu_t X_0, sigma_t^2 I) with
mu_t = exp(-int_0^t alpha) and sigma_t^2 = 1 - mu_t^2.  Training regresses a
network f(x, t) onto the conditional score -(x_t - mu_t x_0) / sigma_t^2
with t drawn uniformly on [T_min, T_max] (unit loss weight).
"""

import math
import time
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import wsnn
from .errors import (BadConfig, DimensionMismatch, EmptyDataset, NegativeTime,
                     SingularTime)
from .numerics import McEstimate, Rng


def _adaptive_simpson(f, a, b, tol):
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
                + recurse(m, b, fm, frm, fb, right, tol / 2.0, depth - 1))

    return recurse(a, b, fa, fm, fb, whole, tol, 48)


@dataclass(frozen=True)
class DiffusionSchedule:
    """Forward-process clock: alpha_t, its bounds, and the time window.

    alpha may be a positive constant (closed-form mu_t) or a callable, in
    which case int_0^t alpha is evaluated by adaptive quadrature to 1e-10.
    The loss weight is identically 1 on [t_min, t_max].
    """

    alpha: Union[float, Callable] = 1.0
    tau_lower: float = None
    tau_upper: float = None
    t_min: float = 1e-3
    t_max: float = 3.0

    def __post_init__(self):
        if not callable(self.alpha):
            object.__setattr__(self, "alpha", float(self.alpha))
            if self.alpha <= 0:
                raise ValueError("constant alpha must be positive")
            if self.tau_lower is None:
                object.__setattr__(self, "tau_lower", self.alpha)
            if self.tau_upper is None:
                object.__setattr__(self, "tau_upper", self.alpha)
        elif self.tau_lower is None or self.tau_upper is None:
            raise ValueError("callable alpha requires explicit tau bounds")
        if not 0 < self.t_min < self.t_max:
            raise ValueError("need 0 < t_min < t_max")

    def alpha_at(self, t):
        return self.alpha(t) if callable(self.alpha) else self.alpha

    def _integral(self, t):
        if not callable(self.alpha):
            return self.alpha * t
        return _adaptive_simpson(self.alpha, 0.0, float(t), 1e-10) if t > 0 else 0.0

    def mu_sigma(self, t):
        """(mu_t, sigma_t); accepts a scalar or an array of times."""
        t_arr = np.asarray(t, dtype=np.float64)
        if np.any(t_arr < 0):
            raise NegativeTime("t must be >= 0")
        if callable(self.alpha):
            integral = np.vectorize(self._integral)(t_arr)
        else:
            integral = self.alpha * t_arr
        mu = np.exp(-integral)
        sigma = np.sqrt(-np.expm1(-2.0 * integral))
        if np.isscalar(t) or t_arr.ndim == 0:
            return float(mu), float(sigma)
        return mu, sigma


def forward_sample(schedule, x0, t, rng):
    """Draw x_t = mu_t x0 + sigma_t z with z ~ N(0, I)."""
    x0 = np.asarray(x0, dtype=np.float64)
    single = x0.ndim == 1
    x = x0[None, :] if single else x0
    mu, sigma = schedule.mu_sigma(t)
    mu = np.broadcast_to(np.asarray(mu), (x.shape[0],))
    sigma = np.broadcast_to(np.asarray(sigma), (x.shape[0],))
    z = rng.standard_normal(x.size).reshape(x.shape)
    xt = mu[:, None] * x + sigma[:, None] * z
    return xt[0] if single else xt


def conditional_score(schedule, x0, x_t, t):
    """Score of the Gaussian transition: -(x_t - mu_t x0) / sigma_t^2."""
    x0 = np.asarray(x0, dtype=np.float64)
    x_t = np.asarray(x_t, dtype=np.float64)
    mu, sigma = schedule.mu_sigma(t)
    if np.any(np.asarray(sigma) == 0.0):
        raise SingularTime("conditional score undefined at sigma_t = 0")
    if x0.ndim == 1:
        return -(x_t - mu * x0) / sigma ** 2
    mu = np.broadcast_to(np.asarray(mu), (x0.shape[0],))[:, None]
    sigma = np.broadcast_to(np.asarray(sigma), (x0.shape[0],))[:, None]
    return -(x_t - mu * x0) / sigma ** 2


def network_score(arch, params):
    """Score callable (x, t) -> f(concat(x, t)) backed by a network; every
    call writes x and t side by side into the input buffer of one workspace
    the score owns for as long as it lives, and runs the pass there."""
    if arch.output_dim != arch.input_dim - 1:
        raise DimensionMismatch("score network must map D + 1 -> D")
    workspace = wsnn.Workspace(arch)
    dim = arch.output_dim

    def score(x, t):
        x = np.asarray(x, dtype=np.float64)
        xb = x[None, :] if x.ndim == 1 else x
        if xb.ndim != 2 or xb.shape[1] != dim:
            raise DimensionMismatch(f"score input width {xb.shape[-1]} != D = {dim}")
        inp = workspace.inputs(xb.shape[0])
        inp[:, :dim] = xb
        inp[:, dim] = t
        out = wsnn.forward(arch, params, inp, workspace)
        return out[0] if x.ndim == 1 else out

    return score


def score_at(score, x, t):
    """score(x, t) as a float64 array, which must have the shape of x.  A
    score is any callable (x, t) -> array shaped like x; the samplers and
    score_mse evaluate every score through this check."""
    out = np.asarray(score(x, t), dtype=np.float64)
    if out.shape != np.shape(x):
        raise DimensionMismatch(f"score output shape {out.shape} != input shape "
                                f"{np.shape(x)}")
    return out


def dsm_loss(arch, params, schedule, x0, x_t, t):
    """Denoising loss |f(x_t, t) + (x_t - mu_t x0) / sigma_t^2|^2,
    averaged over the batch when inputs are batched."""
    f = network_score(arch, params)(x_t, t)
    resid = f - conditional_score(schedule, x0, x_t, t)
    return float(np.mean(np.sum(np.atleast_2d(resid) ** 2, axis=1)))


def dsm_value_and_grads(arch, params, schedule, x0, t, z, workspace=None):
    """(loss, parameter gradients) of the batch-mean denoising loss
    |f(x_t, t) + (x_t - mu_t x0) / sigma_t^2|^2 at x_t = mu_t x0 + sigma_t z,
    for a (B, D) batch x0, its (B, D) noise z and one time per row (or one
    shared time).  mu_t and sigma_t are computed once; x_t and t are written
    straight into the network input of `workspace`, where the pass runs,
    and the residual is formed in place in the network output.  z is only
    read."""
    x0 = np.asarray(x0, dtype=np.float64)
    b, dim = x0.shape
    if np.shape(z) != (b, dim) or dim + 1 != arch.input_dim:
        raise DimensionMismatch(f"batch {x0.shape} and noise {np.shape(z)} do not "
                                f"fit a network of input width {arch.input_dim}")
    ws = wsnn._workspace(arch, workspace)
    mu, sigma = schedule.mu_sigma(t)
    mu, sigma = np.reshape(mu, (-1, 1)), np.reshape(sigma, (-1, 1))
    if np.any(sigma == 0.0):
        raise SingularTime("conditional score undefined at sigma_t = 0")
    inp = ws.inputs(b)
    x_t = np.multiply(sigma, z, out=inp[:, :dim])
    mu_x0 = mu * x0
    x_t += mu_x0
    inp[:, dim] = t
    # minus the conditional score: (x_t - mu_t x0) / sigma_t^2
    target = np.subtract(x_t, mu_x0, out=mu_x0)
    target /= sigma ** 2

    def head(out):
        resid = np.add(out, target, out=out)
        loss = float(np.mean(np.sum(resid ** 2, axis=1)))
        resid *= 2.0
        resid /= b
        return loss, resid

    loss, grads, _ = wsnn.value_and_grads(arch, params, inp, head, ws)
    return loss, grads


@dataclass
class TrainConfig:
    batch_size: int = 128
    learning_rate: float = 1e-3
    steps: int = 2000
    seed: int = 0
    epoch_len: int = None  # trace bucket size; defaults to max(1, n // batch)

    def __post_init__(self):
        if self.steps < 1:
            raise BadConfig("steps must be >= 1")
        if self.batch_size < 1:
            raise BadConfig("batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise BadConfig("learning_rate must be finite and >= 0")


class AdamState:
    """Adam over one flat buffer.  The trained parameters and both moment
    accumulators are flat arrays; `params` is a copy of the initial
    parameters whose arrays are views into the parameter buffer, so a step
    is one elementwise update of the whole buffer."""

    def __init__(self, params):
        arrays = params.weights + params.biases
        self.flat = np.concatenate(arrays, axis=None)
        ends = np.cumsum([a.size for a in arrays])
        views = [v.reshape(a.shape)
                 for a, v in zip(arrays, np.split(self.flat, ends[:-1]))]
        self.params = wsnn.WsnnParams(views[:len(params.weights)],
                                      views[len(params.weights):])
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0
        self._grad = np.empty_like(self.flat)
        self._scratch = np.empty_like(self.flat)

    def step(self, grads, lr):
        """One update, m += (1 - b1) g, v += (1 - b2) g g and
        flat -= lr (m / c1) / (sqrt(v / c2) + eps) after the decays, run
        elementwise in that order over two scratch buffers."""
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        g, s = self._grad, self._scratch
        np.concatenate(grads.weights + grads.biases, axis=None, out=g)
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        self.m *= b1
        self.m += np.multiply(g, 1.0 - b1, out=s)
        self.v *= b2
        np.multiply(g, 1.0 - b2, out=s)
        s *= g
        self.v += s
        np.divide(self.m, c1, out=s)
        s *= lr
        np.divide(self.v, c2, out=g)
        np.sqrt(g, out=g)
        g += eps
        s /= g
        self.flat -= s


def _row_classes(x_data):
    """(order, cls): the lexicographic row order of x_data, and for each row
    the index of its class of equal rows in that order."""
    order = np.lexsort(x_data.T[::-1])
    new = np.zeros(order.size, dtype=np.int64)
    for col in x_data.T:
        c = col[order]
        new[1:] |= c[1:] != c[:-1]
    cls = np.empty_like(order)
    cls[order] = np.cumsum(new)
    return order, cls


@dataclass
class TraceRow:
    epoch: int
    mean_loss: float
    score_mse: float  # nan when not probed
    wall_time_s: float


def write_trace_csv(path, trace):
    with open(path, "w") as fh:
        fh.write("epoch,mean_loss,score_mse,wall_time_s\n")
        for row in trace:
            sm = "" if math.isnan(row.score_mse) else repr(row.score_mse)
            fh.write(f"{row.epoch},{row.mean_loss!r},{sm},{row.wall_time_s!r}\n")


def fit(x_data, arch, init_params, config, objective, probe=None):
    """Adam descent of objective(params, batch, rng) -> (loss, grads) over
    minibatches of the rows of x_data.

    Step k draws its minibatch (with replacement, or all rows when the batch
    covers them) from the substream rng = Rng(config.seed).child(1, k),
    sorts it lexicographically and hands the same rng to the objective for
    any further draws; masks are reapplied after every step.  The dataset
    is sorted once per fit, and a minibatch is ordered by the sorted place
    of its rows, equal rows kept in draw order: the bytes a stable sort of
    the minibatch itself gives.  Losses are averaged over trace epochs of
    config.epoch_len steps (n // batch_size by default), and
    probe(params, rng), when given, is recorded as the epoch's score_mse
    with rng = Rng(config.seed).child(2, k).

    Returns (trained params, list of TraceRow).
    """
    n = x_data.shape[0]
    adam = AdamState(init_params)
    params = wsnn.apply_masks(adam.params, arch)
    root = Rng(config.seed)
    epoch_len = config.epoch_len or max(1, n // config.batch_size)
    order, cls = _row_classes(x_data)
    full = x_data[order] if config.batch_size >= n else None

    trace = []
    bucket = []
    t0 = time.perf_counter()
    for step in range(config.steps):
        rs = root.child(1, step)
        if full is None:
            idx = rs.integers(0, n, config.batch_size)
            batch = x_data[idx[np.argsort(cls[idx], kind="stable")]]
        else:
            batch = full
        loss, grads = objective(params, batch, rs)
        adam.step(grads, config.learning_rate)
        wsnn.apply_masks(params, arch)
        bucket.append(loss)
        if (step + 1) % epoch_len == 0 or step + 1 == config.steps:
            sm = math.nan if probe is None else probe(params, root.child(2, step))
            trace.append(TraceRow(len(trace) + 1, float(np.mean(bucket)), sm,
                                  time.perf_counter() - t0))
            bucket = []
    return params, trace


def train(dataset, arch, init_params, schedule, config, score_probe=None):
    """Stochastic denoising score matching with Adam.

    Per step: draw a minibatch, draw t ~ Uniform[t_min, t_max] and the
    forward noise independently per element, and descend the mean denoising
    loss.  All randomness derives from config.seed, so runs are repeatable.
    score_probe, when given as (density, n_mc), records a score-MSE estimate
    once per trace epoch.

    Returns (trained params, list of TraceRow).
    """
    x_data = dataset.x if hasattr(dataset, "x") else np.atleast_2d(np.asarray(dataset))
    n, dim = x_data.shape
    if n < 1:
        raise EmptyDataset("train requires a nonempty dataset")
    if dim + 1 != arch.input_dim:
        raise DimensionMismatch(
            f"dataset dim {dim} needs input width {dim + 1}, arch has {arch.input_dim}")
    if arch.output_dim != dim:
        raise DimensionMismatch("network output width must equal the data dimension")

    workspace = wsnn.Workspace(arch)
    noise = np.empty((min(n, config.batch_size), dim))

    def objective(params, batch, rng):
        t = rng.uniform(batch.shape[0], schedule.t_min, schedule.t_max)
        z = rng.standard_normal(noise.size, out=noise)
        return dsm_value_and_grads(arch, params, schedule, batch, t, z, workspace)

    probe = None
    if score_probe is not None:
        density, n_mc = score_probe

        def probe(params, rng):
            return score_mse(network_score(arch, params), density, schedule,
                             n_mc, rng).value

    return fit(x_data, arch, init_params, config, objective, probe)


def score_mse(score, density, schedule, n_mc, rng):
    """Monte Carlo estimate of the time-integrated squared score error

        int_Tmin^Tmax E |score(X_t, t) - grad log p_t(X_t)|^2 dt

    for a density with an analytic noised score.  Returns an McEstimate."""
    r_t, r_x0, r_z = rng.split(3)
    t = r_t.uniform(n_mc, schedule.t_min, schedule.t_max)
    x_t = forward_sample(schedule, density.sample(n_mc, r_x0).x, t, r_z)

    # the analytic score first: while it runs, no network workspace holds
    # its activations and input buffer yet
    f_true = score_t_batch(density, x_t, t, schedule)
    err = score_at(score, x_t, t) - f_true
    vals = (schedule.t_max - schedule.t_min) * np.sum(np.square(err, out=err), axis=1)
    se = float(np.std(vals, ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else math.inf
    return McEstimate(float(np.mean(vals)), se, n_mc)


def score_t_batch(density, x, t, schedule):
    """Analytic noised score at one time per row of x (or one shared time)."""
    return density.score_t(x, t, schedule)
