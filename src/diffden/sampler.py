"""Reverse-time SDE sampling, Langevin sampling, and vanilla score matching.

The reverse sampler integrates

    dY = [alpha Y + 2 alpha f(Y, Tmax - t)] dt + sqrt(2 alpha) dB,  Y_0 ~ N(0, I)

by Euler-Maruyama on a uniform grid over [0, Tmax - Tmin].  The Langevin
sampler uses the drift +grad log p (the sign that makes p stationary).
Vanilla score matching trains a time-free network on
tr(grad f(x)) + |f(x)|^2 / 2 with the divergence replaced by a central
stencil; the exact divergence, read off the network's piecewise-linear
structure, evaluates the loss.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import wsnn
from .diffusion import fit, score_at
from .errors import (BadConfig, CorruptFile, DimensionMismatch,
                     DimensionTooLarge, EmptyDataset, InvalidSize,
                     NonFiniteState)

_BLOWUP = 1e6
_DIVERGENCE_STEP = 0.1  # stencil width of the trained divergence


def analytic_score(density, schedule):
    return lambda x, t: density.score_t(x, t, schedule)


def learned_score_time_free(arch, params):
    """Score from a D -> D network that ignores the time argument; reuses
    one workspace for as long as it lives."""
    workspace = wsnn.Workspace(arch)
    return lambda x, t: wsnn.forward(arch, params, x, workspace)


@dataclass(frozen=True)
class SamplerConfig:
    n_steps: int = 500
    n_samples: int = 1000

    def __post_init__(self):
        if self.n_steps < 1:
            raise InvalidSize("n_steps must be >= 1")
        if self.n_samples < 1:
            raise InvalidSize("n_samples must be >= 1")


def _guard(abs_x, where, step, t=None):
    """Raise NonFiniteState naming the step (and reverse time t) after which
    the state x, given as |x| (the loop writes it into a buffer it owns), is
    non-finite or has left +-_BLOWUP.  One pass finds max |x|; a NaN
    propagates through it and fails the bound check."""
    big = float(np.max(abs_x))
    if not big <= _BLOWUP:
        at = f"step {step}" if t is None else f"step {step} (reverse time {t:.6g})"
        raise NonFiniteState(f"state left +-{_BLOWUP:g} during {where} at {at}, "
                             f"max |state| = {big:.6g}")


def reverse_sde_sample(score, schedule, config, dim, rng):
    """Euler-Maruyama reverse-SDE samples, shape (n_samples, dim), on the
    uniform forward-time grid T_max = t_0 > ... > t_n = T_min.

    Per step, y += h (a y + 2 a f(y, t)) + sqrt(2 a h) z.  The drift and
    the noise live in two buffers the loop owns; the score's output is
    read, never written."""
    n = config.n_samples
    y = rng.standard_normal(n * dim).reshape(n, dim)
    drift = np.empty_like(y)
    noise = np.empty_like(y)
    times = np.linspace(schedule.t_max, schedule.t_min, config.n_steps + 1)
    for k in range(config.n_steps):
        t_rev = times[k]
        h = times[k] - times[k + 1]
        a = schedule.alpha_at(t_rev)
        np.multiply(score_at(score, y, t_rev), 2.0 * a, out=drift)
        drift += np.multiply(y, a, out=noise)  # noise is free until the draw
        rng.standard_normal(n * dim, out=noise)
        drift *= h
        y += drift
        noise *= math.sqrt(2.0 * a * h)
        y += noise
        _guard(np.abs(y, out=noise), "reverse SDE sampling", k, t_rev)
    return y


def langevin_sample(score, step_size, n_steps, n_samples, dim, rng):
    """Unadjusted Langevin chain Z += h * score(Z) + sqrt(2h) * noise, with
    the drift and the noise in two buffers the loop owns."""
    if not step_size > 0:
        raise BadConfig(f"Langevin step_size must be > 0, got {step_size}")
    if n_steps < 1:
        raise InvalidSize("n_steps must be >= 1")
    z = rng.standard_normal(n_samples * dim).reshape(n_samples, dim)
    drift = np.empty_like(z)
    noise = np.empty_like(z)
    root_2h = math.sqrt(2.0 * step_size)
    for k in range(n_steps):
        rng.standard_normal(n_samples * dim, out=noise)
        z += np.multiply(score_at(score, z, 0.0), step_size, out=drift)
        noise *= root_2h
        z += noise
        _guard(np.abs(z, out=noise), "Langevin sampling", k)
    return z


# --- vanilla score matching -------------------------------------------------


def _divergence_exact(mats, acts):
    """tr(grad f) per batch element for a piecewise-linear (ReLU) network
    given its materialised layer matrices and the input and post-ReLU hidden
    activations of one pass: the input Jacobian of each activation is
    carried forward through the ReLU masks (relu(z) > 0 exactly where
    z > 0)."""
    b, dim = acts[0].shape
    jac = np.broadcast_to(np.eye(dim), (b, dim, dim))
    for A, a in zip(mats[:-1], acts[1:]):
        jac = (a > 0.0)[:, :, None] * np.einsum("oh,bhd->bod", A, jac)
    return np.einsum("oh,bho->b", mats[-1], jac)


def vanilla_sm_pointwise(arch, params, x):
    """Per-sample losses tr(grad f(x)) + |f(x)|^2 / 2 with the exact
    divergence, from one network pass."""
    if arch.input_dim != arch.output_dim:
        raise DimensionMismatch("vanilla score matching needs d_1 = d_{L+1}")
    if arch.input_dim > 64:
        raise DimensionTooLarge("exact divergence is limited to D <= 64")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != arch.input_dim:
        raise DimensionMismatch("input width does not match the network")
    f, mats, acts = wsnn._forward_cache(arch, params, x, wsnn.Workspace(arch))
    return _divergence_exact(mats, acts) + 0.5 * np.sum(f * f, axis=1)


def vanilla_sm_loss(arch, params, x):
    """Mean vanilla score-matching loss over the batch."""
    return float(np.mean(vanilla_sm_pointwise(arch, params, x)))


def vanilla_sm_stencil_value_and_grads(arch, params, x, delta, workspace=None):
    """Loss/gradients with the divergence replaced by the central stencil
    sum_i (f_i(x + delta e_i) - f_i(x - delta e_i)) / (2 delta).

    Unlike the exact divergence, this objective is continuous in the
    parameters (kink crossings are smeared over the stencil width), which is
    what makes gradient descent on a ReLU network stable here.  The 2D + 1
    blocks [x; x + delta e_i; x - delta e_i] go through the network as one
    stacked batch: one forward and one backward pass per call, run in
    `workspace`.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    b, dim = x.shape
    shifts = delta * np.eye(dim)[:, None, :]
    stacked = np.concatenate([x[None], x + shifts, x - shifts]).reshape(-1, dim)
    i = np.arange(dim)

    def head(out):
        out = out.reshape(2 * dim + 1, b, dim)
        f = out[0]
        div = ((out[1 + i, :, i] - out[1 + dim + i, :, i]) / (2.0 * delta)).sum(axis=0)
        g = np.zeros_like(out)
        g[0] = f / b
        g[1 + i, :, i] = 1.0 / (2.0 * delta * b)
        g[1 + dim + i, :, i] = -1.0 / (2.0 * delta * b)
        return float(np.mean(div + 0.5 * np.sum(f * f, axis=1))), g.reshape(-1, dim)

    loss, grads, _ = wsnn.value_and_grads(arch, params, stacked, head, workspace)
    return loss, grads


def train_vanilla_sm(dataset, arch, init_params, config):
    """Adam minimisation of the vanilla score-matching objective.

    Training descends the stencil-smoothed divergence (width
    _DIVERGENCE_STEP); the pointwise-exact divergence gradient ignores ReLU
    kink motion and empirically ratchets the loss upward.
    """
    x_data = dataset.x if hasattr(dataset, "x") else np.atleast_2d(np.asarray(dataset))
    n, dim = x_data.shape
    if n < 1:
        raise EmptyDataset("train requires a nonempty dataset")
    if arch.input_dim != dim or arch.output_dim != dim:
        raise DimensionMismatch("vanilla network must map D -> D")
    workspace = wsnn.Workspace(arch)
    return fit(x_data, arch, init_params, config,
               lambda params, batch, rng: vanilla_sm_stencil_value_and_grads(
                   arch, params, batch, _DIVERGENCE_STEP, workspace))


# --- sample containers -------------------------------------------------------


def write_samples_binary(path, x):
    """Binary block: int64 n, int64 D, then float64 samples row-major."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    with open(path, "wb") as fh:
        np.array(x.shape, dtype=np.int64).tofile(fh)
        np.ascontiguousarray(x).tofile(fh)


def read_samples_binary(path):
    with open(path, "rb") as fh:
        n, dim = wsnn.read_exact(fh, np.int64, 2).tolist()
        if n < 0 or dim < 0:
            raise CorruptFile(f"{path}: negative sample block shape ({n}, {dim})")
        x = wsnn.read_exact(fh, np.float64, n * dim).reshape(n, dim)
        wsnn.expect_eof(fh)
    return x
