"""Reverse-time SDE sampling, Langevin sampling, and vanilla score matching.

Both samplers run one float32 Euler-Maruyama chain, `_chain`, on per-step
coefficients (t, a, c, h, s).  The reverse sampler integrates

    dY = [alpha Y + 2 alpha f(Y, Tmax - t)] dt + sqrt(2 alpha) dB,  Y_0 ~ N(0, I)

on a uniform grid over [0, Tmax - Tmin] with steps (t, alpha, 2 alpha, h,
sqrt(2 alpha h)); the unadjusted Langevin sampler, with the drift
+grad log p (the sign that makes p stationary), has steps
(0, 0, h, h, sqrt(2 h)).
Vanilla score matching trains a time-free D -> D network on
tr(grad f(x)) + |f(x)|^2 / 2 with the divergence replaced by central
differences along random +-1 directions (sliced score matching); the
exact divergence, read off the network's piecewise-linear structure,
evaluates the loss.  `diffusion.network_score` turns the trained network
into the Langevin sampler's score, and the sample block file lives in
`formats` with the other file formats.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import wsnn
from .diffusion import Objective, fit, score_at
from .errors import (BadConfig, DimensionMismatch, DimensionTooLarge,
                     InvalidSize, NonFiniteState)

_BLOWUP = 1e6
_DIVERGENCE_STEP = 0.1  # difference width of the trained divergence
_DIRECTIONS = 3  # Rademacher directions per row of the trained divergence


def analytic_score(density, schedule):
    return lambda x, t: density.score_t(x, t, schedule)


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
    the state x, given as |x| (the chain writes it into a buffer it owns), is
    non-finite or has left +-_BLOWUP.  One pass finds max |x|; a NaN
    propagates through it and fails the bound check."""
    big = float(np.max(abs_x))
    if not big <= _BLOWUP:
        at = f"step {step}" if t is None else f"step {step} (reverse time {t:.6g})"
        raise NonFiniteState(f"state left +-{_BLOWUP:g} during {where} at {at}, "
                             f"max |state| = {big:.6g}")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _chain(score, steps, n, dim, rng, where, timed):
    """Euler-Maruyama samples, shape (n, dim), of the chain
    y += h (c f(y, t) + a y) + s z over steps, an iterable of (t, a, c, h, s)
    Python floats, from y_0 ~ N(0, I); with a = 0 the linear term and its
    scaling by h are skipped, so c carries h.  The state, the drift and the
    noise are float32 buffers the chain owns, with float32 normals drawn
    into them, so every step's arithmetic stays float32; the score's
    output, of either float dtype, is read, never written, and rounded to
    float32 as it is scaled into the drift.  Float overflow is left to the
    guard, which raises NonFiniteState after the step, naming where and,
    when timed, t.  The samples widen to float64 on return."""
    y = rng.standard_normal(n * dim, out=np.empty((n, dim), np.float32))
    drift = np.empty_like(y)
    noise = np.empty_like(y)
    for k, (t, a, c, h, s) in enumerate(steps):
        np.multiply(score_at(score, y, t), c, out=drift)
        if a:
            drift += np.multiply(y, a, out=noise)  # noise is free until the draw
            drift *= h
        rng.standard_normal(n * dim, out=noise)
        y += drift
        noise *= s
        y += noise
        _guard(np.abs(y, out=noise), where, k, t if timed else None)
    return y.astype(np.float64)


def reverse_sde_sample(score, schedule, config, dim, rng):
    """Reverse-SDE samples, shape (n_samples, dim), on the uniform
    forward-time grid T_max = t_0 > ... > t_n = T_min: `_chain` with step k
    at t = t_k, h = t_k - t_{k+1} and a = alpha(t_k), formed as the chain
    reaches it."""
    times = np.linspace(schedule.t_max, schedule.t_min, config.n_steps + 1).tolist()

    def steps():
        for t, t_next in zip(times, times[1:]):
            a, h = float(schedule.alpha_at(t)), t - t_next
            yield t, a, 2.0 * a, h, math.sqrt(2.0 * a * h)

    return _chain(score, steps(), config.n_samples, dim, rng, "reverse SDE sampling", True)


def langevin_sample(score, step_size, n_steps, n_samples, dim, rng):
    """Unadjusted Langevin samples, shape (n_samples, dim): `_chain` with
    the score at t = 0 and no linear term, z += h f(z) + sqrt(2h) noise,
    h = step_size.  A step_size not above 0 and finite raises BadConfig;
    n_steps or n_samples below 1 raises InvalidSize."""
    if not 0 < step_size < math.inf:
        raise BadConfig(f"Langevin step_size must be > 0 and finite, got {step_size}")
    if n_steps < 1:
        raise InvalidSize("n_steps must be >= 1")
    if n_samples < 1:
        raise InvalidSize(f"n_samples must be >= 1, got {n_samples}")
    h = float(step_size)
    steps = itertools.repeat((0.0, 0.0, h, h, math.sqrt(2.0 * h)), n_steps)
    return _chain(score, steps, n_samples, dim, rng, "Langevin sampling", False)


# --- vanilla score matching -------------------------------------------------


def _divergence_exact(mats, acts):
    """tr(grad f) per batch element for a piecewise-linear (ReLU) network
    given its materialised layer matrices and the feature-major input and
    post-ReLU hidden activations of one pass, each with its ones row: the
    input Jacobian of each activation is carried forward through the ReLU
    masks (relu(z) > 0 exactly where z > 0), taken row by row."""
    dim, b = acts[0].shape[0] - 1, acts[0].shape[1]
    jac = np.broadcast_to(np.eye(dim), (b, dim, dim))
    for A, h in zip(mats[:-1], acts[1:]):
        jac = (h[:-1] > 0.0).T.copy()[:, :, None] * np.einsum("oh,bhd->bod", A, jac)
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
    wsnn._check_params(arch, params)
    ws = wsnn.Workspace(arch)
    f, layers, acts = wsnn._forward_cache(arch, params, ws.load(x), ws)
    return _divergence_exact(layers.weights, acts) + 0.5 * np.sum(f * f, axis=0)


def vanilla_sm_sliced_value_and_grads(arch, params, x, v, delta, workspace=None):
    """Loss/gradients with the divergence replaced by its sliced central
    difference (1/k) sum_j v_j . (f(x + delta v_j) - f(x - delta v_j)) / (2 delta)
    over the directions v, a (k, B, D) array of +-1 entries: Hutchinson's
    trace estimator, as in finite-difference sliced score matching.  Unlike
    the exact divergence it is continuous in the parameters, which is what
    makes gradient descent on a ReLU network stable here.  The step is a
    training step's pass and `_sliced_head` on the one-step block of
    `_sliced_block`, in the dtype of params."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    b, dim = x.shape
    if dim != arch.input_dim:
        raise DimensionMismatch(f"input width {dim} != d_1 = {arch.input_dim}")
    v = np.asarray(v, dtype=np.float64)
    if v.shape[1:] != (b, dim) or len(v) < 1:
        raise DimensionMismatch(f"directions of shape {v.shape} are not (k, {b}, {dim})")
    stacked = _sliced_block(x[None], v[None], delta, wsnn._check_params(arch, params))
    return wsnn.value_and_grads(arch, params, stacked[0],
                                lambda out: _sliced_head(out, v, delta), workspace)


def _sliced_block(x, v, delta, dtype):
    """The stacked inputs of K sliced steps at once, feature-major, for
    (K, B, D) batches x (which may broadcast) and (K, k, B, D) float64
    directions v: each step's 2k + 1 column blocks
    [x; x + delta v_j; x - delta v_j], whatever D is, formed in float64 and
    rounded once into rows [:D] of a (K, D + 1, (2k + 1) B) array of dtype
    whose last row is ones, so that each step is one stacked pass."""
    n_steps, k, b, dim = v.shape
    stacked = np.empty((n_steps, dim + 1, 2 * k + 1, b), dtype)
    shift = delta * np.moveaxis(v, 3, 1)
    x = np.swapaxes(x, 1, 2)[:, :, None]
    stacked[:, :dim, :1] = x
    stacked[:, :dim, 1:k + 1] = x + shift
    stacked[:, :dim, k + 1:] = x - shift
    stacked[:, dim] = 1.0
    return stacked.reshape(n_steps, dim + 1, -1)


def _sliced_head(out, v, delta):
    """(loss, output gradient) of one sliced step from the network's
    (D, (2k + 1) B) output on its stacked input and the step's (k, B, D)
    float64 directions."""
    k, b, dim = v.shape
    scale = 1.0 / (2.0 * delta * k)
    v = np.moveaxis(v, 2, 0)
    out = out.reshape(dim, 2 * k + 1, b)
    f = out[:, 0]
    div = np.einsum("djb,djb->b", v, out[:, 1:k + 1] - out[:, k + 1:]) * scale
    g = np.concatenate([f[:, None] / b, v * (scale / b), v * (-scale / b)], axis=1,
                       dtype=out.dtype)
    return float(np.mean(div + 0.5 * np.sum(f * f, axis=0))), g.reshape(dim, -1)


def train_vanilla_sm(dataset, arch, init_params, config):
    """Adam minimisation of the vanilla score-matching objective, through
    `fit`.

    The network must map D -> D, checked once.  Training descends the
    sliced divergence of width _DIVERGENCE_STEP on _DIRECTIONS Rademacher
    directions per row (the exact divergence's gradient ignores ReLU kink
    motion and empirically ratchets the loss upward): per block of K steps
    the objective draws the (K, _DIRECTIONS, B, D) signs from fit's stream
    after the minibatches, `_sliced_block` forms every step's stacked
    input at once, and each step's head is `_sliced_head` on its signs, as
    in `vanilla_sm_sliced_value_and_grads`.
    A step passes (2 _DIRECTIONS + 1) B rows, so at batch 128 a block is
    one step.  `fit` checks the data and the output width and keeps the
    float64 master.
    """
    if arch.input_dim != arch.output_dim:
        raise DimensionMismatch(f"vanilla score matching maps D -> D, not "
                                f"{arch.input_dim} -> {arch.output_dim}")

    def block(batches, rng, dtype):
        k_steps, b, dim = batches.shape
        v = 2.0 * rng.integers(0, 2, (k_steps, _DIRECTIONS, b, dim)) - 1.0
        return _sliced_block(batches, v, _DIVERGENCE_STEP, dtype), v

    return fit(dataset, arch, init_params, config,
               Objective(2 * _DIRECTIONS + 1, block,
                         lambda out, v: _sliced_head(out, v, _DIVERGENCE_STEP)))
