"""Reverse-time SDE sampling, Langevin sampling, and vanilla score matching.

The reverse sampler integrates

    dY = [alpha Y + 2 alpha f(Y, Tmax - t)] dt + sqrt(2 alpha) dB,  Y_0 ~ N(0, I)

by Euler-Maruyama on a uniform grid over [0, Tmax - Tmin].  The Langevin
sampler uses the drift +grad log p (the sign that makes p stationary).
Vanilla score matching trains a time-free network on
tr(grad f(x)) + |f(x)|^2 / 2 with the divergence computed exactly from the
network's piecewise-linear structure.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import wsnn
from .diffusion import fit, network_score
from .errors import (CorruptFile, DimensionMismatch, DimensionTooLarge,
                     EmptyDataset, InvalidSize, NonFiniteState)
from .numerics import Rng

_BLOWUP = 1e6
_DIVERGENCE_STEP = 0.1  # stencil width of the trained divergence


@dataclass(frozen=True)
class ScoreFunction:
    """Callable (x, t) -> score with a provenance tag."""

    fn: callable
    tag: str = "analytic"  # learned | analytic | zero

    def __call__(self, x, t):
        out = np.asarray(self.fn(x, t), dtype=np.float64)
        if out.shape != np.shape(x):
            raise DimensionMismatch("score output shape must match input")
        return out


def zero_score():
    return ScoreFunction(lambda x, t: np.zeros_like(np.asarray(x, dtype=np.float64)),
                         tag="zero")


def analytic_score(density, schedule):
    return ScoreFunction(lambda x, t: density.score_t(x, t, schedule),
                         tag="analytic")


def learned_score(arch, params):
    return ScoreFunction(network_score(arch, params), tag="learned")


def learned_score_time_free(arch, params):
    """Score from a D -> D network that ignores the time argument."""
    return ScoreFunction(lambda x, t: wsnn.forward(arch, params, x),
                         tag="learned")


@dataclass(frozen=True)
class SamplerConfig:
    n_steps: int = 500
    n_samples: int = 1000
    seed: int = 0
    grid: str = "uniform"  # or "geometric": finer steps near t_min

    def __post_init__(self):
        if self.n_steps < 1:
            raise InvalidSize("n_steps must be >= 1")
        if self.n_samples < 1:
            raise InvalidSize("n_samples must be >= 1")
        if self.grid not in ("uniform", "geometric"):
            raise ValueError("grid must be 'uniform' or 'geometric'")


def _guard(x, where):
    if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > _BLOWUP:
        raise NonFiniteState(f"state left +-{_BLOWUP:g} during {where}")


def _reverse_times(schedule, config):
    """Forward-time grid T_max = t_0 > ... > t_n = T_min for the reverse run."""
    if config.grid == "uniform":
        return np.linspace(schedule.t_max, schedule.t_min, config.n_steps + 1)
    return np.geomspace(schedule.t_max, schedule.t_min, config.n_steps + 1)


def reverse_sde_sample(score, schedule, config, dim, rng=None):
    """Euler-Maruyama reverse-SDE samples, shape (n_samples, dim)."""
    rng = rng if rng is not None else Rng(config.seed)
    n = config.n_samples
    y = rng.standard_normal(n * dim).reshape(n, dim)
    times = _reverse_times(schedule, config)
    for k in range(config.n_steps):
        t_rev = times[k]
        h = times[k] - times[k + 1]
        a = schedule.alpha_at(t_rev)
        drift = a * y + 2.0 * a * score(y, t_rev)
        z = rng.standard_normal(n * dim).reshape(n, dim)
        y = y + h * drift + math.sqrt(2.0 * a * h) * z
        _guard(y, "reverse SDE sampling")
    return y


def langevin_sample(score, step_size, n_steps, n_samples, dim, rng):
    """Unadjusted Langevin chain Z += h * score(Z) + sqrt(2h) * noise."""
    if step_size <= 0:
        raise ValueError("step_size must be positive")
    if n_steps < 1:
        raise InvalidSize("n_steps must be >= 1")
    z = rng.standard_normal(n_samples * dim).reshape(n_samples, dim)
    root_2h = math.sqrt(2.0 * step_size)
    for _ in range(n_steps):
        noise = rng.standard_normal(n_samples * dim).reshape(n_samples, dim)
        z = z + step_size * score(z, 0.0) + root_2h * noise
        _guard(z, "Langevin sampling")
    return z


# --- vanilla score matching -------------------------------------------------


def _masks_and_prefixes(mats, biases, x):
    """Per-element ReLU masks and input Jacobians J_k of each activation."""
    depth = len(mats)
    b, dim = x.shape
    a = x
    masks = []
    prefixes = [np.broadcast_to(np.eye(dim), (b, dim, dim))]
    for i in range(depth - 1):
        z = a @ mats[i].T + biases[i]
        mask = (z > 0.0).astype(np.float64)
        masks.append(mask)
        jac = np.einsum("oh,bhd->bod", mats[i], prefixes[-1])
        prefixes.append(mask[:, :, None] * jac)
        a = np.maximum(z, 0.0)
    return masks, prefixes


def _divergence_exact(mats, biases, x):
    """tr(grad f) per batch element for a piecewise-linear (ReLU) network
    given the materialised layer matrices."""
    _, prefixes = _masks_and_prefixes(mats, biases, x)
    return np.einsum("oh,bho->b", mats[-1], prefixes[-1])


def _divergence_fd(arch, params, x, step=1e-4):
    b, dim = x.shape
    out = np.zeros(b)
    for d in range(dim):
        e = np.zeros(dim)
        e[d] = step
        fp = wsnn.forward(arch, params, x + e)
        fm = wsnn.forward(arch, params, x - e)
        out += (np.atleast_2d(fp)[:, d] - np.atleast_2d(fm)[:, d]) / (2.0 * step)
    return out


def vanilla_sm_pointwise(arch, params, x, method="exact"):
    """Per-sample losses tr(grad f(x)) + |f(x)|^2 / 2.

    `method` selects the exact divergence (reverse passes through the
    materialised layers) or a central finite-difference fallback.
    """
    if arch.input_dim != arch.output_dim:
        raise DimensionMismatch("vanilla score matching needs d_1 = d_{L+1}")
    if arch.input_dim > 64:
        raise DimensionTooLarge("exact divergence is limited to D <= 64")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != arch.input_dim:
        raise DimensionMismatch("input width does not match the network")
    f = np.atleast_2d(wsnn.forward(arch, params, x))
    if method == "exact":
        mats, bs = wsnn.effective_layers(arch, params)
        div = _divergence_exact(mats, bs, x)
    elif method == "fd":
        div = _divergence_fd(arch, params, x)
    else:
        raise ValueError("method must be 'exact' or 'fd'")
    return div + 0.5 * np.sum(f * f, axis=1)


def vanilla_sm_loss(arch, params, x, method="exact"):
    """Mean vanilla score-matching loss over the batch."""
    return float(np.mean(vanilla_sm_pointwise(arch, params, x, method)))


def _divergence_grads(arch, mats, biases, x):
    """Parameter gradients of mean tr(grad f) over the batch.

    With masks M_i = diag(z_i > 0), the Jacobian is
    A_L M_{L-1} ... M_1 A_1 and d tr / d A_k = U_k^T J_{k-1}^T for the
    suffix U_k and prefix J_{k-1}; masks contribute nothing almost
    everywhere, so bias gradients vanish.
    """
    depth = len(mats)
    b = x.shape[0]
    masks, prefixes = _masks_and_prefixes(mats, biases, x)
    d_effective = [None] * depth
    # batch-summed d tr / d A_L = sum_b J_{L-1}^T
    d_effective[depth - 1] = prefixes[depth - 1].sum(axis=0).T
    # suffix recursion U_k = A_L M_{L-1} A_{L-1} ... M_k, per element
    u = np.broadcast_to(mats[-1], (b,) + mats[-1].shape)
    for k in range(depth - 2, -1, -1):
        u_masked = u * masks[k][:, None, :]
        d_effective[k] = np.einsum("bdo,bhd->oh", u_masked, prefixes[k])
        u = np.einsum("bdo,oh->bdh", u_masked, mats[k])
    d_grads = []
    for k in range(depth - 1):
        dW, _ = wsnn.replica_fold(d_effective[k] / b, np.zeros(mats[k].shape[0]),
                                  arch.q_perms[k], arch.r_perms[k])
        d_grads.append(dW)
    d_grads.append(d_effective[depth - 1] / b)
    return d_grads


def vanilla_sm_value_and_grads(arch, params, x):
    """(loss, parameter gradients) of the mean vanilla score-matching loss.

    The divergence gradient treats the ReLU masks as locally constant, which
    is exact almost everywhere but blind to kink crossings; use the stencil
    variant for optimisation.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    b = x.shape[0]
    f = np.atleast_2d(wsnn.forward(arch, params, x))
    mats, bs = wsnn.effective_layers(arch, params)
    div = _divergence_exact(mats, bs, x)
    loss = float(np.mean(div + 0.5 * np.sum(f * f, axis=1)))
    grads, _ = wsnn.backward(arch, params, x, f / b)
    div_w = _divergence_grads(arch, mats, bs, x)
    for gw, dw in zip(grads.weights, div_w):
        gw += dw
    return loss, grads


def vanilla_sm_stencil_value_and_grads(arch, params, x, delta):
    """Loss/gradients with the divergence replaced by the central stencil
    sum_i (f_i(x + delta e_i) - f_i(x - delta e_i)) / (2 delta).

    Unlike the pointwise-exact gradient, this objective is continuous in the
    parameters (kink crossings are smeared over the stencil width), which is
    what makes gradient descent on a ReLU network stable here.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    b, dim = x.shape
    f = np.atleast_2d(wsnn.forward(arch, params, x))
    grads, _ = wsnn.backward(arch, params, x, f / b)
    div = np.zeros(b)
    pick = 1.0 / (2.0 * delta * b)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = delta
        sel = np.zeros((b, dim))
        sel[:, i] = pick
        fp = np.atleast_2d(wsnn.forward(arch, params, x + e))
        fm = np.atleast_2d(wsnn.forward(arch, params, x - e))
        div += (fp[:, i] - fm[:, i]) / (2.0 * delta)
        g_plus, _ = wsnn.backward(arch, params, x + e, sel)
        g_minus, _ = wsnn.backward(arch, params, x - e, -sel)
        for acc, a1, a2 in zip(grads.weights + grads.biases,
                               g_plus.weights + g_plus.biases,
                               g_minus.weights + g_minus.biases):
            acc += a1 + a2
    loss = float(np.mean(div + 0.5 * np.sum(f * f, axis=1)))
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
    return fit(x_data, arch, init_params, config,
               lambda params, batch, rng: vanilla_sm_stencil_value_and_grads(
                   arch, params, batch, _DIVERGENCE_STEP))


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
