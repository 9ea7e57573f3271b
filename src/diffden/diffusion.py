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
from typing import Callable, NamedTuple, Union

import numpy as np

from . import wsnn
from .errors import (BadConfig, DimensionMismatch, EmptyDataset, InvalidSize,
                     NegativeTime, NonFiniteState, SingularTime)
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


# bound on t_max and tau_upper * t_max: below it the float32 time input and the
# reverse-SDE drift (~ the horizon squared) stay far inside float32's 3.4e38
MAX_HORIZON = 1e6

# network input rows a training block forms at once: `fit` runs
# K = max(1, _BLOCK_ROWS // rows per step) steps a block (8 denoising steps
# at batch 128, one sliced vanilla-SM step of 7 x 128 rows), so a block's
# draws and inputs stay the size of one 1024-row pass
_BLOCK_ROWS = 1024
# rows per score_mse block: the per-block (rows, D) intermediates stay this size
_MC_BLOCK = 512


@dataclass(frozen=True)
class DiffusionSchedule:
    """Forward-process clock: alpha_t, its bounds, and the time window.

    alpha may be a positive constant (closed-form mu_t) or a callable, in
    which case int_0^t alpha is evaluated by adaptive quadrature to 1e-10.
    A constant alpha, the tau bounds and the times must be finite, and
    neither t_max nor tau_upper * t_max may exceed MAX_HORIZON.  The loss
    weight is identically 1 on [t_min, t_max].
    """

    alpha: Union[float, Callable] = 1.0
    tau_lower: float = None
    tau_upper: float = None
    t_min: float = 1e-3
    t_max: float = 3.0

    def __post_init__(self):
        if not callable(self.alpha):
            object.__setattr__(self, "alpha", float(self.alpha))
            if not 0 < self.alpha < math.inf:
                raise BadConfig(f"constant alpha must be positive and finite, got "
                                f"{self.alpha}")
            if self.tau_lower is None:
                object.__setattr__(self, "tau_lower", self.alpha)
            if self.tau_upper is None:
                object.__setattr__(self, "tau_upper", self.alpha)
        elif self.tau_lower is None or self.tau_upper is None:
            raise BadConfig("callable alpha requires explicit tau bounds")
        if not all(math.isfinite(tau) for tau in (self.tau_lower, self.tau_upper)):
            raise BadConfig(f"tau bounds must be finite, got {self.tau_lower}, "
                            f"{self.tau_upper}")
        if not 0 < self.t_min < self.t_max <= MAX_HORIZON / max(1.0, self.tau_upper):
            raise BadConfig(f"need 0 < t_min < t_max <= {MAX_HORIZON:g} / max(1, tau_upper)"
                            f", got {self.t_min}, {self.t_max}, {self.tau_upper}")

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


def _check_times(t, rows):
    """Refuse t unless it is one time or one time per row of `rows` rows."""
    if np.shape(t) not in ((), (1,), (rows,)):
        raise DimensionMismatch(f"times of shape {np.shape(t)} for {rows} rows")


def forward_sample(schedule, x0, t, rng):
    """Draw x_t = mu_t x0 + sigma_t z, z ~ N(0, I), at one time or one per row."""
    x0 = np.asarray(x0, dtype=np.float64)
    single = x0.ndim == 1
    x = x0[None, :] if single else x0
    _check_times(t, x.shape[0])
    mu, sigma = schedule.mu_sigma(t)
    mu = np.broadcast_to(np.asarray(mu), (x.shape[0],))
    sigma = np.broadcast_to(np.asarray(sigma), (x.shape[0],))
    z = rng.standard_normal(x.size).reshape(x.shape)
    xt = mu[:, None] * x + sigma[:, None] * z
    return xt[0] if single else xt


def network_score(arch, params):
    """Score callable (x, t) backed by a network, whose shape says what to
    do with t: a D + 1 -> D network computes f(concat(x, t)), and a D -> D
    network (vanilla score matching) computes f(x) and ignores t.  It
    evaluates a float32 copy of params, cast once, here, into fresh
    blocks: every call writes x (and t beside it) into the transposed
    (rows, D + 1) view of the feature-major float32 input buffer of one
    workspace the score owns for as long as it lives, runs the pass there
    and returns its float32 output, the (rows, D) view of a fresh
    (D, rows) array.  t is one time or one time per row of x."""
    dim = arch.output_dim
    if arch.input_dim not in (dim, dim + 1):
        raise DimensionMismatch("score network must map D + 1 -> D or D -> D")
    timed = arch.input_dim == dim + 1
    params32 = params.astype(np.float32)
    workspace = wsnn.Workspace(arch, np.float32)

    def score(x, t):
        x = np.asarray(x)
        xb = x[None, :] if x.ndim == 1 else x
        if xb.ndim != 2 or xb.shape[1] != dim:
            raise DimensionMismatch(f"score input width {xb.shape[-1]} != D = {dim}")
        inp = workspace.inputs(xb.shape[0])
        inp[:, :dim] = xb
        if timed:
            _check_times(t, xb.shape[0])
            inp[:, dim] = t
        out = wsnn.forward(arch, params32, inp, workspace)
        return out[0] if x.ndim == 1 else out

    return score


def score_at(score, x, t):
    """score(x, t) as an array, which must have the shape of x; its dtype
    is the score's (float32 for the network scores, float64 for the
    analytic ones).  A score is any callable (x, t) -> array shaped like x;
    the samplers and score_mse evaluate every score through this check."""
    out = np.asarray(score(x, t))
    if out.shape != np.shape(x):
        raise DimensionMismatch(f"score output shape {out.shape} != input shape "
                                f"{np.shape(x)}")
    return out


def dsm_value_and_grads(arch, params, schedule, x0, t, z, workspace=None):
    """(loss, parameter gradients) of the batch-mean denoising loss
    |f(x_t, t) + (x_t - mu_t x0) / sigma_t^2|^2 at x_t = mu_t x0 + sigma_t z,
    for a (B, D) batch x0, its (B, D) noise z and one time per row (or one
    shared time): a training step's pass and `_dsm_head` on the one-step
    block of `_dsm_block`, whose input is of the dtype of params.  The
    pass runs in that dtype, and `workspace` must be of it.  z is only read."""
    x0 = np.asarray(x0, dtype=np.float64)
    b, dim = x0.shape
    if np.shape(z) != (b, dim) or dim + 1 != arch.input_dim:
        raise DimensionMismatch(f"batch {x0.shape} and noise {np.shape(z)} do not "
                                f"fit a network of input width {arch.input_dim}")
    _check_times(t, b)
    inp, target = _dsm_block(schedule, x0[None], t, np.asarray(z)[None],
                             wsnn._check_params(arch, params))
    return wsnn.value_and_grads(arch, params, inp[0],
                                lambda out: _dsm_head(out, target[0]), workspace)


def _dsm_block(schedule, x0, t, z, dtype):
    """(network inputs, targets) of K denoising steps at once, feature-major,
    for (K, B, D) batches x0 and noise z and (K, B) times t (each may
    broadcast, t from one shared time): one mu_sigma call and one sigma_t = 0
    check, then x_t = mu_t x0 + sigma_t z and the target
    (x_t - mu_t x0) / sigma_t^2, minus the conditional score, in float64
    as (K, D, B) arrays, and x_t and t rounded once into rows [:D + 1] of
    the (K, D + 2, B) input of dtype, whose last row is ones."""
    k_steps, b, dim = np.broadcast_shapes(np.shape(x0), np.shape(z))
    mu, sigma = (np.broadcast_to(a, (k_steps, b))[:, None, :] for a in schedule.mu_sigma(t))
    if np.any(sigma == 0.0):
        raise SingularTime("conditional score undefined at sigma_t = 0")
    x_t = np.multiply(sigma, np.swapaxes(z, 1, 2), out=np.empty((k_steps, dim, b)))
    mu_x0 = np.multiply(mu, np.swapaxes(x0, 1, 2), out=np.empty_like(x_t))
    x_t += mu_x0
    inp = np.empty((k_steps, dim + 2, b), dtype)
    inp[:, :dim] = x_t
    inp[:, dim] = t
    inp[:, dim + 1] = 1.0
    target = np.subtract(x_t, mu_x0, out=mu_x0)
    target /= sigma ** 2
    return inp, target


def _dsm_head(out, target):
    """(loss, output gradient) of one denoising step from the network's
    (D, B) output and the step's (D, B) target; the residual is formed in
    place in the output."""
    b = target.shape[1]
    resid = np.add(out, target, out=out)
    # the mean squared row norm as one BLAS dot of the residual's rows
    flat = resid.T.ravel()
    loss = float(np.dot(flat, flat) / b)
    resid *= 2.0
    resid /= b
    return loss, resid


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
        if self.epoch_len is not None and self.epoch_len < 1:
            raise BadConfig("epoch_len must be >= 1, or None for the default")


class AdamState:
    """Adam over one flat float64 master buffer, with a float32 copy for the
    passes and float32 moments.

    The trained parameters are the blocks [W_i | b_i] of `params`, views
    of one flat float64 array (`wsnn.packed`), which start as the initial
    parameters, masked by arch, so a step is one elementwise update of the
    whole buffer.
    Both moment accumulators, the gradient buffer and the update
    arithmetic are float32, the dtype of the passes' gradients, so nothing
    widens per step until the float32 update is subtracted from the
    float64 master (mixed-precision training's usual layout).  `params32`
    views a float32 buffer of that layout holding the parameters rounded
    once: one cast refreshes it after every step and its mask
    reapplication, so a masked entry is the same signed zero in both."""

    def __init__(self, params, arch):
        wsnn._check_params(arch, params)
        self.arch = arch
        self.flat, self.params = wsnn.packed(arch, np.float64)
        self.flat32, self.params32 = wsnn.packed(arch, np.float32)
        wsnn.assign(self.params, params)
        self.m = np.zeros_like(self.flat32)
        self.v = np.zeros_like(self.flat32)
        self.t = 0
        self._grad, self._grads = wsnn.packed(arch, np.float32)
        self._scratch = np.empty_like(self.flat32)
        self._wide = np.empty_like(self.flat)
        self._project()

    def _project(self):
        wsnn.apply_masks(self.params, self.arch)
        np.copyto(self.flat32, self.flat)

    def step(self, grads, lr):
        """One update, m += (1 - b1) g, v += (1 - b2) g g and
        flat -= lr (m / c1) / (sqrt(v / c2) + eps) after the decays, run
        elementwise in that order in float32 over two scratch buffers, the
        update widened into a float64 buffer (a cast copy, where a mixed
        dtype subtraction would allocate numpy's cast buffer); then the
        masks and the float32 copy.  grads of either dtype are cast into
        the float32 g one block at a time (`wsnn.assign`)."""
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        g, s = self._grad, self._scratch
        wsnn.assign(self._grads, grads)
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
        np.copyto(self._wide, s)
        self.flat -= self._wide
        self._project()


def _lex_order(x_data):
    """The lexicographic row order of x_data, equal rows in input order.
    When the first column, sorted, is strictly increasing (no ties, no
    +-0.0 pair, no NaN), its stable argsort is that order; otherwise the
    rows are lexsorted."""
    order = np.argsort(x_data[:, 0], kind="stable")
    first = x_data[order, 0]
    if np.all(first[1:] > first[:-1]):
        return order
    return np.lexsort(x_data.T[::-1])


@dataclass
class TraceRow:
    epoch: int
    mean_loss: float
    wall_time_s: float


class Objective(NamedTuple):
    """A training objective, as `fit` runs it a block of K steps at a time.

    `rows` is the number of network input rows a step passes per batch row.
    block(batches, rng, dtype) takes the block's (K, B, D) minibatches,
    draws from rng what its K steps need and returns (inputs, aux): the
    (K, d_1 + 1, rows B) network inputs of dtype, with their ones rows,
    and what each step's head reads.  head(out, aux[k]) -> (loss, g)
    gives step k's loss and its gradient with respect to the output."""

    rows: int
    block: Callable
    head: Callable


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit(dataset, arch, init_params, config, objective):
    """Adam descent of an `Objective` over minibatches of the rows of
    dataset, a nonempty (n, D) array for a network of output width D,
    coerced once here.

    All training draws come from one stream per fit, Rng(config.seed).child(1),
    a block of K = max(1, _BLOCK_ROWS // (objective.rows * B)) steps at a
    time (B = min(batch_size, n); the last block takes the remaining
    steps): first the block's (K, B) minibatch indices, drawn with
    replacement (none when the batch covers every row: each step then
    gets all rows), then whatever objective.block draws.  The indices
    address the dataset sorted once per fit into lexicographic row order,
    so training depends on it only as a set of rows, at every batch size
    (rows that compare equal keep their input order and differ at most in
    the sign of a zero, which drops out unless it meets only zeros).
    Each step is one `wsnn.value_and_grads` call, with the objective's
    head, on the float32 copy of the parameters (`AdamState.params32`) in
    the one workspace of their dtype that fit builds, and Adam updates
    the float64 master, reapplies the masks and refreshes the copy after
    every step.  Losses are averaged over trace
    epochs of config.epoch_len steps (n // batch_size by default).

    Initial params whose blocks do not fit arch raise DimensionMismatch,
    and a non-finite data entry raises NonFiniteState, naming how many
    rows hold one and the first, before anything is drawn.
    A non-finite step loss raises NonFiniteState naming the step, and so
    do trained weights whose float32 copy is not finite; float overflow on
    the way there is left to these checks instead of warning.

    Returns (trained float64 params, list of TraceRow).
    """
    x_data = np.atleast_2d(np.asarray(dataset))
    n, dim = x_data.shape
    if n < 1:
        raise EmptyDataset("training requires a nonempty dataset")
    if arch.output_dim != dim:
        raise DimensionMismatch(f"output width {arch.output_dim} != data dimension {dim}")
    bad = ~np.isfinite(x_data).all(axis=1)
    if bad.any():
        raise NonFiniteState(f"training data has non-finite entries in {bad.sum()} of "
                             f"{n} rows, first in row {bad.argmax()}")
    adam = AdamState(init_params, arch)
    workspace = wsnn.Workspace(arch, adam.flat32.dtype)
    stream = Rng(config.seed).child(1)
    epoch_len = config.epoch_len or max(1, n // config.batch_size)
    order = _lex_order(x_data)
    b = min(config.batch_size, n)
    block_steps = max(1, _BLOCK_ROWS // (objective.rows * b))

    trace = []
    bucket = []
    t0 = time.perf_counter()
    for first in range(0, config.steps, block_steps):
        k_steps = min(block_steps, config.steps - first)
        rows = (order[stream.integers(0, n, (k_steps, b))] if b < n
                else np.broadcast_to(order, (k_steps, n)))
        inputs, aux = objective.block(x_data[rows], stream, workspace.dtype)
        for k in range(k_steps):
            step = first + k
            loss, grads = wsnn.value_and_grads(
                arch, adam.params32, inputs[k], lambda out: objective.head(out, aux[k]),
                workspace)
            if not math.isfinite(loss):
                raise NonFiniteState(f"training diverged at step {step}: loss {loss}")
            adam.step(grads, config.learning_rate)
            bucket.append(loss)
            if (step + 1) % epoch_len == 0 or step + 1 == config.steps:
                trace.append(TraceRow(len(trace) + 1, float(np.mean(bucket)),
                                      time.perf_counter() - t0))
                bucket = []
    if not np.isfinite(adam.flat32).all():
        raise NonFiniteState(f"training diverged at step {step}: weights not finite")
    return adam.params, trace


def train(dataset, arch, init_params, schedule, config):
    """Stochastic denoising score matching with Adam, through `fit`.

    The network must map D + 1 -> D, checked once.  Per block of K steps
    the objective draws from fit's stream the (K, B) times
    t ~ Uniform[t_min, t_max], one per row, then the (K, B, D) forward
    noise as float32 normals (`Rng.standard_normal` into a float32 block
    buffer); `_dsm_block` forms every step's x_t, target and float32
    network input at once, and each step's head is `_dsm_head` on its
    target, as in `dsm_value_and_grads`.  All randomness derives from
    config.seed, so runs are repeatable.

    Returns (trained float64 params, list of TraceRow).
    """
    if arch.input_dim != arch.output_dim + 1:
        raise DimensionMismatch(f"a denoising network maps D + 1 -> D, not "
                                f"{arch.input_dim} -> {arch.output_dim}")

    def block(batches, rng, dtype):
        k_steps, b, _ = batches.shape
        t = rng.uniform(k_steps * b, schedule.t_min, schedule.t_max).reshape(k_steps, b)
        z = rng.standard_normal(batches.size, out=np.empty(batches.shape, np.float32))
        return _dsm_block(schedule, batches, t, z, dtype)

    return fit(dataset, arch, init_params, config, Objective(1, block, _dsm_head))


def score_mse(scores, density, schedule, n_mc, rng):
    """Monte Carlo estimate of the time-integrated squared score error

        int_Tmin^Tmax E |score(X_t, t) - grad log p_t(X_t)|^2 dt

    for a density with an analytic noised score.  scores is one score or a
    tuple of scores, all estimated on the same points: one score gives an
    McEstimate, a tuple gives a tuple of them, each with the bytes a call
    on that score alone gives.  The times (stream 0) and the X_0 sample
    (stream 1) are drawn whole; X_t and the analytic score are then formed
    once per block of _MC_BLOCK rows, and each score's per-point error is
    taken from them.  The last block also takes the remainder (so no block
    is smaller unless n_mc is, and no score takes BLAS's small-matrix paths
    that a whole pass would not), and the blocks read their forward noise
    in turn from the one stream 2, so they see the normals one whole draw
    gives.  n_mc below 1 raises InvalidSize."""
    if n_mc < 1:
        raise InvalidSize(f"n_mc must be >= 1, got {n_mc}")
    many = isinstance(scores, tuple)
    scores = scores if many else (scores,)
    t = rng.child(0).uniform(n_mc, schedule.t_min, schedule.t_max)
    x0 = density.sample(n_mc, rng.child(1))
    noise = rng.child(2)
    vals = np.empty((len(scores), n_mc))
    n_blocks = max(1, n_mc // _MC_BLOCK)
    for k in range(n_blocks):
        rows = slice(k * _MC_BLOCK, (k + 1) * _MC_BLOCK if k + 1 < n_blocks else n_mc)
        x_t = forward_sample(schedule, x0[rows], t[rows], noise)
        f_true = score_t_batch(density, x_t, t[rows], schedule)
        for score, v in zip(scores, vals):
            err = score_at(score, x_t, t[rows]) - f_true
            np.sum(np.square(err, out=err), axis=1, out=v[rows])
    vals *= schedule.t_max - schedule.t_min
    estimates = tuple(
        McEstimate(float(np.mean(v)),
                   float(np.std(v, ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else math.inf,
                   n_mc)
        for v in vals)
    return estimates if many else estimates[0]


def score_t_batch(density, x, t, schedule):
    """Analytic noised score at one time per row of x (or one shared time)."""
    return density.score_t(x, t, schedule)
