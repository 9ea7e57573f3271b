import math
import os
import tracemalloc

# diffden pins the BLAS threads to 1 (as the CLI runs) only if it loads
# before numpy, so it is imported first
import diffden  # noqa: F401
import numpy as np
import pytest

from diffden import diffusion, sampler, wsnn
from diffden.diffusion import forward_sample, score_at, score_t_batch
from diffden.errors import SingularTime
from diffden.numerics import McEstimate, Rng
from diffden.wsnn import WsnnParams, mlp

# seed of the `rng` fixture; scripts/seed_audit.py sets it to rerun the
# tests that draw from the fixture at other seeds
RNG_SEED_ENV = "DIFFDEN_TEST_SEED"


@pytest.fixture
def rng():
    return Rng(int(os.environ.get(RNG_SEED_ENV, "20240817")))


def finite_diff_param_grads(loss_fn, params, eps=1e-5):
    """Central-difference gradients of loss_fn(params) for every entry.
    Each entry is indexed in its array, a strided view of its block, so
    the nudge lands in the block a pass reads (`ravel` would copy it)."""
    grads_w, grads_b = [], []
    for arrays, grads in ((params.weights, grads_w), (params.biases, grads_b)):
        for a in arrays:
            g = np.zeros(a.shape, a.dtype)
            for i in np.ndindex(a.shape):
                old = a[i]
                a[i] = old + eps
                up = loss_fn(params)
                a[i] = old - eps
                down = loss_fn(params)
                a[i] = old
                g[i] = (up - down) / (2 * eps)
            grads.append(g)
    return grads_w, grads_b


def relu_pattern(arch, params, x):
    """Which hidden pre-activations are > 0, per row of the (B, d_1) batch x,
    all hidden layers side by side: the linear region each row lies in."""
    layers = wsnn.effective_layers(arch, params)
    mats, biases = layers.weights, layers.biases
    a, pattern = np.atleast_2d(x), []
    for A, c in zip(mats[:-1], biases[:-1]):
        z = a @ A.T + c
        pattern.append(z > 0.0)
        a = np.maximum(z, 0.0)
    return np.hstack(pattern)


def kink_free_entries(pattern, params, eps=1e-5):
    """Per weight then bias array, a bool array of its entries whose central
    difference (the entry moved by +-eps, as in finite_diff_param_grads)
    keeps pattern(params), the ReLU pattern of every pass the loss makes.
    With every earlier layer's pattern fixed, each pre-activation is affine
    in one entry, so equal patterns at both ends hold along the whole
    stencil: the loss is smooth over it, with no ReLU kink inside."""
    at = pattern(params)
    flags = []
    for a in params.weights + params.biases:
        ok = np.ones(a.shape, dtype=bool)
        for i in np.ndindex(a.shape):
            old = a[i]
            for moved in (old + eps, old - eps):
                a[i] = moved
                ok[i] &= np.array_equal(pattern(params), at)
            a[i] = old
        flags.append(ok)
    return flags


def random_perm(gen, n):
    return wsnn.Permutation(gen.permutation(n).astype(np.int64))


def replicated(gen, widths, m):
    """Network with m random permuted replicas per hidden layer."""
    q = tuple(tuple(random_perm(gen, widths[i]) for _ in range(m))
              for i in range(len(widths) - 2))
    r = tuple(tuple(random_perm(gen, widths[i + 1]) for _ in range(m))
              for i in range(len(widths) - 2))
    return wsnn.WsnnArchitecture(widths, (m,) * (len(widths) - 2), q, r)


def with_masks(gen, base):
    """base with a random 0/1 mask on every layer, so that init_params
    leaves each masked negative weight at -0.0."""
    masks = tuple((gen.random(base.layer_shape(i)) < 0.7).astype(float)
                  for i in range(base.depth))
    return wsnn.WsnnArchitecture(base.widths, base.replicas, base.q_perms,
                                 base.r_perms, weight_masks=masks)


def relative_error(approx, exact, floor=1e-8):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = np.maximum(np.abs(exact), floor)
    return float(np.max(np.abs(approx - exact) / scale))


# --- replica-sum reference ---------------------------------------------------
#
# Independent of the dense path in diffden.wsnn: each hidden layer gathers
# its input through every Q permutation and scatters through every R
# permutation, z[n, r_j[k]] += sum_d W[k, d] * a[n, q_j[d]] + b[k];
# qidx/ridx hold one permutation row per replica.


def wsnn_layer_forward_np(a, W, b, qidx, ridx):
    B = a.shape[0]
    dout = W.shape[0]
    z = np.zeros((B, dout))
    for j in range(qidx.shape[0]):
        pre = a[:, qidx[j]] @ W.T + b
        z[:, ridx[j]] += pre
    return z


def wsnn_layer_backward_np(a, W, delta, qidx, ridx):
    dW = np.zeros_like(W)
    db = np.zeros_like(W[:, 0])
    da = np.zeros_like(a)
    for j in range(qidx.shape[0]):
        dg = delta[:, ridx[j]]
        dW += dg.T @ a[:, qidx[j]]
        db += dg.sum(axis=0)
        da[:, qidx[j]] += dg @ W
    return dW, db, da


def perm_tables(arch, i):
    return (np.stack([q.idx for q in arch.q_perms[i]]),
            np.stack([r.idx for r in arch.r_perms[i]]))


def reference_forward_cache(arch, params, x):
    """Replica-sum network pass on a (B, d_1) batch: (out, acts, pres)."""
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    acts, pres = [a], []
    for i in range(arch.depth - 1):
        z = wsnn_layer_forward_np(a, params.weights[i], params.biases[i],
                                  *perm_tables(arch, i))
        pres.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    return a @ params.weights[-1].T + params.biases[-1], acts, pres


def reference_forward(arch, params, x):
    return reference_forward_cache(arch, params, x)[0]


def reference_backward(arch, params, x, g):
    """Replica-sum gradients of sum(g * forward(x)) on a (B, d_1) batch:
    (weight grads, bias grads, input grad), weight masks applied."""
    _, acts, pres = reference_forward_cache(arch, params, x)
    g = np.atleast_2d(g)
    dws = [None] * arch.depth
    dbs = [None] * arch.depth
    dws[-1] = g.T @ acts[-1]
    dbs[-1] = g.sum(axis=0)
    delta = g @ params.weights[-1]
    for i in range(arch.depth - 2, -1, -1):
        delta = delta * (pres[i] > 0.0)
        dws[i], dbs[i], delta = wsnn_layer_backward_np(
            acts[i], params.weights[i], delta, *perm_tables(arch, i))
    if arch.weight_masks is not None:
        dws = [w if m is None else w * m for w, m in zip(dws, arch.weight_masks)]
    return dws, dbs, delta


# --- replica-sum loop reference -----------------------------------------------
#
# The per-replica scatter and gather loops, written out independently of
# `wsnn.replica_sum` / `wsnn.replica_fold`: replica j adds W onto
# A[r_j][:, q_j] and reads the fold from there, replicas in order onto zeros.
# Both take one matrix; a layer's augmented block [W | b] is routed as W
# through its Q permutations extended by the ones column, as a pass does.


def reference_replica_sum(W, q_perms, r_perms):
    A = np.zeros_like(W)
    for q, r in zip(q_perms, r_perms):
        A[np.ix_(r.idx, q.idx)] += W
    return A


def reference_replica_fold(dA, q_perms, r_perms):
    dW = np.zeros_like(dA)
    for q, r in zip(q_perms, r_perms):
        dW += dA[np.ix_(r.idx, q.idx)]
    return dW


def warm_peak(call):
    """Traced peak bytes of call() on top of what was live before it,
    after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def max_scaled_dev(got, want):
    """max |got - want| over max(1, max |want|), the 1e-12 agreement measure."""
    want = np.asarray(want)
    return float(np.max(np.abs(np.asarray(got) - want))
                 / max(1.0, float(np.max(np.abs(want)))))


# --- vanilla-SM sliced reference ----------------------------------------------
#
# One forward and one backward call per shifted copy x +- delta v_j, summed
# direction by direction: the per-direction loop that the one stacked pass
# of `sampler.vanilla_sm_sliced_value_and_grads` must equal.


def reference_sliced_value_and_grads(arch, params, x, v, delta):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    b, k = x.shape[0], len(v)
    f = np.atleast_2d(wsnn.forward(arch, params, x))
    grads, _ = wsnn.backward(arch, params, x, f / b)
    div = np.zeros(b)
    for vj in np.asarray(v, dtype=np.float64):
        fp = np.atleast_2d(wsnn.forward(arch, params, x + delta * vj))
        fm = np.atleast_2d(wsnn.forward(arch, params, x - delta * vj))
        div += np.sum(vj * (fp - fm), axis=1) / (2.0 * delta * k)
        sel = vj / (2.0 * delta * k * b)
        g_plus, _ = wsnn.backward(arch, params, x + delta * vj, sel)
        g_minus, _ = wsnn.backward(arch, params, x - delta * vj, -sel)
        for acc, a1, a2 in zip(grads.weights + grads.biases,
                               g_plus.weights + g_plus.biases,
                               g_minus.weights + g_minus.biases):
            acc += a1 + a2
    loss = float(np.mean(div + 0.5 * np.sum(f * f, axis=1)))
    return loss, grads


def rademacher(rng, k, b, dim):
    """(k, b, dim) directions of +-1, drawn as a one-step training block
    draws them."""
    return 2 * rng.integers(0, 2, (k, b, dim)) - 1


# --- exact vanilla-SM reference -----------------------------------------------
#
# A forward call for f, then a second pass over the materialised layers that
# carries the input Jacobian through the ReLU masks of its own pre-activations:
# the two-pass exact loss that the one-pass `sampler.vanilla_sm_pointwise`
# replaced.


def reference_vanilla_sm_pointwise(arch, params, x):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    f = np.atleast_2d(wsnn.forward(arch, params, x))
    layers = wsnn.effective_layers(arch, params)
    mats, biases = layers.weights, layers.biases
    b, dim = x.shape
    a = x
    jac = np.broadcast_to(np.eye(dim), (b, dim, dim))
    for A, c in zip(mats[:-1], biases[:-1]):
        z = a @ A.T + c
        jac = (z > 0.0)[:, :, None] * np.einsum("oh,bhd->bod", A, jac)
        a = np.maximum(z, 0.0)
    div = np.einsum("oh,bho->b", mats[-1], jac)
    return div + 0.5 * np.sum(f * f, axis=1)


# --- training-loop references -------------------------------------------------
#
# `diffusion.fit` read one step at a time: sort the dataset lexicographically
# once (`np.lexsort` over every column, where fit may take the first
# column's argsort), take each minibatch from the sorted rows, run each
# step's objective on its own, and update each parameter array with its own
# moment pair.


def reference_canonical_order(batch):
    return batch[np.lexsort(batch.T[::-1])]


def reference_fit(dataset, arch, init_params, config, rows, draw, step):
    """The training loop of `diffusion.fit` read one step at a time: per
    block of K = max(1, _BLOCK_ROWS // (rows * B)) steps (the last block
    takes what is left), the fit stream Rng(config.seed).child(1) gives the
    (K, B) minibatch indices (none for a full batch) and then the arrays
    draw(stream, K, (B, D)) returns, each with the block's K steps on its
    first axis, the indices addressing the dataset sorted once.  Step j of
    a block takes its minibatch of the sorted rows and runs
    step(params32, batch, [its slice of each drawn array], workspace) ->
    (loss, grads) on AdamState's float32 copy in one float32 workspace.
    Returns (trained float64 params, the per-step losses)."""
    x = reference_canonical_order(np.atleast_2d(np.asarray(dataset, dtype=np.float64)))
    n, dim = x.shape
    b = min(config.batch_size, n)
    block_steps = max(1, diffusion._BLOCK_ROWS // (rows * b))
    stream = Rng(config.seed).child(1)
    adam = diffusion.AdamState(init_params, arch)
    workspace = wsnn.Workspace(arch, np.float32)
    losses = []
    for first in range(0, config.steps, block_steps):
        k_steps = min(block_steps, config.steps - first)
        idx = stream.integers(0, n, (k_steps, b)) if b < n else [slice(None)] * k_steps
        drawn = draw(stream, k_steps, (b, dim))
        for j in range(k_steps):
            loss, grads = step(adam.params32, x[idx[j]], [a[j] for a in drawn], workspace)
            adam.step(grads, config.learning_rate)
            losses.append(loss)
    return adam.params, losses


def dsm_draw(schedule):
    """A `reference_fit` draw: the block's (K, B) times, then its (K, B, D)
    float32 noise, as `diffusion.train` draws them."""

    def draw(stream, k_steps, shape):
        t = stream.uniform(k_steps * shape[0], schedule.t_min, schedule.t_max)
        z = stream.standard_normal(k_steps * shape[0] * shape[1],
                                   out=np.empty((k_steps, *shape), np.float32))
        return t.reshape(k_steps, shape[0]), z

    return draw


def reference_train(dataset, arch, init_params, schedule, config):
    """`diffusion.train` as `reference_fit`: each block draws its times and
    noise (`dsm_draw`), and each step is one `dsm_value_and_grads` call."""

    def step(params, batch, drawn, workspace):
        return diffusion.dsm_value_and_grads(arch, params, schedule, batch, *drawn,
                                             workspace)

    return reference_fit(dataset, arch, init_params, config, 1, dsm_draw(schedule), step)


def reference_train_vanilla_sm(dataset, arch, init_params, config):
    """`sampler.train_vanilla_sm` as `reference_fit`: each block draws its
    (K, _DIRECTIONS, B, D) signs, and each step is one
    `vanilla_sm_sliced_value_and_grads` call."""
    k = sampler._DIRECTIONS

    def draw(stream, k_steps, shape):
        return [2 * stream.integers(0, 2, (k_steps, k, *shape)) - 1]

    def step(params, batch, drawn, workspace):
        return sampler.vanilla_sm_sliced_value_and_grads(
            arch, params, batch, drawn[0], sampler._DIVERGENCE_STEP, workspace)

    return reference_fit(dataset, arch, init_params, config, 2 * k + 1, draw, step)


class ReferenceAdamState:
    """Per-array Adam with float32 moments and update arithmetic, each
    float32 update subtracted from the float64 parameters."""

    def __init__(self, params):
        self.m = [np.zeros(a.shape, np.float32) for a in params.weights + params.biases]
        self.v = [np.zeros(a.shape, np.float32) for a in params.weights + params.biases]
        self.t = 0

    def step(self, params, grads, lr):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for a, g, m, v in zip(params.weights + params.biases,
                              grads.weights + grads.biases, self.m, self.v):
            g = g.astype(np.float32)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            a -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


# --- fused denoising step and in-place sampler references ---------------------
#
# The code the fused `diffusion.dsm_value_and_grads`, the workspace-input
# `diffusion.network_score` and the loop-owned sampler buffers replaced: x_t
# drawn by `forward_sample`, the target from `conditional_score` (a second
# mu_sigma call), the network input concatenated by `time_input` (moved here
# from `diffusion`), and sampler loops that allocate their drift and noise
# afresh every step.  `dsm_loss`, moved here from `diffusion`, is the
# unfused denoising loss through the float64 pass.


def time_input(x, t):
    """Network input: concat(x, t), width D + 1."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    t_col = np.broadcast_to(np.asarray(t, dtype=np.float64), (xb.shape[0],))
    out = np.concatenate([xb, t_col[:, None]], axis=1)
    return out[0] if single else out


def reference_dsm_value_and_grads(arch, params, schedule, x0, x_t, t):
    """The denoising step in the dtype of params, as `fit` hands them over
    (float32 in training): concat(x_t, t) and the residual against the
    float64 target are each rounded once to that dtype, as the fused step
    rounds x_t into its input buffer and forms the residual in place in
    the pass's output."""
    target = conditional_score(schedule, x0, x_t, t)

    def head(out):
        resid = (out - target).astype(out.dtype)
        flat = resid.ravel()
        return float(np.dot(flat, flat) / x_t.shape[0]), 2.0 * resid / x_t.shape[0]

    loss, grads, _ = reference_value_and_grads(arch, params, time_input(x_t, t), head)
    return loss, grads


def reference_dsm_train(dataset, arch, init_params, schedule, config):
    """`diffusion.train` as `reference_fit` in the replaced form: each block
    draws its times and float32 noise as `train` draws them, then per step
    x_t = mu_t x0 + sigma_t z as `forward_sample` forms it and the unfused
    row-major step on it."""

    def step(params, batch, drawn, workspace):
        t, z = drawn
        mu, sigma = schedule.mu_sigma(t)
        x_t = mu[:, None] * batch + sigma[:, None] * z
        return reference_dsm_value_and_grads(arch, params, schedule, batch, x_t, t)

    return reference_fit(dataset, arch, init_params, config, 1, dsm_draw(schedule), step)


def reference_network_score(arch, params):
    """The float32 network score: one dense pass on float32 copies of the
    parameters and of concat(x, t), its float32 output returned as it is."""
    params32 = params.astype(np.float32)

    def score(x, t):
        out = reference_dense_pass(arch, params32, time_input(x, t))[0]
        return out[0] if np.ndim(x) == 1 else out

    return score


def dsm_loss(arch, params, schedule, x0, x_t, t):
    """Denoising loss |f(x_t, t) + (x_t - mu_t x0) / sigma_t^2|^2,
    averaged over the batch when inputs are batched, through the float64
    network pass: the oracle of the fused `diffusion.dsm_value_and_grads`."""
    f = wsnn.forward(arch, params, time_input(x_t, t))
    resid = f - conditional_score(schedule, x0, x_t, t)
    return float(np.mean(np.sum(np.atleast_2d(resid) ** 2, axis=1)))


# --- gather-and-fold-every-layer reference ------------------------------------
#
# The dense path before plain layers were told apart: every hidden layer, a
# single identity replica included, is materialised by `wsnn.replica_sum` and
# its dense gradients are folded back by `wsnn.replica_fold`, and reverse mode
# runs on through the first layer to the input gradient.  Same products in
# the same order as `wsnn.value_and_grads`, so the bytes must agree: each
# layer is one augmented block [A | c] times a feature-major input whose last
# row is ones, and each gradient block [dW | db] one product with it.


def reference_effective_layers(arch, params):
    """The dense blocks [A | c], column-major as the pass reads them, every
    hidden layer's block routed through `wsnn.replica_sum` with the ones
    column mapped to itself."""
    blocks = []
    for w, b in zip(params.weights, params.biases):
        blocks.append(np.empty((w.shape[1] + 1, w.shape[0]), w.dtype).T)
        blocks[-1][:, :-1], blocks[-1][:, -1] = w, b
    for i in range(arch.depth - 1):
        blocks[i] = wsnn.replica_sum(blocks[i], arch.q_blocks[i], arch.r_perms[i])
    return blocks


def reference_dense_pass(arch, params, x):
    """(output, dense blocks, [input, post-ReLU activations]) of one pass,
    run in the dtype of params: x is cast to it.  The input and every
    activation are feature-major with a last row of ones; the output is
    returned as (B, d_{L+1})."""
    a = np.atleast_2d(np.asarray(x, dtype=params.weights[0].dtype))
    blocks = reference_effective_layers(arch, params)
    h = np.ones((a.shape[1] + 1, a.shape[0]), a.dtype)
    h[:-1] = a.T
    acts = [h]
    for P in blocks[:-1]:
        h = np.ones((P.shape[0] + 1, h.shape[1]), h.dtype)
        h[:-1] = np.maximum(P @ acts[-1], 0.0)
        acts.append(h)
    return (blocks[-1] @ h).T, blocks, acts


def reference_value_and_grads(arch, params, x, head):
    """(value, parameter gradients, input gradient); each gradient block
    [dW | db] is the transpose of the layer's input with its ones row
    times the transposed feature-major delta."""
    out, blocks, acts = reference_dense_pass(arch, params, x)
    value, g = head(out)
    g = np.ascontiguousarray(np.transpose(g))
    grads = [None] * arch.depth
    grads[-1] = (acts[-1] @ g.T).T
    delta = blocks[-1][:, :-1].T @ g
    for i in range(arch.depth - 2, -1, -1):
        delta *= acts[i + 1][:-1] > 0.0
        grads[i] = wsnn.replica_fold((acts[i] @ delta.T).T, arch.q_blocks[i],
                                     arch.r_perms[i])
        delta = blocks[i][:, :-1].T @ delta
    grads = wsnn.WsnnParams.of([d[:, :-1] for d in grads], [d[:, -1] for d in grads])
    return value, wsnn.apply_masks(grads, arch), delta.T


def normal32(rng, shape):
    """A fresh array of float32 normals, as the samplers draw them."""
    out = np.empty(shape, np.float32)
    return rng.standard_normal(out.size, out=out)


def reference_reverse_sde_sample(score, schedule, config, dim, rng):
    """Float32 state and draws, step scalars Python floats; the scaled
    score, of either float dtype, is rounded to float32 before it joins the
    drift, and the samples widen to float64 on return."""
    n = config.n_samples
    y = normal32(rng, (n, dim))
    times = np.linspace(schedule.t_max, schedule.t_min, config.n_steps + 1).tolist()
    for k in range(config.n_steps):
        t_rev = times[k]
        h = times[k] - times[k + 1]
        a = schedule.alpha_at(t_rev)
        drift = a * y + (2.0 * a * score(y, t_rev)).astype(np.float32)
        z = normal32(rng, (n, dim))
        y += h * drift
        y += math.sqrt(2.0 * a * h) * z
    return y.astype(np.float64)


def reference_langevin_sample(score, step_size, n_steps, n_samples, dim, rng):
    z = normal32(rng, (n_samples, dim))
    root_2h = math.sqrt(2.0 * step_size)
    for _ in range(n_steps):
        noise = normal32(rng, (n_samples, dim))
        z += (step_size * score(z, 0.0)).astype(np.float32)
        z += root_2h * noise
    return z.astype(np.float64)


# --- whole-array score-MSE reference ------------------------------------------
#
# `diffusion.score_mse` before it walked its points in blocks: every (n_mc, D)
# intermediate at full size at once.  Verbatim.


def reference_score_mse(score, density, schedule, n_mc, rng):
    """Monte Carlo estimate of the time-integrated squared score error

        int_Tmin^Tmax E |score(X_t, t) - grad log p_t(X_t)|^2 dt

    for a density with an analytic noised score.  Returns an McEstimate."""
    t = rng.child(0).uniform(n_mc, schedule.t_min, schedule.t_max)
    x_t = forward_sample(schedule, density.sample(n_mc, rng.child(1)), t,
                         rng.child(2))

    # the analytic score first: while it runs, no network workspace holds
    # its activations and input buffer yet
    f_true = score_t_batch(density, x_t, t, schedule)
    err = score_at(score, x_t, t) - f_true
    vals = (schedule.t_max - schedule.t_min) * np.sum(np.square(err, out=err), axis=1)
    se = float(np.std(vals, ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else math.inf
    return McEstimate(float(np.mean(vals)), se, n_mc)


# --- test-only helpers moved here from `src/` --------------------------------
#
# Oracles and fixtures that no pipeline path, CLI command or script runs:
# `conditional_score` from `diffusion`; `zero_params`, `conv2d_valid` and
# `linear_network` from `wsnn`.  Unchanged.


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


def zero_params(arch):
    return WsnnParams.of(
        [np.zeros(arch.layer_shape(i)) for i in range(arch.depth)],
        [np.zeros(arch.widths[i + 1]) for i in range(arch.depth)])


def conv2d_valid(image, filt):
    """Direct sliding-window valid convolution (oracle for conv_as_wsnn)."""
    image = np.asarray(image, dtype=np.float64)
    filt = np.asarray(filt, dtype=np.float64)
    I, F = image.shape[0], filt.shape[0]
    out = np.empty((I - F + 1, I - F + 1))
    for r in range(out.shape[0]):
        for c in range(out.shape[1]):
            out[r, c] = np.sum(image[r:r + F, c:c + F] * filt)
    return out


def linear_network(weight, bias=None):
    """Exact ReLU realisation of x -> W x + b via the split
    W x + b = relu(W x + b) - relu(-W x - b).

    Returns (arch, params) of a depth-2 network computing the affine map
    everywhere (useful for injecting fixed linear scores into losses).
    """
    weight = np.atleast_2d(np.asarray(weight, dtype=np.float64))
    dout, din = weight.shape
    bias = np.zeros(dout) if bias is None else np.asarray(bias, dtype=np.float64)
    arch = mlp((din, 2 * dout, dout))
    w1 = np.vstack([weight, -weight])
    b1 = np.concatenate([bias, -bias])
    w2 = np.hstack([np.eye(dout), -np.eye(dout)])
    params = WsnnParams.of([w1, w2], [b1, np.zeros(dout)])
    return arch, params
