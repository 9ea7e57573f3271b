import math
import tracemalloc

import numpy as np
import pytest

from diffden import wsnn
from diffden.diffusion import conditional_score, forward_sample
from diffden.numerics import Rng


@pytest.fixture
def rng():
    return Rng(20240817)


def finite_diff_param_grads(loss_fn, params, eps=1e-5):
    """Central-difference gradients of loss_fn(params) for every entry."""
    grads_w, grads_b = [], []
    for arrays, grads in ((params.weights, grads_w), (params.biases, grads_b)):
        for a in arrays:
            g = np.zeros_like(a)
            flat = a.ravel()
            gflat = g.ravel()
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + eps
                up = loss_fn(params)
                flat[i] = old - eps
                down = loss_fn(params)
                flat[i] = old
                gflat[i] = (up - down) / (2 * eps)
            grads.append(g)
    return grads_w, grads_b


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
# The per-replica scatter and gather loops that the index gathers
# `wsnn.replica_sum` / `wsnn.replica_fold` replaced: replica j adds W onto
# A[r_j][:, q_j] and reads the fold from there, replicas in order onto zeros.


def reference_replica_sum(W, b, q_perms, r_perms):
    A = np.zeros_like(W)
    c = np.zeros_like(b)
    for q, r in zip(q_perms, r_perms):
        A[np.ix_(r.idx, q.idx)] += W
        c[r.idx] += b
    return A, c


def reference_replica_fold(dA, dc, q_perms, r_perms):
    dW = np.zeros_like(dA)
    db = np.zeros_like(dc)
    for q, r in zip(q_perms, r_perms):
        dW += dA[np.ix_(r.idx, q.idx)]
        db += dc[r.idx]
    return dW, db


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


# --- vanilla-SM stencil reference ---------------------------------------------
#
# One forward and one backward call per shifted copy x +- delta e_i, summed
# dimension by dimension: the per-dimension loop the stacked
# `sampler.vanilla_sm_stencil_value_and_grads` replaced.


def reference_stencil_value_and_grads(arch, params, x, delta):
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


# --- exact vanilla-SM reference -----------------------------------------------
#
# A forward call for f, then a second pass over the materialised layers that
# carries the input Jacobian through the ReLU masks of its own pre-activations:
# the two-pass exact loss that the one-pass `sampler.vanilla_sm_pointwise`
# replaced.


def reference_vanilla_sm_pointwise(arch, params, x):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    f = np.atleast_2d(wsnn.forward(arch, params, x))
    mats, biases = wsnn.effective_layers(arch, params)
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
# What `diffusion.fit` did per step before it sorted the dataset once and ran
# Adam over one flat buffer: sort each minibatch lexicographically, and
# update each parameter array with its own moment pair.


def reference_canonical_order(batch):
    return batch[np.lexsort(batch.T[::-1])]


class ReferenceAdamState:
    def __init__(self, params):
        self.m = [np.zeros_like(a) for a in params.weights + params.biases]
        self.v = [np.zeros_like(a) for a in params.weights + params.biases]
        self.t = 0

    def step(self, params, grads, lr):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for a, g, m, v in zip(params.weights + params.biases,
                              grads.weights + grads.biases, self.m, self.v):
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
# afresh every step.


def time_input(x, t):
    """Network input: concat(x, t), width D + 1."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    t_col = np.broadcast_to(np.asarray(t, dtype=np.float64), (xb.shape[0],))
    out = np.concatenate([xb, t_col[:, None]], axis=1)
    return out[0] if single else out


def reference_dsm_value_and_grads(arch, params, schedule, x0, x_t, t, workspace=None):
    target = conditional_score(schedule, x0, x_t, t)

    def head(out):
        resid = out - target
        return float(np.mean(np.sum(resid ** 2, axis=1))), 2.0 * resid / x_t.shape[0]

    loss, grads, _ = wsnn.value_and_grads(arch, params, time_input(x_t, t), head,
                                          workspace)
    return loss, grads


def reference_dsm_objective(arch, schedule):
    """The `fit` objective `diffusion.train` builds, in the replaced form."""
    workspace = wsnn.Workspace(arch)

    def objective(params, batch, rng):
        t = rng.uniform(batch.shape[0], schedule.t_min, schedule.t_max)
        x_t = forward_sample(schedule, batch, t, rng)
        return reference_dsm_value_and_grads(arch, params, schedule, batch, x_t, t,
                                             workspace)

    return objective


def reference_network_score(arch, params):
    return lambda x, t: wsnn.forward(arch, params, time_input(x, t))


def reference_reverse_sde_sample(score, schedule, config, dim, rng):
    n = config.n_samples
    y = rng.standard_normal(n * dim).reshape(n, dim)
    times = np.linspace(schedule.t_max, schedule.t_min, config.n_steps + 1)
    for k in range(config.n_steps):
        t_rev = times[k]
        h = times[k] - times[k + 1]
        a = schedule.alpha_at(t_rev)
        drift = a * y + 2.0 * a * score(y, t_rev)
        z = rng.standard_normal(n * dim).reshape(n, dim)
        y += h * drift
        y += math.sqrt(2.0 * a * h) * z
    return y


def reference_langevin_sample(score, step_size, n_steps, n_samples, dim, rng):
    z = rng.standard_normal(n_samples * dim).reshape(n_samples, dim)
    root_2h = math.sqrt(2.0 * step_size)
    for _ in range(n_steps):
        noise = rng.standard_normal(n_samples * dim).reshape(n_samples, dim)
        z += step_size * score(z, 0.0)
        z += root_2h * noise
    return z
