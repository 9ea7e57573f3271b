import numpy as np
import pytest

from diffden import wsnn
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
