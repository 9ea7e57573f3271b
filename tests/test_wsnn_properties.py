"""Property tests: the dense layer path against the replica-sum reference,
the stacked vanilla-SM stencil against its per-dimension loop, the one-pass
exact vanilla-SM loss against its two-pass reference, and the checkpoint
round-trip.

Architectures are drawn with random widths, replica counts, permutations
and weight masks, plus first layers taken from `conv_as_wsnn` plans.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (max_scaled_dev, reference_backward, reference_forward,
                      reference_stencil_value_and_grads,
                      reference_vanilla_sm_pointwise)
from diffden.sampler import (vanilla_sm_pointwise,
                             vanilla_sm_stencil_value_and_grads)
from diffden.wsnn import (Permutation, WsnnArchitecture, WsnnParams,
                          apply_masks, backward, conv_as_wsnn, forward,
                          load_checkpoint, replica_fold, replica_sum,
                          save_checkpoint)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def _perms(draw, n, m):
    return tuple(Permutation(np.array(draw(st.permutations(range(n))), dtype=np.int64))
                 for _ in range(m))


@st.composite
def architectures(draw, square=False):
    """(arch, params, x, g) with masks applied to params; square networks
    map d_1 -> d_1."""
    depth = draw(st.integers(2, 4))
    widths = draw(st.lists(st.integers(1, 10), min_size=depth + 1,
                           max_size=depth + 1))
    replicas = draw(st.lists(st.integers(1, 3), min_size=depth - 1,
                             max_size=depth - 1))
    q, r = [], []
    if draw(st.booleans()):
        filter_side = draw(st.integers(1, 3))
        plan = conv_as_wsnn(draw(st.integers(filter_side, 4)), filter_side)
        widths[:2] = [plan.d_in, plan.d_out]
        replicas[0] = plan.m
        q.append(plan.q_perms)
        r.append(plan.r_perms)
    if square:
        widths[-1] = widths[0]
    for i in range(len(q), depth - 1):
        q.append(_perms(draw, widths[i], replicas[i]))
        r.append(_perms(draw, widths[i + 1], replicas[i]))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    masks = None
    if draw(st.booleans()):
        masks = tuple((gen.random((widths[i + 1], widths[i])) < 0.7).astype(float)
                      if draw(st.booleans()) else None for i in range(depth))
    arch = WsnnArchitecture(widths, replicas, tuple(q), tuple(r),
                            weight_masks=masks)
    params = WsnnParams(
        [gen.normal(size=arch.layer_shape(i)) for i in range(depth)],
        [gen.normal(size=widths[i + 1]) for i in range(depth)])
    apply_masks(params, arch)
    batch = draw(st.integers(1, 5))
    x = gen.normal(size=(batch, widths[0]))
    g = gen.normal(size=(batch, widths[-1]))
    return arch, params, x, g


@SETTINGS
@given(architectures())
def test_dense_forward_matches_replica_sum(case):
    arch, params, x, _ = case
    assert max_scaled_dev(forward(arch, params, x),
                          reference_forward(arch, params, x)) <= 1e-12


@SETTINGS
@given(architectures())
def test_dense_backward_matches_replica_sum(case):
    arch, params, x, g = case
    grads, gx = backward(arch, params, x, g)
    dws, dbs, want_x = reference_backward(arch, params, x, g)
    for got, want in zip(grads.weights + grads.biases + [gx],
                         dws + dbs + [want_x]):
        assert max_scaled_dev(got, want) <= 1e-12


@SETTINGS
@given(architectures(), st.integers(0, 2 ** 32 - 1))
def test_fold_is_adjoint_of_materialize(case, seed):
    """<replica_sum(W, b), (dA, dc)> == <(W, b), replica_fold(dA, dc)>."""
    arch, params, _, _ = case
    gen = np.random.default_rng(seed)
    for i in range(arch.depth - 1):
        W, b = params.weights[i], params.biases[i]
        dA = gen.normal(size=W.shape)
        dc = gen.normal(size=b.shape)
        A, c = replica_sum(W, b, arch.q_perms[i], arch.r_perms[i])
        dW, db = replica_fold(dA, dc, arch.q_perms[i], arch.r_perms[i])
        lhs = np.sum(A * dA) + np.sum(c * dc)
        rhs = np.sum(W * dW) + np.sum(b * db)
        scale = np.sum(np.abs(A * dA)) + np.sum(np.abs(c * dc))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, scale)


@SETTINGS
@given(architectures(square=True), st.sampled_from((0.1, 0.5)))
def test_stacked_stencil_matches_per_dimension_loop(case, delta):
    arch, params, x, _ = case
    loss, grads = vanilla_sm_stencil_value_and_grads(arch, params, x, delta)
    want_loss, want = reference_stencil_value_and_grads(arch, params, x, delta)
    assert max_scaled_dev(loss, want_loss) <= 1e-12
    for got, ref in zip(grads.weights + grads.biases, want.weights + want.biases):
        assert max_scaled_dev(got, ref) <= 1e-12


@settings(SETTINGS, max_examples=200)
@given(architectures(square=True))
def test_one_pass_exact_loss_equals_two_pass_reference(case):
    arch, params, x, _ = case
    assert np.array_equal(vanilla_sm_pointwise(arch, params, x),
                          reference_vanilla_sm_pointwise(arch, params, x))


@SETTINGS
@given(architectures())
def test_checkpoint_roundtrip(case):
    """Everything a checkpoint stores comes back exactly; a None (dense)
    mask entry comes back as all ones."""
    arch, params, x, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.bin"
        save_checkpoint(path, arch, params)
        arch2, params2 = load_checkpoint(path)
    assert arch2.widths == arch.widths and arch2.replicas == arch.replicas
    assert (arch2.sparsity, arch2.weight_bound) == (arch.sparsity, arch.weight_bound)
    for perms, perms2 in ((arch.q_perms, arch2.q_perms), (arch.r_perms, arch2.r_perms)):
        assert [[p.idx.tolist() for p in layer] for layer in perms] == \
               [[p.idx.tolist() for p in layer] for layer in perms2]
    if arch.weight_masks is None:
        assert arch2.weight_masks is None
    else:
        for i, (m, m2) in enumerate(zip(arch.weight_masks, arch2.weight_masks)):
            assert np.array_equal(m2, np.ones(arch.layer_shape(i)) if m is None else m)
    for a, b in zip(params.weights + params.biases, params2.weights + params2.biases):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(forward(arch, params, x), forward(arch2, params2, x))
