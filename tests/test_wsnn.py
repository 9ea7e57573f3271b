import math
import re

import numpy as np
import pytest

from conftest import (finite_diff_param_grads, max_scaled_dev, perm_tables,
                      reference_backward, reference_forward, relative_error,
                      warm_peak, wsnn_layer_forward_np)
from diffden.errors import CorruptFile, DimensionMismatch, InvalidSize
from diffden.numerics import Rng
from diffden.sampler import learned_score_time_free
from diffden.wsnn import (Permutation, WsnnArchitecture, WsnnParams,
                          Workspace, backward, conv2d_valid, conv_as_wsnn,
                          covering_bound_numerator, covering_log_bound,
                          effective_layers, forward, init_params,
                          linear_network, load_checkpoint, mlp,
                          save_checkpoint, value_and_grads, zero_params)


def random_perm(gen, n):
    return Permutation(gen.permutation(n).astype(np.int64))


def random_arch(gen, max_width=32, max_depth=4, max_replicas=3):
    depth = int(gen.integers(2, max_depth + 1))
    widths = tuple(int(gen.integers(1, max_width + 1)) for _ in range(depth + 1))
    replicas = tuple(int(gen.integers(1, max_replicas + 1)) for _ in range(depth - 1))
    q = tuple(tuple(random_perm(gen, widths[i]) for _ in range(replicas[i]))
              for i in range(depth - 1))
    r = tuple(tuple(random_perm(gen, widths[i + 1]) for _ in range(replicas[i]))
              for i in range(depth - 1))
    return WsnnArchitecture(widths, replicas, q, r, sparsity=1, weight_bound=10.0)


def random_params(gen, arch):
    return WsnnParams(
        [gen.normal(size=arch.layer_shape(i)) for i in range(arch.depth)],
        [gen.normal(size=arch.widths[i + 1]) for i in range(arch.depth)])


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(InvalidSize):
            Permutation(np.array([0, 0, 1]))


class TestForward:
    def test_identity_replicas_reduce_to_mlp(self):
        gen = np.random.default_rng(2)
        arch = mlp((4, 8, 3))
        params = random_params(gen, arch)
        x = gen.normal(size=(5, 4))
        manual = np.maximum(x @ params.weights[0].T + params.biases[0], 0.0)
        manual = manual @ params.weights[1].T + params.biases[1]
        assert np.allclose(forward(arch, params, x), manual, atol=1e-14)

    def test_zero_params_zero_output(self):
        arch = mlp((3, 5, 2))
        out = forward(arch, zero_params(arch), np.ones(3))
        assert np.array_equal(out, np.zeros(2))

    def test_replica_sum_equals_materialized_dense(self):
        gen = np.random.default_rng(3)
        for _ in range(50):
            arch = random_arch(gen)
            params = random_params(gen, arch)
            x = gen.normal(size=(4, arch.input_dim))
            got = forward(arch, params, x)
            want = reference_forward(arch, params, x)
            assert max_scaled_dev(got, want) <= 1e-12

    def test_dimension_mismatch(self):
        arch = mlp((3, 4, 2))
        with pytest.raises(DimensionMismatch):
            forward(arch, zero_params(arch), np.ones(5))
        params = zero_params(arch)
        params.biases[-1] = np.zeros(1)
        with pytest.raises(DimensionMismatch):
            forward(arch, params, np.ones(3))

    def test_single_vector_matches_batch_row(self):
        gen = np.random.default_rng(4)
        arch = random_arch(gen)
        params = random_params(gen, arch)
        x = gen.normal(size=(3, arch.input_dim))
        batch = forward(arch, params, x)
        for i in range(3):
            assert np.allclose(forward(arch, params, x[i]), batch[i])


def _away_from_kinks(arch, params, x, margin=1e-4):
    a = np.atleast_2d(x)
    for i in range(arch.depth - 1):
        mats, biases = effective_layers(arch, params)
        z = a @ mats[i].T + biases[i]
        if np.min(np.abs(z)) < margin:
            return False
        a = np.maximum(z, 0.0)
    return True


class TestBackward:
    def test_matches_replica_sum_reference(self):
        # the 50 architectures of test_replica_sum_equals_materialized_dense
        gen = np.random.default_rng(3)
        gen_g = np.random.default_rng(30)
        for _ in range(50):
            arch = random_arch(gen)
            params = random_params(gen, arch)
            x = gen.normal(size=(4, arch.input_dim))
            g = gen_g.normal(size=(4, arch.output_dim))
            grads, gx = backward(arch, params, x, g)
            dws, dbs, want_x = reference_backward(arch, params, x, g)
            for got, want in zip(grads.weights + grads.biases + [gx],
                                 dws + dbs + [want_x]):
                assert max_scaled_dev(got, want) <= 1e-12

    def test_zero_grad_output(self):
        gen = np.random.default_rng(5)
        arch = random_arch(gen)
        params = random_params(gen, arch)
        x = gen.normal(size=arch.input_dim)
        grads, gx = backward(arch, params, x, np.zeros(arch.output_dim))
        assert all(np.all(w == 0) for w in grads.weights)
        assert all(np.all(b == 0) for b in grads.biases)
        assert np.all(gx == 0)

    def test_linear_net_input_grad(self):
        gen = np.random.default_rng(6)
        w = gen.normal(size=(2, 3))
        arch, params = linear_network(w)
        g = gen.normal(size=2)
        _, gx = backward(arch, params, gen.normal(size=3), g)
        assert np.allclose(gx, w.T @ g, atol=1e-12)

    def test_matches_finite_differences(self):
        gen = np.random.default_rng(7)
        checked = 0
        while checked < 8:
            arch = random_arch(gen, max_width=6, max_depth=3)
            params = random_params(gen, arch)
            x = gen.normal(size=arch.input_dim)
            if not _away_from_kinks(arch, params, x):
                continue
            g = gen.normal(size=arch.output_dim)

            def loss(p):
                return float(np.dot(forward(arch, p, x), g))

            grads, gx = backward(arch, params, x, g)
            fd_w, fd_b = finite_diff_param_grads(loss, params)
            for got, want in zip(grads.weights + grads.biases, fd_w + fd_b):
                big = np.abs(want) > 1e-6
                if big.any():
                    assert relative_error(got[big], want[big]) < 1e-5
            # input gradient against central differences too
            fd_x = np.zeros_like(x)
            for i in range(x.size):
                e = np.zeros_like(x)
                e[i] = 1e-5
                fd_x[i] = (loss_at(arch, params, x + e, g)
                           - loss_at(arch, params, x - e, g)) / 2e-5
            big_x = np.abs(fd_x) > 1e-6
            if big_x.any():
                assert relative_error(gx[big_x], fd_x[big_x]) < 1e-5
            checked += 1


def loss_at(arch, params, x, g):
    return float(np.dot(forward(arch, params, x), g))


class TestConvAsWsnn:
    def test_figure_dimensions(self):
        plan = conv_as_wsnn(4, 2)
        assert (plan.d_in, plan.d_out, plan.m) == (16, 9, 9)

    def test_scalar_filter_is_selection(self):
        plan = conv_as_wsnn(3, 1)
        mat = plan.materialize([2.5])
        assert np.array_equal(mat, 2.5 * np.eye(9))

    def test_matches_direct_convolution(self):
        gen = np.random.default_rng(8)
        plan = conv_as_wsnn(4, 2)
        filt = gen.normal(size=4)
        image = gen.normal(size=(4, 4))
        mat = plan.materialize(filt)
        got = (mat @ image.ravel()).reshape(3, 3)
        want = conv2d_valid(image, filt.reshape(2, 2))
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_layer_forward_agrees_with_materialized(self):
        gen = np.random.default_rng(9)
        plan = conv_as_wsnn(4, 2)
        filt = gen.normal(size=4)
        arch = WsnnArchitecture(
            (16, 9, 9), (plan.m,), (plan.q_perms,), (plan.r_perms,))
        params = WsnnParams([plan.place_filter(filt), np.eye(9)],
                            [np.zeros(9), np.zeros(9)])
        x = np.abs(gen.normal(size=16)) + 1.0  # positive pre-activations
        image = x.reshape(4, 4)
        got = forward(arch, params, x)
        want = np.maximum(conv2d_valid(image, filt.reshape(2, 2)).ravel(), 0.0)
        assert np.allclose(got, want, atol=1e-12)

    def test_invalid_sizes(self):
        with pytest.raises(InvalidSize):
            conv_as_wsnn(2, 3)
        with pytest.raises(InvalidSize):
            conv_as_wsnn(4, 0)

    def test_template_sparsity(self):
        plan = conv_as_wsnn(5, 3)
        assert np.count_nonzero(plan.place_filter(np.ones(9))) == 9


class TestCoveringBound:
    def _arch(self, widths=(2, 3, 1), replicas=(2,), s=5, bound=1.0):
        gen = np.random.default_rng(10)
        q = tuple(tuple(random_perm(gen, widths[i]) for _ in range(replicas[i]))
                  for i in range(len(widths) - 2))
        r = tuple(tuple(random_perm(gen, widths[i + 1]) for _ in range(replicas[i]))
                  for i in range(len(widths) - 2))
        return WsnnArchitecture(widths, replicas, q, r, s, bound)

    def test_delta_equal_numerator_gives_zero(self):
        arch = self._arch()
        num = covering_bound_numerator(arch, 1.0)
        assert covering_log_bound(arch, 1.0, num) == 0.0

    def test_halving_delta_adds_splus1_log2(self):
        arch = self._arch()
        lo = covering_log_bound(arch, 1.0, 0.2)
        hi = covering_log_bound(arch, 1.0, 0.1)
        assert abs((hi - lo) - (arch.sparsity + 1) * math.log(2.0)) < 1e-12

    def test_frozen_value(self):
        # independently evaluated: numerator 4*4*9*(2*3)^2*5 = 25920,
        # bound = 6 * log(25920 / 0.1)
        arch = self._arch(widths=(2, 3, 1), replicas=(2,), s=5, bound=1.0)
        assert covering_bound_numerator(arch, 1.0) == 25920.0
        assert abs(covering_log_bound(arch, 1.0, 0.1) - 74.79213146076154) < 1e-10

    def test_randomized_monotonicity(self):
        gen = np.random.default_rng(11)
        for _ in range(200):
            widths = tuple(int(gen.integers(1, 20)) for _ in range(3))
            reps = (int(gen.integers(1, 5)),)
            s = int(gen.integers(1, 50))
            bound = float(gen.uniform(0.1, 20.0))
            c = float(gen.uniform(0.1, 10.0))
            delta = float(gen.uniform(1e-6, 1.0))
            arch = self._arch(widths, reps, s, bound)
            base = covering_log_bound(arch, c, delta)
            assert covering_log_bound(arch, c, delta / 2) >= base
            assert covering_log_bound(arch, c * 1.5, delta) >= base
            bigger_s = self._arch(widths, reps, s + 3, bound)
            assert covering_log_bound(bigger_s, c, delta) >= base
            bigger_m = self._arch(widths, reps, s, bound + 1.0)
            assert covering_log_bound(bigger_m, c, delta) >= base
            wider = self._arch(tuple(w + 2 for w in widths), reps, s, bound)
            assert covering_log_bound(wider, c, delta) >= base
            more_reps = self._arch(widths, (reps[0] + 1,), s, bound)
            assert covering_log_bound(more_reps, c, delta) >= base
            deeper = self._arch(widths[:2] + widths[1:], (reps[0], reps[0]), s, bound)
            assert covering_log_bound(deeper, c, delta) >= base


class TestParamOps:
    def test_masks_keep_zero_pattern(self):
        gen = np.random.default_rng(14)
        mask0 = (gen.random(size=(4, 3)) < 0.5).astype(float)
        arch = WsnnArchitecture(
            (3, 4, 2), (1,),
            ((Permutation.identity(3),),), ((Permutation.identity(4),),),
            weight_masks=(mask0, None))
        params = init_params(arch, Rng(0))
        assert np.all(params.weights[0][mask0 == 0] == 0)

    @pytest.mark.parametrize("masks", [
        (np.ones((4, 3)),),                         # one entry short
        (np.ones((4, 3)), None, None),              # one entry too many
        (np.ones((3, 4)), None),                    # wrong shape
        (np.full((4, 3), 0.5), None),               # not 0/1
        np.ones((2, 4, 3)),                         # not a per-layer sequence
    ])
    def test_bad_weight_masks_rejected(self, masks):
        base = mlp((3, 4, 2))
        with pytest.raises(InvalidSize):
            WsnnArchitecture(base.widths, base.replicas, base.q_perms,
                             base.r_perms, weight_masks=masks)


class TestWorkspace:
    """Reusing one workspace changes no result, and a warm call allocates
    less than one hidden activation."""

    ARCH = mlp((9, 64, 64, 9))

    @staticmethod
    def _head(out):
        return 0.5 * float(np.sum(out * out)), out

    def test_warm_value_and_grads_allocates_less_than_one_activation(self):
        params = init_params(self.ARCH, Rng(1))
        rows = 19 * 128  # one stacked vanilla-SM stencil batch at D = 9
        x = Rng(2).normal_matrix(rows, 9)
        ws = Workspace(self.ARCH)
        peak = warm_peak(
            lambda: value_and_grads(self.ARCH, params, x, self._head, ws))
        assert peak < rows * 64 * 8

    def test_warm_time_free_score_allocates_less_than_one_activation(self):
        score = learned_score_time_free(self.ARCH, init_params(self.ARCH, Rng(3)))
        rows = 3000  # one Langevin step at n_eval = 3000
        x = Rng(4).normal_matrix(rows, 9)
        peak = warm_peak(lambda: score(x, 0.0))
        assert peak < rows * 64 * 8

    def test_alternating_row_counts_match_fresh_workspace(self):
        params = init_params(self.ARCH, Rng(5))
        ws = Workspace(self.ARCH)
        for rows in (128, 2432, 128):
            x = Rng(6).child(rows).normal_matrix(rows, 9)
            got = value_and_grads(self.ARCH, params, x, self._head, ws)
            want = value_and_grads(self.ARCH, params, x, self._head, Workspace(self.ARCH))
            assert got[0] == want[0]
            for a, b in zip(got[1].weights + got[1].biases + [got[2]],
                            want[1].weights + want[1].biases + [want[2]]):
                assert np.array_equal(a, b)
            assert np.array_equal(forward(self.ARCH, params, x, ws),
                                  forward(self.ARCH, params, x))

    def test_kept_output_survives_next_call(self):
        params = init_params(self.ARCH, Rng(7))
        score = learned_score_time_free(self.ARCH, params)
        x = Rng(8).normal_matrix(300, 9)
        first = score(x, 0.0)
        kept = first.copy()
        score(2.0 * x, 0.0)
        assert np.array_equal(first, kept)
        ws = Workspace(self.ARCH)
        _, grads, dx = value_and_grads(self.ARCH, params, x, self._head, ws)
        kept = [a.copy() for a in grads.weights + grads.biases + [dx]]
        value_and_grads(self.ARCH, params, 2.0 * x, self._head, ws)
        for a, b in zip(grads.weights + grads.biases + [dx], kept):
            assert np.array_equal(a, b)

    def test_forward_only_workspace_has_no_reverse_arrays(self):
        ws = Workspace(self.ARCH)
        forward(self.ARCH, init_params(self.ARCH, Rng(9)), np.ones((4, 9)), ws)
        assert ws.deltas is None and ws.masks is None

    def test_workspace_of_another_architecture_rejected(self):
        with pytest.raises(DimensionMismatch):
            forward(self.ARCH, init_params(self.ARCH, Rng(10)), np.ones((2, 9)),
                    Workspace(mlp((9, 32, 9))))
        with pytest.raises(DimensionMismatch):
            forward(self.ARCH, init_params(self.ARCH, Rng(10)), np.ones((2, 9)),
                    Workspace(mlp((10, 64, 64, 9))))

    def test_input_buffer_is_kept_per_row_count(self):
        ws = Workspace(self.ARCH)
        inp = ws.inputs(5)
        assert inp.shape == (5, 9)
        inp[...] = Rng(11).normal_matrix(5, 9)
        params = init_params(self.ARCH, Rng(12))
        out = forward(self.ARCH, params, inp, ws)
        assert ws.inputs(5) is inp
        assert np.array_equal(out, forward(self.ARCH, params, inp.copy()))
        assert ws.inputs(6).shape == (6, 9)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        gen = np.random.default_rng(15)
        arch = random_arch(gen)
        params = random_params(gen, arch)
        path = tmp_path / "net.bin"
        save_checkpoint(path, arch, params)
        arch2, params2 = load_checkpoint(path)
        assert arch2.widths == arch.widths
        assert arch2.replicas == arch.replicas
        x = gen.normal(size=(6, arch.input_dim))
        assert np.array_equal(forward(arch, params, x), forward(arch2, params2, x))

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_rejects_truncated_and_trailing(self, tmp_path):
        gen = np.random.default_rng(18)
        arch = random_arch(gen)
        path = tmp_path / "net.bin"
        save_checkpoint(path, arch, random_params(gen, arch))
        data = path.read_bytes()
        for bad in (data[:-8], data + b"\0"):  # one float short, one byte over
            path.write_bytes(bad)
            with pytest.raises(CorruptFile):
                load_checkpoint(path)

    def test_invalid_network_header_is_corrupt(self, tmp_path):
        """A header that parses but describes an invalid network: a broken
        permutation, a replica count below 1, a mask byte other than 0/1."""
        plain = mlp((3, 4, 2))
        arch = WsnnArchitecture(plain.widths, plain.replicas, plain.q_perms,
                                plain.r_perms, weight_masks=(np.ones((4, 3)), None))
        params = init_params(arch, Rng(0))
        path = tmp_path / "net.bin"
        save_checkpoint(path, arch, params)
        data = path.read_bytes()
        # magic, depth and 3 widths put the replica count at byte 40; it is
        # followed by sparsity and bound, so the first Q entry is at byte 64;
        # the 20 mask bytes sit just before the parameter block
        n_params = sum(a.size for a in params.weights + params.biases)
        first_mask = len(data) - 8 * n_params - 20
        for at, value in ((64, np.int64(1)), (40, np.int64(-1)),
                          (first_mask, np.uint8(7))):
            path.write_bytes(data[:at] + value.tobytes() + data[at + value.nbytes:])
            with pytest.raises(CorruptFile,
                               match=re.escape(f"{path}: invalid network")):
                load_checkpoint(path)


class TestLinearNetwork:
    def test_exact_affine(self):
        gen = np.random.default_rng(16)
        w = gen.normal(size=(3, 4))
        b = gen.normal(size=3)
        arch, params = linear_network(w, b)
        x = gen.normal(size=(10, 4))
        assert np.allclose(forward(arch, params, x), x @ w.T + b, atol=1e-14)


class TestMaterialize:
    def test_bias_materialization(self):
        gen = np.random.default_rng(17)
        arch = random_arch(gen)
        params = random_params(gen, arch)
        mats, biases = effective_layers(arch, params)
        x = gen.normal(size=arch.input_dim)
        ref_z = wsnn_layer_forward_np(
            x[None, :], params.weights[0], params.biases[0],
            *perm_tables(arch, 0))[0]
        assert np.allclose(ref_z, mats[0] @ x + biases[0], atol=1e-12)
