import math
import re
import time

import numpy as np
import pytest

from conftest import (conv2d_valid, finite_diff_param_grads, linear_network,
                      max_scaled_dev, perm_tables, random_perm, reference_backward,
                      reference_dense_pass, reference_dsm_train,
                      reference_forward, reference_network_score,
                      reference_value_and_grads, relative_error, replicated,
                      warm_peak, with_masks, wsnn_layer_forward_np, zero_params)
from diffden import wsnn
from diffden.diffusion import DiffusionSchedule, TrainConfig, network_score, train
from diffden.errors import (CorruptFile, DimensionMismatch, InvalidSize,
                            PreconditionViolated)
from diffden.formats import load_checkpoint, save_checkpoint
from diffden.numerics import Rng
from diffden.sampler import SamplerConfig, reverse_sde_sample
from diffden.wsnn import (Permutation, WsnnArchitecture, WsnnParams,
                          Workspace, backward, conv_as_wsnn,
                          covering_bound_numerator, covering_log_bound,
                          effective_layers, forward, init_params, mlp, packed,
                          value_and_grads)


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
    return WsnnParams.of(
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
        # an output block [W_2 | b_2] one row short
        params = WsnnParams([zero_params(arch).blocks[0], np.zeros((5, 1)).T])
        with pytest.raises(DimensionMismatch):
            forward(arch, params, np.ones(3))

    def test_of_refuses_arrays_that_do_not_pair_up(self):
        w = [np.zeros((4, 3)), np.zeros((2, 4))]
        for biases in ([np.zeros(4)], [np.zeros(4), np.zeros(3)]):
            with pytest.raises(DimensionMismatch):
                WsnnParams.of(w, biases)

    def test_packed_array_rebound_off_its_block_is_refused(self):
        # W_i and b_i are views of the blocks a pass reads, held in
        # tuples, so none can be rebound away from its block
        params = zero_params(mlp((3, 4, 2)))
        for kind in ("weights", "biases"):
            with pytest.raises(TypeError):
                getattr(params, kind)[0] = np.ones_like(getattr(params, kind)[0])
            with pytest.raises(AttributeError):
                setattr(params, kind, getattr(params, kind))

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
    layers = effective_layers(arch, params)
    for i in range(arch.depth - 1):
        z = a @ layers.weights[i].T + layers.biases[i]
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
            for got, want in zip(grads.weights + grads.biases + (gx,),
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
        params = WsnnParams.of([plan.place_filter(filt), np.eye(9)],
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

    @pytest.mark.parametrize("half_width, delta", [(1.0, 0.0), (-1.0, 0.1),
                                                   (1.0, math.nan), (math.nan, 0.1),
                                                   (1.0, math.inf), (math.inf, 0.1)])
    def test_nonpositive_arguments_rejected(self, half_width, delta):
        with pytest.raises(PreconditionViolated):
            covering_log_bound(self._arch(), half_width, delta)

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

    @pytest.mark.parametrize("widths", [(2, 0, 2), (0, 3, 2), (2, 3, 0), (2, -1, 2)])
    def test_width_below_one_rejected(self, widths):
        with pytest.raises(InvalidSize, match="width"):
            mlp(widths)


class TestWorkspace:
    """Reusing one workspace changes no result, and a warm call allocates
    less than one hidden activation."""

    ARCH = mlp((9, 64, 64, 9))

    @staticmethod
    def _head(out):
        return 0.5 * float(np.sum(out * out)), out

    def test_warm_value_and_grads_allocates_less_than_one_activation(self):
        params = init_params(self.ARCH, Rng(1))
        rows = 7 * 128  # one stacked sliced vanilla-SM batch, 3 directions
        x = Rng(2).normal_matrix(rows, 9)
        ws = Workspace(self.ARCH)
        peak = warm_peak(
            lambda: value_and_grads(self.ARCH, params, ws.load(x), self._head, ws))
        assert peak < rows * 64 * 8

    @pytest.mark.parametrize("widths", [(9, 64, 64, 9), (10, 64, 64, 9)],
                             ids=["untimed", "timed"])
    def test_warm_time_free_score_allocates_less_than_one_activation(self, widths):
        """Also for the timed score, which writes x and t into the
        feature-major input buffer in place of a per-call input copy."""
        arch = mlp(widths)
        score = network_score(arch, init_params(arch, Rng(3)))
        rows = 3000  # one Langevin or reverse-SDE step at n_eval = 3000
        x = Rng(4).normal_matrix(rows, 9)
        peak = warm_peak(lambda: score(x, 0.0))
        assert peak < rows * 64 * 8
        # the fresh float32 (D, rows) output, and no input-sized copy beside it
        assert peak < 2 * rows * 9 * 4

    def test_alternating_row_counts_match_fresh_workspace(self):
        params = init_params(self.ARCH, Rng(5))
        ws = Workspace(self.ARCH)
        for rows in (128, 896, 128):
            x = Rng(6).child(rows).normal_matrix(rows, 9)
            h = ws.load(x)
            got = value_and_grads(self.ARCH, params, h, self._head, ws)
            want = value_and_grads(self.ARCH, params, h.copy(), self._head)
            assert got[0] == want[0]
            for a, b in zip(got[1].weights + got[1].biases,
                            want[1].weights + want[1].biases):
                assert np.array_equal(a, b)
            assert np.array_equal(forward(self.ARCH, params, x, ws),
                                  forward(self.ARCH, params, x))

    def test_kept_output_survives_next_call(self):
        params = init_params(self.ARCH, Rng(7))
        score = network_score(self.ARCH, params)
        x = Rng(8).normal_matrix(300, 9)
        first = score(x, 0.0)
        kept = first.copy()
        score(2.0 * x, 0.0)
        assert np.array_equal(first, kept)
        ws = Workspace(self.ARCH)
        _, grads = value_and_grads(self.ARCH, params, ws.load(x), self._head, ws)
        kept = [a.copy() for a in grads.weights + grads.biases]
        value_and_grads(self.ARCH, params, ws.load(2.0 * x), self._head, ws)
        for a, b in zip(grads.weights + grads.biases, kept):
            assert np.array_equal(a, b)

    def test_value_and_grads_refuses_bad_input_and_workspace(self):
        """The input is (d_1 + 1, rows) of the params' dtype, and the
        workspace is of the params' architecture and dtype."""
        params = init_params(self.ARCH, Rng(15))
        h = Workspace(self.ARCH).load(Rng(16).normal_matrix(6, 9))
        for bad in (h[:-1], np.ones((11, 6)), h[:, 0], h.T):
            with pytest.raises(DimensionMismatch, match="input of shape"):
                value_and_grads(self.ARCH, params, bad, self._head)
        with pytest.raises(PreconditionViolated, match="float32 input for a float64"):
            value_and_grads(self.ARCH, params, h.astype(np.float32), self._head)
        for other in (mlp((9, 32, 9)), mlp((10, 64, 64, 9))):
            with pytest.raises(DimensionMismatch, match="workspace"):
                value_and_grads(self.ARCH, params, h, self._head, Workspace(other))
        with pytest.raises(PreconditionViolated, match="float32 workspace"):
            value_and_grads(self.ARCH, params, h, self._head,
                            Workspace(self.ARCH, np.float32))

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

    def test_float32_pass_runs_in_a_float32_workspace(self):
        params = init_params(self.ARCH, Rng(13)).astype(np.float32)
        x = Rng(14).normal_matrix(6, 9)
        ws = Workspace(self.ARCH, np.float32)
        out = forward(self.ARCH, params, x, ws)
        assert out.dtype == np.float32
        assert ws.inputs(6).dtype == np.float32
        assert all(a.dtype == np.float32 for a in ws.hidden(6))
        assert out.tobytes() == reference_dense_pass(self.ARCH, params, x)[0].tobytes()
        with pytest.raises(PreconditionViolated):
            forward(self.ARCH, params, x, Workspace(self.ARCH))

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


class TestPlainLayers:
    """A plain hidden layer (one identity replica) skips the replica gather
    and fold, and reverse mode stops at the first layer's parameter
    gradients.  The bytes are those of the gather-and-fold-every-layer
    reference, which turns the -0.0 of a masked weight into +0.0."""

    ARCH = with_masks(np.random.default_rng(19), mlp((10, 64, 64, 9)))
    SCHED = DiffusionSchedule()

    def _params(self):
        params = init_params(self.ARCH, Rng(20))
        negative_zeros = sum(np.count_nonzero((w == 0) & np.signbit(w))
                             for w in params.weights)
        assert negative_zeros > 500
        return params

    def test_one_identity_replica_marks_a_plain_layer(self):
        gen = np.random.default_rng(21)
        assert self.ARCH.plain == (True, True)
        assert replicated(gen, (3, 4, 5, 2), 2).plain == (False, False)
        shifted = Permutation(np.roll(np.arange(4), 1))
        one_permuted = WsnnArchitecture((3, 4, 2), (1,), ((Permutation.identity(3),),),
                                        ((shifted,),))
        assert one_permuted.plain == (False,)

    def test_plain_layers_are_the_parameters(self):
        params = self._params()
        layers = effective_layers(self.ARCH, params)
        assert all(a is b for a, b in zip(layers.blocks, params.blocks))

    def test_pass_bytes_equal_reference(self):
        params = self._params()
        x = Rng(22).normal_matrix(300, 10)
        g = Rng(23).normal_matrix(300, 9)

        def head(out):
            return float(np.sum(out * g)), g

        want_out = reference_dense_pass(self.ARCH, params, x)[0]
        want_value, want, want_dx = reference_value_and_grads(self.ARCH, params, x, head)
        value, grads = value_and_grads(self.ARCH, params, Workspace(self.ARCH).load(x),
                                       lambda out: (float(np.sum(out.T * g)), g.T))
        back, dx = backward(self.ARCH, params, x, g)
        assert forward(self.ARCH, params, x).tobytes() == want_out.tobytes()
        assert value == want_value
        assert dx.tobytes() == want_dx.tobytes()
        for got in (grads, back):
            for a, b in zip(got.weights + got.biases, want.weights + want.biases):
                assert a.tobytes() == b.tobytes()

    def test_train_and_sampling_bytes_equal_reference(self):
        p0 = self._params()
        data = Rng(24).normal_matrix(400, 9)
        cfg = TrainConfig(batch_size=64, steps=200, seed=25, epoch_len=1)
        got, trace = train(data, self.ARCH, p0, self.SCHED, cfg)
        want, losses = reference_dsm_train(data, self.ARCH, p0, self.SCHED, cfg)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.tobytes() == b.tobytes()
        assert [r.mean_loss for r in trace] == losses
        config = SamplerConfig(60, 500)
        y = reverse_sde_sample(network_score(self.ARCH, got), self.SCHED, config, 9,
                               Rng(26))
        want_y = reverse_sde_sample(reference_network_score(self.ARCH, want),
                                    self.SCHED, config, 9, Rng(26))
        assert y.tobytes() == want_y.tobytes()

    @pytest.mark.parametrize("m", [1, 2])
    def test_dsm_step_gathers_and_folds_replicated_layers_only(self, monkeypatch, m):
        calls = []
        for name in ("replica_sum", "replica_fold"):
            real = getattr(wsnn, name)

            def counted(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(wsnn, name, counted)
        widths = (4, 16, 16, 3)
        arch = mlp(widths) if m == 1 else replicated(np.random.default_rng(27), widths, m)
        train(Rng(28).normal_matrix(64, 3), arch, init_params(arch, Rng(29)), self.SCHED,
              TrainConfig(batch_size=16, steps=3, seed=1))
        each = 0 if m == 1 else 2 * 3  # once per hidden layer and step
        assert sorted(calls) == ["replica_fold"] * each + ["replica_sum"] * each


def _loaded(arch, tmp_path):
    save_checkpoint(tmp_path / "net.bin", arch, init_params(arch, Rng(0)))
    return load_checkpoint(tmp_path / "net.bin")[1]


class TestBlockLayout:
    """Every parameter block is column-major, its transpose C-contiguous,
    whatever made it: a pass hands BLAS each block as a transposed
    operand, and a C-ordered block would make a row's score depend on the
    batch it came in (see the wsnn module docstring)."""

    ARCH = replicated(np.random.default_rng(31), (4, 6, 5, 3), 2)
    SOURCES = {
        "init_params": lambda arch, tmp_path: init_params(arch, Rng(0)),
        "of": lambda arch, tmp_path: WsnnParams.of(
            [np.ones(arch.layer_shape(i)) for i in range(arch.depth)],
            [np.ones(arch.widths[i + 1]) for i in range(arch.depth)]),
        "copy": lambda arch, tmp_path: init_params(arch, Rng(0)).copy(),
        "astype": lambda arch, tmp_path: init_params(arch, Rng(0)).astype(np.float32),
        "packed": lambda arch, tmp_path: packed(arch, np.float32)[1],
        "load_checkpoint": _loaded,
        "value_and_grads": lambda arch, tmp_path: value_and_grads(
            arch, init_params(arch, Rng(0)), Workspace(arch).load(np.ones((5, 4))),
            lambda out: (0.0, out))[1],
        "effective_layers": lambda arch, tmp_path: effective_layers(
            arch, init_params(arch, Rng(0))),
    }

    @pytest.mark.parametrize("source", SOURCES)
    def test_blocks_are_column_major(self, tmp_path, source):
        params = self.SOURCES[source](self.ARCH, tmp_path)
        assert self.ARCH.plain == (False, False)  # both hidden layers replica sums
        assert len(params.blocks) == self.ARCH.depth
        for P in params.blocks:
            assert P.T.flags.c_contiguous


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_is_corrupt(self, tmp_path, bad):
        """A weight or bias that is not finite (what a diverged training
        run saves) is the file's fault, named with the path and the layer."""
        arch = mlp((3, 4, 5, 2))
        for layer in range(arch.depth):
            for kind in ("weights", "biases"):
                params = init_params(arch, Rng(1))
                getattr(params, kind)[layer].flat[-1] = bad
                path = tmp_path / f"net_{kind}{layer}.bin"
                save_checkpoint(path, arch, params)
                with pytest.raises(CorruptFile, match=re.escape(
                        f"{path}: layer {layer + 1} has a non-finite weight or bias")):
                    load_checkpoint(path)

    def test_zero_width_header_fails_fast(self, tmp_path):
        """A zero-width permutation table takes no bytes, so an 80-byte file
        can declare a million replicas of one: it must fail on its widths,
        not after reading a million empty tables."""
        path = tmp_path / "net.bin"
        depth, widths, replicas, sparsity = 2, (0, 0, 1), 10 ** 6, 0
        path.write_bytes(b"DDWSNN1\n"
                         + np.array([depth, *widths, replicas, sparsity], np.int64).tobytes()
                         + np.float64(0.0).tobytes()      # weight bound
                         + np.int64(0).tobytes()          # no masks
                         + np.zeros(1).tobytes())         # b_2; every W is empty
        start = time.perf_counter()
        with pytest.raises(CorruptFile, match=re.escape(f"{path}: invalid network")):
            load_checkpoint(path)
        assert time.perf_counter() - start < 1.0


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
        layers = effective_layers(arch, params)
        x = gen.normal(size=arch.input_dim)
        ref_z = wsnn_layer_forward_np(
            x[None, :], params.weights[0], params.biases[0],
            *perm_tables(arch, 0))[0]
        assert np.allclose(ref_z, layers.weights[0] @ x + layers.biases[0], atol=1e-12)
