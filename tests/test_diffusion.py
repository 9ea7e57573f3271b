import math

import numpy as np
import pytest

from conftest import (ReferenceAdamState, finite_diff_param_grads,
                      reference_canonical_order, reference_dsm_objective,
                      reference_dsm_value_and_grads, reference_network_score,
                      relative_error, time_input, warm_peak)
from diffden import diffusion, wsnn
from diffden.densities import Dataset, IsoGaussian
from diffden.diffusion import (AdamState, DiffusionSchedule, TrainConfig,
                               conditional_score, dsm_loss,
                               dsm_value_and_grads, fit, forward_sample,
                               network_score, score_mse, train,
                               write_trace_csv)
from diffden.errors import (DimensionMismatch, EmptyDataset, NegativeTime,
                            SingularTime)
from diffden.numerics import Rng
from diffden.sampler import (vanilla_sm_pointwise,
                             vanilla_sm_stencil_value_and_grads)

SCHED = DiffusionSchedule()


class TestSchedule:
    def test_time_zero(self):
        assert SCHED.mu_sigma(0.0) == (1.0, 0.0)

    def test_closed_form_log2(self):
        mu, sigma = SCHED.mu_sigma(math.log(2.0))
        assert abs(mu - 0.5) < 1e-14
        assert abs(sigma - math.sqrt(0.75)) < 1e-14

    def test_numeric_integration_cross_check(self):
        general = DiffusionSchedule(alpha=lambda t: 1.0, tau_lower=1.0, tau_upper=1.0)
        for t in (0.05, math.log(2.0), 2.4):
            mu_c, sigma_c = SCHED.mu_sigma(t)
            mu_n, sigma_n = general.mu_sigma(t)
            assert abs(mu_c - mu_n) < 1e-10
            assert abs(sigma_c - sigma_n) < 1e-10

    def test_nonconstant_alpha_against_closed_form(self):
        sched = DiffusionSchedule(alpha=lambda t: 1.0 + 0.5 * math.sin(t),
                                  tau_lower=0.5, tau_upper=1.5)
        for t in (0.1, 0.9, 2.5):
            integral = t + 0.5 * (1.0 - math.cos(t))
            mu, sigma = sched.mu_sigma(t)
            assert abs(mu - math.exp(-integral)) < 1e-10
            assert abs(mu * mu + sigma * sigma - 1.0) < 1e-12

    def test_identity_mu2_plus_sigma2(self):
        gen = np.random.default_rng(0)
        for t in gen.uniform(1e-6, 3.0, size=100):
            mu, sigma = SCHED.mu_sigma(float(t))
            assert abs(mu * mu + sigma * sigma - 1.0) < 1e-12

    def test_small_time_bounds(self):
        # 1 - tau_up * t <= mu_t <= 1 - tau_lo * t / 2, sqrt(tau_lo t) <= sigma_t
        # <= sqrt(2 tau_up t) for t <= 1 / (2 tau_up)
        gen = np.random.default_rng(1)
        for t in gen.uniform(1e-8, 0.5, size=100):
            mu, sigma = SCHED.mu_sigma(float(t))
            assert 1.0 - SCHED.tau_upper * t <= mu <= 1.0 - SCHED.tau_lower * t / 2.0
            assert math.sqrt(SCHED.tau_lower * t) <= sigma
            assert sigma <= math.sqrt(2.0 * SCHED.tau_upper * t)

    def test_negative_time(self):
        with pytest.raises(NegativeTime):
            SCHED.mu_sigma(-0.1)

    def test_vectorized_times(self):
        t = np.array([0.0, math.log(2.0), 1.0])
        mu, sigma = SCHED.mu_sigma(t)
        assert mu.shape == (3,)
        assert abs(mu[1] - 0.5) < 1e-14


class TestForwardSample:
    def test_time_zero_identity(self, rng):
        x0 = rng.normal_matrix(4, 3)
        assert np.array_equal(forward_sample(SCHED, x0, 0.0, rng), x0)

    def test_large_time_is_standard_normal(self, rng):
        x0 = np.full((100_000, 2), 5.0)
        xt = forward_sample(SCHED, x0, 25.0, rng)
        assert np.max(np.abs(xt.mean(axis=0))) < 0.02
        assert np.max(np.abs(xt.var(axis=0) - 1.0)) < 0.03

    def test_seed_determinism(self):
        x0 = np.ones((3, 2))
        a = forward_sample(SCHED, x0, 0.7, Rng(5))
        b = forward_sample(SCHED, x0, 0.7, Rng(5))
        assert np.array_equal(a, b)

    def test_per_element_times(self, rng):
        x0 = np.zeros((4, 1))
        t = np.array([0.1, 0.5, 1.0, 2.0])
        xt = forward_sample(SCHED, x0, t, rng)
        assert xt.shape == (4, 1)


class TestConditionalScore:
    def test_zero_at_mean(self):
        x0 = np.array([1.0, -2.0])
        mu, _ = SCHED.mu_sigma(0.5)
        assert np.array_equal(conditional_score(SCHED, x0, mu * x0, 0.5),
                              np.zeros(2))

    def test_hand_value(self):
        # mu = 1/2, sigma^2 = 3/4 at t = log 2; x0 = 1, x_t = 1
        got = conditional_score(SCHED, np.array([1.0]), np.array([1.0]),
                                math.log(2.0))
        assert abs(got[0] - (-2.0 / 3.0)) < 1e-12

    def test_matches_log_kernel_gradient(self):
        t = 0.73
        mu, sigma = SCHED.mu_sigma(t)
        x0 = np.array([0.4, -1.1])
        xt = np.array([0.9, 0.2])

        def log_kernel(x):
            return -np.sum((x - mu * x0) ** 2) / (2 * sigma ** 2)

        got = conditional_score(SCHED, x0, xt, t)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (log_kernel(xt + e) - log_kernel(xt - e)) / (2 * h)
            assert abs(got[i] - fd) < 1e-6

    def test_singular_time(self):
        with pytest.raises(SingularTime):
            conditional_score(SCHED, np.ones(2), np.ones(2), 0.0)


class TestDsmLoss:
    def test_zero_when_net_equals_conditional_score(self, rng):
        t = 0.8
        mu, sigma = SCHED.mu_sigma(t)
        x0 = np.array([0.7, -0.3])
        # f(x, t) = -(x - mu x0) / sigma^2 realised exactly as a linear net
        w = np.hstack([-np.eye(2) / sigma ** 2, np.zeros((2, 1))])
        arch, params = wsnn.linear_network(w, mu * x0 / sigma ** 2)
        xt = forward_sample(SCHED, x0, t, rng)
        assert dsm_loss(arch, params, SCHED, x0, xt, t) < 1e-24

    def test_zero_net_gives_target_norm(self, rng):
        t = 0.5
        x0 = rng.normal_matrix(6, 2)
        xt = forward_sample(SCHED, x0, t, rng)
        arch = wsnn.mlp((3, 4, 2))
        loss = dsm_loss(arch, wsnn.zero_params(arch), SCHED, x0, xt, t)
        want = float(np.mean(np.sum(conditional_score(SCHED, x0, xt, t) ** 2,
                                    axis=1)))
        assert abs(loss - want) < 1e-12

    def test_compositional_recomputation(self, rng):
        t = 1.1
        x0 = rng.normal_matrix(5, 2)
        xt = forward_sample(SCHED, x0, t, rng)
        arch = wsnn.mlp((3, 8, 2))
        params = wsnn.init_params(arch, rng.child(1))
        f = wsnn.forward(arch, params, time_input(xt, t))
        want = float(np.mean(np.sum(
            (f - conditional_score(SCHED, x0, xt, t)) ** 2, axis=1)))
        assert abs(dsm_loss(arch, params, SCHED, x0, xt, t) - want) < 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        t = 0.9
        x0 = rng.normal_matrix(3, 2)
        z = rng.normal_matrix(3, 2)
        mu, sigma = SCHED.mu_sigma(t)
        xt = mu * x0 + sigma * z
        arch = wsnn.mlp((3, 5, 2))
        params = wsnn.init_params(arch, rng.child(2))

        def loss(p):
            return dsm_loss(arch, p, SCHED, x0, xt, t)

        got_loss, grads = dsm_value_and_grads(arch, params, SCHED, x0,
                                              np.full(3, t), z)
        assert abs(got_loss - loss(params)) < 1e-12
        fd_w, fd_b = finite_diff_param_grads(loss, params)
        for got, want in zip(grads.weights + grads.biases, fd_w + fd_b):
            big = np.abs(want) > 1e-6
            if big.any():
                assert relative_error(got[big], want[big]) < 1e-5


class TestOnePass:
    """Each training objective runs the network once per call."""

    def _dsm_inputs(self, rng):
        """arch, params, x0, t, the noise z and x_t = mu_t x0 + sigma_t z
        as `forward_sample` draws it from the same stream."""
        arch = wsnn.mlp((4, 16, 16, 3))
        params = wsnn.init_params(arch, rng.child(1))
        x0 = rng.normal_matrix(32, 3)
        t = rng.uniform(32, SCHED.t_min, SCHED.t_max)
        return (arch, params, x0, t, rng.child(2).normal_matrix(32, 3),
                forward_sample(SCHED, x0, t, rng.child(2)))

    def test_objectives_run_one_forward_pass(self, rng, monkeypatch):
        calls = []
        real = wsnn._forward_cache

        def counted(*args):
            calls.append(1)
            return real(*args)

        arch, params, x0, t, z, _ = self._dsm_inputs(rng)
        monkeypatch.setattr(wsnn, "_forward_cache", counted)
        dsm_value_and_grads(arch, params, SCHED, x0, t, z)
        assert len(calls) == 1
        arch = wsnn.mlp((3, 16, 16, 3))
        vanilla_sm_stencil_value_and_grads(
            arch, wsnn.init_params(arch, rng.child(2)), rng.normal_matrix(32, 3), 0.1)
        assert len(calls) == 2

    def test_exact_vanilla_sm_loss_runs_one_forward_pass(self, rng, monkeypatch):
        """One pass and one materialisation of the dense layers: the exact
        divergence reads its ReLU masks from that pass."""
        calls = []
        for name in ("_forward_cache", "effective_layers"):
            real = getattr(wsnn, name)

            def counted(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(wsnn, name, counted)
        arch = wsnn.mlp((3, 16, 16, 3))
        params = wsnn.init_params(arch, rng.child(2))
        vanilla_sm_pointwise(arch, params, rng.normal_matrix(32, 3))
        assert sorted(calls) == ["_forward_cache", "effective_layers"]

    def test_dsm_equals_forward_backward_composition(self, rng):
        arch, params, x0, t, z, xt = self._dsm_inputs(rng)
        loss, grads = dsm_value_and_grads(arch, params, SCHED, x0, t, z)
        net_in = time_input(xt, t)
        resid = wsnn.forward(arch, params, net_in) - conditional_score(SCHED, x0, xt, t)
        want, _ = wsnn.backward(arch, params, net_in, 2.0 * resid / xt.shape[0])
        assert loss == float(np.mean(np.sum(resid ** 2, axis=1)))
        for got, ref in zip(grads.weights + grads.biases, want.weights + want.biases):
            assert np.array_equal(got, ref)


class TestTrain:
    def _toy(self, rng, n=64, dim=1):
        data = IsoGaussian(dim).sample(n, rng)
        arch = wsnn.mlp((dim + 1, 16, 16, dim))
        params = wsnn.init_params(arch, rng.child(9))
        return data, arch, params

    def test_zero_learning_rate_keeps_params(self, rng):
        data, arch, params = self._toy(rng)
        cfg = TrainConfig(batch_size=16, learning_rate=0.0, steps=10, seed=1)
        trained, _ = train(data, arch, params, SCHED, cfg)
        for a, b in zip(trained.weights, params.weights):
            assert np.array_equal(a, b)

    def test_loss_decreases(self, rng):
        """Training lowers the denoising loss on one fixed set of draws and
        at least halves the score error against the exact score -x.  (The
        per-epoch training means are dominated by the target's irreducible
        1/sigma_t^2 variance, so the first and last epoch do not order.)"""
        data = IsoGaussian(1).sample(512, rng)
        arch = wsnn.mlp((2, 32, 32, 1))
        params = wsnn.init_params(arch, rng.child(9))
        cfg = TrainConfig(batch_size=64, steps=800, seed=3, epoch_len=100)
        trained, _ = train(data, arch, params, SCHED, cfg)
        draws = rng.child(10)
        x0 = IsoGaussian(1).sample(4096, draws).x
        t = draws.uniform(4096, SCHED.t_min, SCHED.t_max)
        xt = forward_sample(SCHED, x0, t, draws)
        before, after = (dsm_loss(arch, p, SCHED, x0, xt, t) for p in (params, trained))
        assert after < before
        before, after = (score_mse(network_score(arch, p), IsoGaussian(1), SCHED,
                                   4096, rng.child(11)).value
                         for p in (params, trained))
        assert after <= 0.5 * before

    def test_full_batch_permutation_invariance(self, rng):
        data, arch, params = self._toy(rng, n=32)
        cfg = TrainConfig(batch_size=32, steps=25, seed=7)
        ref, _ = train(data, arch, params, SCHED, cfg)
        perm = Dataset(data.x[::-1])
        out, _ = train(perm, arch, params, SCHED, cfg)
        for a, b in zip(ref.weights + ref.biases, out.weights + out.biases):
            assert np.array_equal(a, b)

    def test_dataset_sorted_once_per_fit(self, rng, monkeypatch):
        data, arch, params = self._toy(rng)
        calls = []
        lexsort = np.lexsort

        def counted(keys):
            calls.append(1)
            return lexsort(keys)

        monkeypatch.setattr(np, "lexsort", counted)
        train(data, arch, params, SCHED, TrainConfig(batch_size=16, steps=10, seed=1))
        assert len(calls) == 1

    @pytest.mark.parametrize("batch_size", [16, 40, 64])
    def test_batches_equal_sorted_minibatch(self, batch_size):
        """Every batch the objective sees has the bytes of the minibatch
        sorted on its own, on a dataset of 40 rows with duplicates and rows
        equal up to the sign of a zero; 40 and 64 are full batches."""
        gen = np.random.default_rng(21)
        base = gen.normal(size=(6, 3))
        base[:3, 0] = 0.0
        x = base[gen.integers(0, 6, 40)]
        x[::2, 0] *= -1.0
        arch = wsnn.mlp((3, 4, 3))
        seen = []

        def objective(params, batch, rs):
            seen.append(batch.copy())
            return 0.0, wsnn.zero_params(arch)

        fit(x, arch, wsnn.zero_params(arch),
            TrainConfig(batch_size=batch_size, steps=8, seed=5), objective)
        assert len(seen) == 8
        for step, got in enumerate(seen):
            rs = Rng(5).child(1, step)
            want = reference_canonical_order(
                x if batch_size >= 40 else x[rs.integers(0, 40, batch_size)])
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    def test_flat_adam_matches_per_array_reference(self, rng):
        arch = wsnn.mlp((4, 6, 5, 3))
        p0 = wsnn.init_params(arch, rng.child(1))
        kept = p0.copy()
        adam = AdamState(p0)
        want = p0.copy()
        ref = ReferenceAdamState(want)
        gen = np.random.default_rng(22)
        for _ in range(20):
            g = wsnn.WsnnParams([gen.normal(size=w.shape) for w in p0.weights],
                                [gen.normal(size=b.shape) for b in p0.biases])
            adam.step(g, 1e-2)
            ref.step(want, g, 1e-2)
        for got, ref_a, a0, b0 in zip(adam.params.weights + adam.params.biases,
                                      want.weights + want.biases,
                                      p0.weights + p0.biases,
                                      kept.weights + kept.biases):
            assert got.tobytes() == ref_a.tobytes()
            assert np.shares_memory(got, adam.flat)
            assert a0.tobytes() == b0.tobytes()

    def test_seed_determinism(self, rng):
        data, arch, params = self._toy(rng)
        cfg = TrainConfig(batch_size=16, steps=20, seed=11)
        a, _ = train(data, arch, params, SCHED, cfg)
        b, _ = train(data, arch, params, SCHED, cfg)
        for x, y in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(x, y)

    def test_dimension_checks(self, rng):
        data = IsoGaussian(2).sample(8, rng)
        arch = wsnn.mlp((2, 4, 2))  # wrong input width for D=2 (needs 3)
        with pytest.raises(DimensionMismatch):
            train(data, arch, wsnn.zero_params(arch), SCHED, TrainConfig(steps=1))

    def test_empty_dataset(self):
        arch = wsnn.mlp((2, 4, 1))
        with pytest.raises(EmptyDataset):
            train(np.empty((0, 1)), arch, wsnn.zero_params(arch), SCHED,
                  TrainConfig(steps=1))

    def test_trace_csv(self, tmp_path, rng):
        data, arch, params = self._toy(rng)
        cfg = TrainConfig(batch_size=16, steps=8, seed=2, epoch_len=4)
        _, trace = train(data, arch, params, SCHED, cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss,score_mse,wall_time_s"
        assert len(lines) == 3

    def test_score_probe_recorded_in_trace(self, tmp_path, rng):
        density = IsoGaussian(1)
        data = density.sample(64, rng)
        arch = wsnn.mlp((2, 8, 1))
        params = wsnn.init_params(arch, rng.child(9))
        cfg = TrainConfig(batch_size=16, steps=8, seed=2, epoch_len=4)
        _, trace = train(data, arch, params, SCHED, cfg,
                         score_probe=(density, 256))
        assert all(math.isfinite(row.score_mse) for row in trace)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        cells = path.read_text().splitlines()[1].split(",")
        assert float(cells[2]) == trace[0].score_mse


class TestScoreMse:
    def test_exact_score_gives_zero(self, rng):
        d = IsoGaussian(2)
        est = score_mse(lambda x, t: -x, d, SCHED, 4096, rng)
        assert est.value == 0.0

    def test_zero_score_matches_analytic_value(self, rng):
        # E |0 - (-x)|^2 = E |x|^2 = D under the stationary law, times the
        # window length
        d = IsoGaussian(3)
        est = score_mse(lambda x, t: np.zeros_like(x), d, SCHED, 20_000, rng)
        want = (SCHED.t_max - SCHED.t_min) * 3
        assert abs(est.value - want) < 3 * est.stderr

    def test_mc_error_scaling(self, rng):
        d = IsoGaussian(2)
        small = score_mse(lambda x, t: np.zeros_like(x), d, SCHED, 2000, rng)
        big = score_mse(lambda x, t: np.zeros_like(x), d, SCHED, 8000,
                        rng.child(1))
        ratio = big.stderr / small.stderr
        assert 0.3 < ratio < 0.75  # ~1/2 expected for 4x the sample size

    def test_score_of_wrong_shape_rejected(self, rng):
        d = IsoGaussian(2)
        for bad in (lambda x, t: x[:, :1], lambda x, t: x.sum(axis=1, keepdims=True),
                    lambda x, t: x[:1]):
            with pytest.raises(DimensionMismatch):
                score_mse(bad, d, SCHED, 64, rng)

    def test_network_score_shape(self, rng):
        arch = wsnn.mlp((3, 6, 2))
        params = wsnn.init_params(arch, rng)
        score = network_score(arch, params)
        out = score(np.zeros((5, 2)), 0.3)
        assert out.shape == (5, 2)


class TestVincentIdentity:
    def test_marginal_conditional_gap_is_constant_in_f(self, rng):
        # E|f - grad log p_t|^2 - E|f - cond|^2 depends only on t: the gap
        # computed for two different linear scores must agree within MC error
        d = IsoGaussian(1)
        t = 0.6
        mu, sigma = SCHED.mu_sigma(t)
        n = 100_000
        x0 = d.sample(n, rng).x
        z = rng.child(1).standard_normal(n).reshape(n, 1)
        xt = mu * x0 + sigma * z
        marginal = -xt  # stationary score
        cond = -(xt - mu * x0) / sigma ** 2

        def gap(a):
            fm = (a * xt - marginal) ** 2
            fc = (a * xt - cond) ** 2
            return (fm - fc).ravel()

        diff = gap(0.5) - gap(-1.5)
        se = diff.std(ddof=1) / math.sqrt(n)
        assert abs(diff.mean()) < 3 * se


class TestFusedDsm:
    """The fused denoising step, the workspace-input network score and the
    Adam scratch buffers give the bytes of the code they replaced."""

    ARCH = wsnn.mlp((4, 16, 16, 3))

    @pytest.mark.parametrize("shared_t", [False, True])
    def test_step_equals_reference(self, rng, shared_t):
        params = wsnn.init_params(self.ARCH, rng.child(1))
        x0 = rng.normal_matrix(32, 3)
        t = 0.4 if shared_t else rng.uniform(32, SCHED.t_min, SCHED.t_max)
        z = rng.child(2).normal_matrix(32, 3)
        kept = z.copy()
        xt = forward_sample(SCHED, x0, t, rng.child(2))
        loss, grads = dsm_value_and_grads(self.ARCH, params, SCHED, x0, t, z,
                                          wsnn.Workspace(self.ARCH))
        want_loss, want = reference_dsm_value_and_grads(self.ARCH, params, SCHED,
                                                        x0, xt, t)
        assert loss == want_loss
        for a, b in zip(grads.weights + grads.biases, want.weights + want.biases):
            assert a.tobytes() == b.tobytes()
        assert z.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("n, batch_size", [(300, 32), (40, 64)])
    def test_train_equals_reference_objective(self, rng, n, batch_size):
        data = IsoGaussian(3).sample(n, rng).x
        p0 = wsnn.init_params(self.ARCH, rng.child(1))
        cfg = TrainConfig(batch_size=batch_size, steps=30, seed=5, epoch_len=10)
        got, trace = train(data, self.ARCH, p0, SCHED, cfg)
        want, want_trace = fit(data, self.ARCH, p0, cfg,
                               reference_dsm_objective(self.ARCH, SCHED))
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.tobytes() == b.tobytes()
        assert [r.mean_loss for r in trace] == [r.mean_loss for r in want_trace]

    def test_one_mu_sigma_call_per_step(self, rng, monkeypatch):
        calls = []
        mu_sigma = DiffusionSchedule.mu_sigma

        def counted(self, t):
            calls.append("mu_sigma")
            return mu_sigma(self, t)

        monkeypatch.setattr(DiffusionSchedule, "mu_sigma", counted)
        for name in ("conditional_score", "forward_sample"):
            monkeypatch.setattr(diffusion, name, lambda *a, name=name: calls.append(name))
        data = IsoGaussian(3).sample(64, rng)
        train(data, self.ARCH, wsnn.init_params(self.ARCH, rng.child(1)), SCHED,
              TrainConfig(batch_size=16, steps=5, seed=1))
        assert calls == ["mu_sigma"] * 5

    def test_network_score_equals_reference(self, rng):
        params = wsnn.init_params(self.ARCH, rng.child(1))
        score = network_score(self.ARCH, params)
        ref = reference_network_score(self.ARCH, params)
        per_row = rng.uniform(50, SCHED.t_min, SCHED.t_max)
        for x, t in ((rng.normal_matrix(50, 3), 0.3),
                     (rng.normal_matrix(50, 3), per_row),
                     (rng.normal_matrix(7, 3), 1.0),
                     (rng.normal_matrix(1, 3)[0], 0.7)):
            kept = x.copy()
            got = score(x, t)
            assert got.shape == x.shape
            assert got.tobytes() == ref(x, t).tobytes()
            assert x.tobytes() == kept.tobytes()

    def test_network_score_input_width_checked(self, rng):
        score = network_score(self.ARCH, wsnn.init_params(self.ARCH, rng))
        for bad in (np.zeros((4, 4)), np.zeros((4, 2)), np.zeros(2)):
            with pytest.raises(DimensionMismatch):
                score(bad, 0.5)

    def test_warm_network_score_allocates_less_than_output_and_input(self):
        """A warm call writes (x, t) into its workspace: it allocates the
        fresh output and the dense layers, not a concatenated input."""
        arch = wsnn.mlp((10, 64, 64, 9))
        score = network_score(arch, wsnn.init_params(arch, Rng(3)))
        x = Rng(4).normal_matrix(3000, 9)
        assert warm_peak(lambda: score(x, 0.5)) < 3000 * (9 + 10) * 8

    def test_adam_step_allocates_less_than_its_buffer(self, rng):
        arch = wsnn.mlp((26, 64, 64, 25))
        adam = AdamState(wsnn.init_params(arch, rng))
        grads = wsnn.init_params(arch, rng.child(1))
        assert warm_peak(lambda: adam.step(grads, 1e-3)) < adam.flat.nbytes
