import itertools
import math

import numpy as np
import pytest

from conftest import (ReferenceAdamState, conditional_score, dsm_loss,
                      finite_diff_param_grads, kink_free_entries, linear_network,
                      max_scaled_dev, reference_canonical_order,
                      reference_dense_pass, reference_dsm_train, reference_train,
                      reference_train_vanilla_sm,
                      rademacher, reference_dsm_value_and_grads, reference_network_score,
                      reference_score_mse, relative_error, relu_pattern, replicated, time_input,
                      warm_peak, with_masks, zero_params)
from diffden import diffusion, formats, sampler, wsnn
from diffden.densities import GaussMixture, GridMrfGaussian, IsoGaussian
from diffden.diffusion import (AdamState, DiffusionSchedule, Objective, TrainConfig,
                               dsm_value_and_grads, fit, forward_sample,
                               network_score, score_mse, train)
from diffden.errors import (BadConfig, DimensionMismatch, EmptyDataset,
                            NegativeTime, NonFiniteState, SingularTime)
from diffden.formats import write_trace_csv
from diffden.numerics import Rng
from diffden.sampler import vanilla_sm_pointwise, vanilla_sm_sliced_value_and_grads

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

    @pytest.mark.parametrize("kwargs", [dict(t_min=0.5, t_max=0.1),
                                        dict(t_min=0.0), dict(alpha=0.0),
                                        dict(alpha=lambda t: 1.0)])
    def test_bad_setting_is_bad_config(self, kwargs):
        with pytest.raises(BadConfig):
            DiffusionSchedule(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(t_max=math.inf), dict(t_max=math.nan), dict(t_min=math.nan),
        dict(t_min=math.inf, t_max=math.inf), dict(alpha=math.inf),
        dict(alpha=math.nan), dict(tau_lower=math.inf), dict(tau_upper=math.nan),
        dict(alpha=lambda t: 1.0, tau_lower=1.0, tau_upper=math.inf),
        dict(alpha=lambda t: 1.0, tau_lower=-math.inf, tau_upper=1.0)])
    def test_non_finite_setting_is_bad_config(self, kwargs):
        """A non-finite constant alpha, tau bound or time is refused when the
        schedule is built: t_max = inf used to fail only inside reverse-SDE
        sampling, and alpha = inf gave mu_sigma(0) = (nan, nan)."""
        with pytest.raises(BadConfig):
            DiffusionSchedule(**kwargs)

    def test_horizon_bound(self):
        """t_max and tau_upper * t_max up to MAX_HORIZON are accepted, and
        one ulp beyond it is BadConfig, for the time itself and for a
        callable alpha whose upper bound scales it."""
        bound = diffusion.MAX_HORIZON
        assert DiffusionSchedule(t_max=bound).t_max == bound
        DiffusionSchedule(alpha=lambda t: 1.0, tau_lower=0.5, tau_upper=2.0,
                          t_max=bound / 2.0)
        for kwargs in (dict(t_max=math.nextafter(bound, math.inf)),
                       dict(t_max=1e39), dict(t_max=1e308),
                       dict(alpha=4.0, t_max=bound / 2.0),
                       dict(alpha=lambda t: 1.0, tau_lower=0.5, tau_upper=2.0,
                            t_max=math.nextafter(bound / 2.0, math.inf))):
            with pytest.raises(BadConfig, match=r"t_max <= 1e\+06 / max\(1, tau_upper\)"):
                DiffusionSchedule(**kwargs)

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

    def test_times_of_wrong_shape_are_refused(self, rng):
        """t is one time or one time per row: 4 times for 5 rows raise
        DimensionMismatch naming both shapes, not numpy's broadcast error."""
        with pytest.raises(DimensionMismatch, match=r"times of shape \(4,\) for 5 rows"):
            forward_sample(SCHED, np.zeros((5, 2)), np.full(4, 0.5), rng)


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
        arch, params = linear_network(w, mu * x0 / sigma ** 2)
        xt = forward_sample(SCHED, x0, t, rng)
        assert dsm_loss(arch, params, SCHED, x0, xt, t) < 1e-24

    def test_zero_net_gives_target_norm(self, rng):
        t = 0.5
        x0 = rng.normal_matrix(6, 2)
        xt = forward_sample(SCHED, x0, t, rng)
        arch = wsnn.mlp((3, 4, 2))
        loss = dsm_loss(arch, zero_params(arch), SCHED, x0, xt, t)
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
        """Every kink-free gradient entry above 1e-6 matches its central
        difference.  A draw of a 3-5-2 network on 3 rows can leave few such
        entries, so draws go on (fresh data from the stream, fresh weights
        from rng.child(2 + draw)) until 12 entries have been checked."""
        t = 0.9
        mu, sigma = SCHED.mu_sigma(t)
        arch = wsnn.mlp((3, 5, 2))
        checked = 0
        for draw in range(10):
            x0 = rng.normal_matrix(3, 2)
            z = rng.normal_matrix(3, 2)
            xt = mu * x0 + sigma * z
            params = wsnn.init_params(arch, rng.child(2 + draw))

            def loss(p):
                return dsm_loss(arch, p, SCHED, x0, xt, t)

            got_loss, grads = dsm_value_and_grads(arch, params, SCHED, x0,
                                                  np.full(3, t), z)
            assert abs(got_loss - loss(params)) < 1e-12
            fd_w, fd_b = finite_diff_param_grads(loss, params)
            # entries whose difference stencil straddles a ReLU kink are skipped
            inside = kink_free_entries(
                lambda p: relu_pattern(arch, p, time_input(xt, t)), params)
            for got, want, ok in zip(grads.weights + grads.biases, fd_w + fd_b, inside):
                big = (np.abs(want) > 1e-6) & ok
                if big.any():
                    assert relative_error(got[big], want[big]) < 1e-5
                checked += np.count_nonzero(big)
            if checked >= 12:
                break
        assert checked >= 12


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
        vanilla_sm_sliced_value_and_grads(arch, wsnn.init_params(arch, rng.child(2)),
                                          rng.normal_matrix(32, 3),
                                          rademacher(rng, 3, 32, 3), 0.1)
        assert len(calls) == 2

    @pytest.mark.parametrize("method", ["dsm", "vanilla"])
    def test_trainers_run_one_value_and_grads_per_step(self, monkeypatch, method):
        """Every training step is one `wsnn.value_and_grads` call, in fit's
        one float32 workspace, on the float32 copy of the parameters and a
        float32 (d_1 + 1, rows B) input whose last row is ones."""
        calls = []
        real = wsnn.value_and_grads

        def recorded(arch, params, h, head, workspace=None):
            calls.append((params, h, workspace))
            return real(arch, params, h, head, workspace)

        monkeypatch.setattr(wsnn, "value_and_grads", recorded)
        data = Rng(70).normal_matrix(100, 3)
        cfg = TrainConfig(batch_size=16, steps=11, seed=71)
        if method == "dsm":
            arch, rows = wsnn.mlp((4, 16, 16, 3)), 1
            train(data, arch, wsnn.init_params(arch, Rng(72)), SCHED, cfg)
        else:
            arch, rows = wsnn.mlp((3, 16, 16, 3)), 2 * sampler._DIRECTIONS + 1
            sampler.train_vanilla_sm(data, arch, wsnn.init_params(arch, Rng(72)), cfg)
        assert len(calls) == cfg.steps
        workspace = calls[0][2]
        assert isinstance(workspace, wsnn.Workspace) and workspace.dtype == np.float32
        for params, h, ws in calls:
            assert ws is workspace
            assert all(P.dtype == np.float32 for P in params.blocks)
            assert h.shape == (arch.input_dim + 1, rows * 16) and h.dtype == np.float32
            assert np.all(h[-1] == 1.0)

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
        x0 = IsoGaussian(1).sample(4096, draws)
        t = draws.uniform(4096, SCHED.t_min, SCHED.t_max)
        xt = forward_sample(SCHED, x0, t, draws)
        before, after = (dsm_loss(arch, p, SCHED, x0, xt, t) for p in (params, trained))
        assert after < before
        before, after = (score_mse(network_score(arch, p), IsoGaussian(1), SCHED,
                                   4096, rng.child(11)).value
                         for p in (params, trained))
        assert after <= 0.5 * before

    @pytest.mark.parametrize("data_kind", ["continuous", "duplicates"])
    @pytest.mark.parametrize("batch_size", [8, 32])
    @pytest.mark.parametrize("method", ["dsm", "vanilla"])
    def test_permutation_invariance(self, rng, method, batch_size, data_kind):
        """Training on the dataset reversed or shuffled gives the bytes of
        the weights and trace of training on it as given, at a minibatch
        of 8 and a full batch of all 32 rows, for both trainers; also on
        rows with duplicates and a first column of +-0.0 pairs, where the
        dataset is lexsorted and equal rows keep their input order."""
        data = IsoGaussian(2).sample(32, rng)
        if data_kind == "duplicates":
            data = data[np.random.default_rng(24).integers(0, 8, 32)]
            data[::3, 0] = 0.0
            data[1::3, 0] = -0.0
        arch = wsnn.mlp((3 if method == "dsm" else 2, 16, 16, 2))
        params = wsnn.init_params(arch, rng.child(9))
        cfg = TrainConfig(batch_size=batch_size, steps=25, seed=7, epoch_len=5)

        def trainer(x):
            if method == "dsm":
                return train(x, arch, params, SCHED, cfg)
            return sampler.train_vanilla_sm(x, arch, params, cfg)

        ref, ref_trace = trainer(data)
        for perm in (data[::-1], data[np.random.default_rng(25).permutation(32)]):
            out, trace = trainer(perm)
            for a, b in zip(ref.blocks, out.blocks):
                assert a.tobytes() == b.tobytes()
            assert [r.mean_loss for r in trace] == [r.mean_loss for r in ref_trace]

    def test_dataset_sorted_once_per_fit(self, rng, monkeypatch):
        """A fit sorts once, whichever sort it keeps, and never per block:
        continuous data by the stable argsort of its first column alone,
        data whose first column ties by a lexsort after that argsort.  Every
        argsort is counted, of any shape, over 2K + 3 steps in three blocks."""
        data, arch, params = self._toy(rng)
        calls = []
        lexsort, argsort = np.lexsort, np.argsort

        def counted_lexsort(keys):
            calls.append("lexsort")
            return lexsort(keys)

        def counted_argsort(a, *args, **kwargs):
            calls.append("argsort")
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", counted_lexsort)
        monkeypatch.setattr(np, "argsort", counted_argsort)
        cfg = TrainConfig(batch_size=16, steps=2 * (diffusion._BLOCK_ROWS // 16) + 3,
                          seed=1)
        train(data, arch, params, SCHED, cfg)
        assert calls == ["argsort"]
        calls.clear()
        train(np.round(data, 1), arch, params, SCHED, cfg)
        assert calls == ["argsort", "lexsort"]

    @pytest.mark.parametrize("batch_size", [16, 40, 64])
    def test_batches_equal_sorted_minibatch(self, batch_size):
        """Every batch the objective sees is a minibatch of the sorted
        dataset: the bytes of the lexsorted rows at the drawn indices, on a
        dataset of 40 rows with duplicates and rows equal up to the sign of
        a zero; 40 and 64 are full batches, all sorted rows in order.  The
        fit runs 2K + 3 steps, K a block's steps, and with an objective
        that draws nothing each block's (K, B) indices follow the last
        block's in the fit stream Rng(seed).child(1)."""
        gen = np.random.default_rng(21)
        base = gen.normal(size=(6, 3))
        base[:3, 0] = 0.0
        x = base[gen.integers(0, 6, 40)]
        x[::2, 0] *= -1.0
        arch = wsnn.mlp((3, 4, 3))
        b = min(batch_size, 40)
        block_steps = diffusion._BLOCK_ROWS // b
        seen = []

        def block(batches, rng, dtype):
            seen.append(batches.copy())
            return np.ones((len(batches), 4, b), dtype), range(len(batches))

        fit(x, arch, zero_params(arch),
            TrainConfig(batch_size=batch_size, steps=2 * block_steps + 3, seed=5),
            Objective(1, block, lambda out, aux: (0.0, np.zeros_like(out))))
        assert [len(batches) for batches in seen] == [block_steps, block_steps, 3]
        stream = Rng(5).child(1)
        sorted_x = reference_canonical_order(x)
        for batches in seen:
            idx = (stream.integers(0, 40, (len(batches), b)) if b < 40
                   else [slice(None)] * len(batches))
            for got, rows in zip(batches, idx):
                want = sorted_x[rows]
                assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["continuous", "first-column ties", "signed zeros",
                                      "one column", "one row", "nan"])
    def test_row_classes_equal_lexsort(self, case):
        """`_lex_order`, the order that puts each class of equal rows
        together: the first-column argsort, where it is kept, gives the
        lexsort's order; ties, a +-0.0 pair or a NaN in the first column
        fall back to the lexsort itself."""
        x = np.random.default_rng(23).normal(size=(200, 4))
        if case == "first-column ties":
            x[:, 0] = np.round(x[:, 0])
            x[::3, 1:] = x[1::3, 1:][:len(x[::3])]
        elif case == "signed zeros":
            x[:2, 0] = (0.0, -0.0)
        elif case == "one column":
            x = np.concatenate([x[:, :1], x[:50, :1]])
        elif case == "one row":
            x = x[:1]
        elif case == "nan":
            x[5, 0] = np.nan
        assert np.array_equal(diffusion._lex_order(x), np.lexsort(x.T[::-1]))

    def test_flat_adam_matches_per_array_reference(self, rng):
        arch = wsnn.mlp((4, 6, 5, 3))
        p0 = wsnn.init_params(arch, rng.child(1))
        kept = p0.copy()
        adam = AdamState(p0, arch)
        want = p0.copy()
        ref = ReferenceAdamState(want)
        gen = np.random.default_rng(22)
        for _ in range(20):
            g = wsnn.WsnnParams.of([gen.normal(size=w.shape) for w in p0.weights],
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
            train(data, arch, zero_params(arch), SCHED, TrainConfig(steps=1))

    def test_empty_dataset(self):
        arch = wsnn.mlp((2, 4, 1))
        with pytest.raises(EmptyDataset):
            train(np.empty((0, 1)), arch, zero_params(arch), SCHED,
                  TrainConfig(steps=1))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("method", ["dsm", "vanilla"])
    def test_non_finite_data_is_refused_up_front(self, monkeypatch, method, bad):
        """A dataset holding inf or NaN is refused before the first draw,
        naming how many rows hold one and the first, not as a divergence."""
        data = Rng(3).normal_matrix(300, 2)
        data[7, 1] = bad
        data[250, 0] = -bad
        draws = []
        monkeypatch.setattr(diffusion.Rng, "integers",
                            lambda *a, **k: draws.append(1))
        cfg = TrainConfig(batch_size=32, steps=20, seed=1)
        with pytest.raises(NonFiniteState) as err:
            if method == "dsm":
                arch = wsnn.mlp((3, 8, 2))
                train(data, arch, zero_params(arch), SCHED, cfg)
            else:
                arch = wsnn.mlp((2, 8, 2))
                sampler.train_vanilla_sm(data, arch, zero_params(arch), cfg)
        assert str(err.value) == ("training data has non-finite entries in 2 of 300 "
                                  "rows, first in row 7")
        assert "diverged" not in str(err.value)
        assert not draws

    def test_trace_csv(self, tmp_path, rng):
        data, arch, params = self._toy(rng)
        cfg = TrainConfig(batch_size=16, steps=8, seed=2, epoch_len=4)
        _, trace = train(data, arch, params, SCHED, cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss,score_mse,wall_time_s"
        assert len(lines) == 3
        assert [line.split(",")[2] for line in lines[1:]] == ["", ""]

    @pytest.mark.parametrize("epoch_len", [0, -2])
    def test_epoch_len_below_one_is_bad_config(self, epoch_len):
        """0 used to fall back to the default and -2 to write a trace row
        every 2 steps; None is still the default."""
        with pytest.raises(BadConfig):
            TrainConfig(steps=6, epoch_len=epoch_len)

    def test_default_epoch_len_is_n_over_batch(self, rng):
        data, arch, params = self._toy(rng)
        _, trace = train(data, arch, params, SCHED,
                         TrainConfig(batch_size=16, steps=8, seed=2, epoch_len=None))
        assert [r.epoch for r in trace] == [1, 2]


class TestFit:
    """The boundary `fit` owns, seen through stub objectives: all-ones
    network inputs and a head that returns the chosen loss and output
    gradient."""

    ARCH = wsnn.mlp((3, 4, 2))

    def _fit(self, data, head, steps=4):
        return fit(data, self.ARCH, zero_params(self.ARCH),
                   TrainConfig(batch_size=4, steps=steps, seed=1), self._objective(head))

    @classmethod
    def _objective(cls, head):
        """An Objective whose steps' head is head(out, i), i counting the
        fit's steps from 0 across its blocks."""
        count = itertools.count()

        def block(batches, rng, dtype):
            k_steps, b, _ = batches.shape
            return np.ones((k_steps, cls.ARCH.input_dim + 1, b), dtype), range(k_steps)

        return Objective(1, block, lambda out, k: head(out, next(count)))

    @staticmethod
    def _zero_loss(out, i):
        return 0.0, np.zeros_like(out)

    def test_empty_dataset_raises_before_any_step(self):
        calls = []

        def head(out, i):
            calls.append(1)
            return 0.0, np.zeros_like(out)

        with pytest.raises(EmptyDataset):
            self._fit(np.empty((0, 2)), head)
        assert not calls

    def test_output_width_mismatch(self):
        with pytest.raises(DimensionMismatch, match="output width 2 != data dimension 3"):
            self._fit(np.zeros((8, 3)), self._zero_loss)

    def test_initial_params_of_a_deeper_network_are_refused(self):
        # their first two blocks fit ARCH, so a block-by-block copy alone
        # would take them and drop the third
        deeper = zero_params(wsnn.mlp((3, 4, 2, 2)))
        with pytest.raises(DimensionMismatch, match="params depth"):
            fit(np.zeros((8, 2)), self.ARCH, deeper, TrainConfig(steps=1),
                self._objective(self._zero_loss))

    def test_one_float32_workspace_for_every_step(self, monkeypatch):
        seen = []
        real = wsnn.value_and_grads

        def recorded(arch, params, h, head, workspace=None):
            seen.append(workspace)
            assert params.weights[0].dtype == np.float32
            return real(arch, params, h, head, workspace)

        monkeypatch.setattr(wsnn, "value_and_grads", recorded)
        self._fit(np.zeros((8, 2)), self._zero_loss)
        assert len(seen) == 4 and all(ws is seen[0] for ws in seen)
        assert isinstance(seen[0], wsnn.Workspace)
        assert seen[0].dtype == np.float32

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_loss_raises_naming_the_step(self, bad):
        def head(out, i):
            return (bad if i == 2 else 1.0), np.zeros_like(out)

        with pytest.raises(NonFiniteState,
                           match=f"training diverged at step 2: loss {bad}$"):
            self._fit(np.zeros((8, 2)), head)

    def test_non_finite_loss_in_a_later_block_names_its_step(self):
        """A NaN loss at step K + 2, in the second block of K steps, is
        named by its step in the fit, not in its block."""
        block_steps = diffusion._BLOCK_ROWS // 4
        seen = []

        def head(out, i):
            seen.append(i)
            return (math.nan if i == block_steps + 2 else 1.0), np.zeros_like(out)

        with pytest.raises(NonFiniteState, match=f"training diverged at step "
                                                 f"{block_steps + 2}: loss nan$"):
            self._fit(np.zeros((8, 2)), head, steps=2 * block_steps + 3)
        assert seen == list(range(block_steps + 3))

    def test_non_finite_weights_are_never_returned(self):
        """A last step with a finite loss but an output gradient whose
        batch sum overflows gives infinite bias gradients, which leave a
        NaN master (inf / inf in Adam's ratio); the check after the loop
        refuses it, without a numpy warning escaping."""

        def head(out, i):
            if i < 3:
                return 1.0, np.zeros_like(out)
            return 1.0, np.full_like(out, np.finfo(out.dtype).max)

        with pytest.raises(NonFiniteState, match="at step 3: weights not finite$"):
            self._fit(np.zeros((8, 2)), head)


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

    @staticmethod
    def _density(family):
        """One density of each analytic family, at D = 25 as in the MRF study."""
        if family == "iso":
            return IsoGaussian(25)
        if family == "mrf":
            return GridMrfGaussian(5)
        return GaussMixture(25, 3, Rng(5))

    @staticmethod
    def _network(dim):
        arch = wsnn.mlp((dim + 1, 64, 64, dim))
        return network_score(arch, wsnn.init_params(arch, Rng(3)))

    @pytest.mark.parametrize("n_mc", [1, 2, 511, 512, 513, 1543])
    @pytest.mark.parametrize("family", ["iso", "mrf", "mixture"])
    def test_streamed_equals_whole_array_reference(self, rng, family, n_mc):
        """The blocks read the times, the X_0 sample and the forward noise of
        one whole draw, so the estimate is the whole-array one: equal bytes
        where the scores are row by row the same whatever the batch, and
        within 1e-12 for the MRF, whose score is a (rows, 25) x (25, 25)
        product that BLAS rounds differently at other row counts."""
        d = self._density(family)
        for score in (self._network(d.dim),
                      lambda x, t: 0.9 * d.score_t(x, t, SCHED)):
            got = score_mse(score, d, SCHED, n_mc, rng)
            want = reference_score_mse(score, d, SCHED, n_mc, rng)
            assert got.n == want.n == n_mc
            if family == "mrf":
                assert math.isclose(got.value, want.value, rel_tol=1e-12, abs_tol=0)
                assert math.isclose(got.stderr, want.stderr, rel_tol=1e-12, abs_tol=0)
            else:
                assert (got.value, got.stderr) == (want.value, want.stderr)

    @pytest.mark.parametrize("n_mc", [1, 511, 512, 1025, 4096])
    @pytest.mark.parametrize("family", ["iso", "mrf", "mixture"])
    def test_tuple_of_scores_equals_separate_calls(self, rng, family, n_mc):
        """Scores handed over together are estimated on the points of one
        pass, each with the bytes (value and stderr) a call on it alone
        gives; a tuple of one gives a tuple of one."""
        d = self._density(family)
        scores = (self._network(d.dim), lambda x, t: 0.9 * d.score_t(x, t, SCHED),
                  self._network(d.dim))
        got = score_mse(scores, d, SCHED, n_mc, rng)
        assert isinstance(got, tuple) and len(got) == len(scores)
        for est, score in zip(got, scores):
            want = score_mse(score, d, SCHED, n_mc, rng)
            assert (est.value, est.stderr, est.n) == (want.value, want.stderr, want.n)
        assert score_mse(scores[:1], d, SCHED, n_mc, rng) == got[:1]

    def test_tuple_forms_the_analytic_score_once_per_block(self, rng, monkeypatch):
        calls = []
        real = diffusion.score_t_batch

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(diffusion, "score_t_batch", counted)
        d = IsoGaussian(3)
        score_mse((lambda x, t: -x, lambda x, t: 0.5 * x), d, SCHED, 1100, rng)
        assert len(calls) == 2

    @pytest.mark.parametrize("family", ["iso", "mrf", "mixture"])
    def test_peak_memory_is_the_x0_draw_and_one_block(self, rng, family):
        """At 16384 points of D = 25 the traced peak stays within 2.5 copies
        of an (n_mc, D) float64 array: the X_0 draw and its sampler's own
        temporaries, plus one 512-row block (the whole-array estimator
        peaks at 4.1-9.4 copies)."""
        n_mc, d = 16_384, self._density(family)
        score = self._network(d.dim)
        peak = warm_peak(lambda: score_mse(score, d, SCHED, n_mc, rng))
        assert peak <= 2.5 * n_mc * d.dim * 8

    def test_network_score_shape(self, rng):
        arch = wsnn.mlp((3, 6, 2))
        params = wsnn.init_params(arch, rng)
        score = network_score(arch, params)
        out = score(np.zeros((5, 2)), 0.3)
        assert out.shape == (5, 2)


class TestFloat32Score:
    """The network scores evaluate a float32 copy of the parameters and
    return the float32 pass output; the caller's parameters stay float64."""

    ARCH = wsnn.mlp((10, 64, 64, 9))

    def test_deviation_from_float64_pass_is_bounded(self):
        """On desk's network at n_eval = 3000 rows, the float32 score lies
        within 1e-5 of the float64 pass, relative to its largest entry
        (`max_scaled_dev`; about 2e-7 here)."""
        params = wsnn.init_params(self.ARCH, Rng(30))
        x = Rng(31).normal_matrix(3000, 9)
        t = Rng(32).uniform(3000, SCHED.t_min, SCHED.t_max)
        want = wsnn.forward(self.ARCH, params, time_input(x, t))
        assert max_scaled_dev(network_score(self.ARCH, params)(x, t), want) < 1e-5

    @pytest.mark.parametrize("time_free", [False, True])
    def test_output_is_float32_and_params_are_left_alone(self, time_free):
        arch = wsnn.mlp((9, 64, 64, 9)) if time_free else self.ARCH
        params = wsnn.init_params(arch, Rng(33))
        kept = params.copy()
        score = network_score(arch, params)
        x = Rng(34).normal_matrix(200, 9)
        first = score(x, 0.5)
        assert first.dtype == np.float32 and score(x[0], 0.5).dtype == np.float32
        for a, b in zip(params.weights + params.biases, kept.weights + kept.biases):
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()
        for a in params.weights + params.biases:
            a += 1.0  # the score holds its own copy, not a view of these
        assert score(x, 0.5).tobytes() == first.tobytes()

    def test_time_free_score_equals_float32_reference(self):
        arch = wsnn.mlp((9, 32, 32, 9))
        params = wsnn.init_params(arch, Rng(35))
        score = network_score(arch, params)
        for x in (Rng(36).normal_matrix(300, 9), Rng(37).normal_matrix(1, 9)[0]):
            want = reference_dense_pass(arch, params.astype(np.float32), x)[0]
            got = score(x, 0.0)
            assert got.shape == x.shape
            assert got.dtype == np.float32
            assert got.tobytes() == want.reshape(x.shape).tobytes()
            assert score(x, 2.5).tobytes() == got.tobytes()  # t is ignored


class TestMixedPrecisionTraining:
    """Training passes run on the float32 copy of the parameters in a
    float32 workspace; Adam's moments are float32, and its master, the
    trained parameters and the checkpoint stay float64."""

    @pytest.mark.parametrize("method", ["dsm", "vanilla"])
    def test_objective_runs_float32_and_master_stays_float64(self, method,
                                                             monkeypatch, tmp_path):
        seen, states = [], []

        class Recorded(AdamState):
            def __init__(self, *args):
                super().__init__(*args)
                states.append(self)

        monkeypatch.setattr(diffusion, "AdamState", Recorded)
        real = wsnn.value_and_grads  # the pass of every training step

        def recorded(arch, params, h, head, workspace=None):
            seen.append((params.weights + params.biases, workspace.dtype))
            return real(arch, params, h, head, workspace)

        monkeypatch.setattr(wsnn, "value_and_grads", recorded)
        data = Rng(60).normal_matrix(100, 3)
        cfg = TrainConfig(batch_size=32, steps=4, seed=61)
        if method == "dsm":
            arch = wsnn.mlp((4, 16, 16, 3))
            trained, _ = train(data, arch, wsnn.init_params(arch, Rng(62)), SCHED, cfg)
        else:
            arch = wsnn.mlp((3, 16, 16, 3))
            trained, _ = sampler.train_vanilla_sm(data, arch,
                                                  wsnn.init_params(arch, Rng(62)), cfg)
        assert len(seen) == 4 and len(states) == 1
        for arrays, ws_dtype in seen:
            assert ws_dtype == np.float32
            assert all(a.dtype == np.float32 for a in arrays)
        adam = states[0]
        assert adam.m.dtype == adam.v.dtype == np.float32
        for a in (adam.flat, *adam.params.weights, *adam.params.biases,
                  *trained.weights, *trained.biases):
            assert a.dtype == np.float64
        assert adam.flat32.tobytes() == adam.flat.astype(np.float32).tobytes()
        path = tmp_path / "net.ckpt"
        formats.save_checkpoint(path, arch, trained)
        body = b"".join(w.tobytes() + b.tobytes()
                        for w, b in zip(trained.weights, trained.biases))
        assert path.read_bytes().endswith(body)
        _, loaded = formats.load_checkpoint(path)
        for a, b in zip(loaded.weights + loaded.biases, trained.weights + trained.biases):
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("m", [1, 2])
    def test_masked_entries_stay_signed_zeros_in_both_copies(self, m, monkeypatch):
        """With a 0/1 mask on every layer, each masked weight is still the
        zero init_params left (-0.0 for a negative draw) after training,
        in the float64 master and in the float32 copy the passes read."""
        gen, widths = np.random.default_rng(63), (10, 24, 16, 9)
        arch = with_masks(gen, wsnn.mlp(widths) if m == 1 else replicated(gen, widths, m))
        p0 = wsnn.init_params(arch, Rng(64))
        copies = []
        real = wsnn.value_and_grads

        def recorded(arch, params, *args):
            copies.append(params)
            return real(arch, params, *args)

        monkeypatch.setattr(wsnn, "value_and_grads", recorded)
        trained, _ = train(Rng(65).normal_matrix(200, 9), arch, p0, SCHED,
                           TrainConfig(batch_size=32, steps=30, seed=66))
        copy = copies[-1]  # views of the copy: the last refresh is in them
        negative_zeros = 0
        for w0, w, w32, mask in zip(p0.weights, trained.weights, copy.weights,
                                    arch.weight_masks):
            assert w32.dtype == np.float32
            assert w32.tobytes() == w.astype(np.float32).tobytes()
            off = mask == 0
            assert np.all(w[off] == 0) and np.all(w32[off] == 0)
            assert np.array_equal(np.signbit(w[off]), np.signbit(w0[off]))
            assert np.array_equal(np.signbit(w32[off]), np.signbit(w0[off]))
            negative_zeros += np.count_nonzero(np.signbit(w0[off]))
        assert negative_zeros > 50

    def test_dsm_step_deviation_from_float64_is_bounded(self):
        """One DSM step on desk's 10-64-64-9 network at batch 128: the
        float32 pass's loss is within 1e-6 of the float64 one, relatively,
        and its gradients within 1e-5 (`max_scaled_dev` over all of them;
        2e-7 to 3e-7 measured over 8 draws)."""
        arch = wsnn.mlp((10, 64, 64, 9))
        params = wsnn.init_params(arch, Rng(40))
        x0, z = Rng(41).normal_matrix(128, 9), Rng(43).normal_matrix(128, 9)
        t = Rng(42).uniform(128, SCHED.t_min, SCHED.t_max)
        want_loss, want = dsm_value_and_grads(arch, params, SCHED, x0, t, z)
        loss, got = dsm_value_and_grads(arch, params.astype(np.float32), SCHED, x0, t,
                                        z, wsnn.Workspace(arch, np.float32))
        assert got.weights[0].dtype == np.float32
        assert abs(loss - want_loss) < 1e-6 * abs(want_loss)
        assert max_scaled_dev(_flat(got), _flat(want)) < 1e-5

    def test_sliced_step_deviation_from_float64_is_bounded(self):
        """One sliced step (3 directions) on vanilla-sm's 9-64-64-9 network
        at 7 x 128 rows: loss within 1e-6, gradients within 1e-4 (0.7e-6
        to 1.4e-6 measured over 8 draws: the +-delta blocks enter with
        weights +-v / (2 delta k b) and nearly cancel, which magnifies the
        rounding)."""
        arch = wsnn.mlp((9, 64, 64, 9))
        params = wsnn.init_params(arch, Rng(50))
        x = Rng(51).normal_matrix(128, 9)
        v = rademacher(Rng(52), 3, 128, 9)
        want_loss, want = vanilla_sm_sliced_value_and_grads(arch, params, x, v, 0.1)
        loss, got = vanilla_sm_sliced_value_and_grads(
            arch, params.astype(np.float32), x, v, 0.1, wsnn.Workspace(arch, np.float32))
        assert got.weights[0].dtype == np.float32
        assert abs(loss - want_loss) < 1e-6 * abs(want_loss)
        assert max_scaled_dev(_flat(got), _flat(want)) < 1e-4


def _flat(params):
    return np.concatenate([a.ravel() for a in params.weights + params.biases])


class TestVincentIdentity:
    def test_marginal_conditional_gap_is_constant_in_f(self, rng):
        # E|f - grad log p_t|^2 - E|f - cond|^2 depends only on t: the gap
        # computed for two different linear scores must agree within MC error
        d = IsoGaussian(1)
        t = 0.6
        mu, sigma = SCHED.mu_sigma(t)
        n = 100_000
        x0 = d.sample(n, rng)
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


class TestTrainingBlocks:
    """`train` and `train_vanilla_sm` form their steps' inputs a block of K
    steps at a time from one fit stream; read one step at a time from the
    same stream (`reference_fit`), they give the same bytes, for a run
    shorter than a block, one step short of a block, one block and two
    blocks and a tail of 3, with minibatches and with a full batch."""

    STEPS = {"1": lambda k: 1, "K-1": lambda k: k - 1, "K": lambda k: k,
             "2K+3": lambda k: 2 * k + 3}

    @pytest.mark.parametrize("steps", STEPS)
    @pytest.mark.parametrize("n, batch_size", [(300, 32), (40, 64)])
    @pytest.mark.parametrize("method", ["dsm", "vanilla"])
    def test_blocks_equal_step_by_step_reference(self, rng, method, n, batch_size,
                                                 steps):
        data = IsoGaussian(3).sample(n, rng)
        b = min(n, batch_size)
        if method == "dsm":
            arch, rows = wsnn.mlp((4, 16, 16, 3)), 1
        else:
            arch, rows = wsnn.mlp((3, 16, 16, 3)), 2 * sampler._DIRECTIONS + 1
        p0 = wsnn.init_params(arch, rng.child(1))
        block_steps = diffusion._BLOCK_ROWS // (rows * b)
        assert block_steps >= 3
        cfg = TrainConfig(batch_size=batch_size, steps=self.STEPS[steps](block_steps),
                          seed=5, epoch_len=1)
        if method == "dsm":
            got, trace = train(data, arch, p0, SCHED, cfg)
            want, losses = reference_train(data, arch, p0, SCHED, cfg)
        else:
            got, trace = sampler.train_vanilla_sm(data, arch, p0, cfg)
            want, losses = reference_train_vanilla_sm(data, arch, p0, cfg)
        for x, y in zip(got.weights + got.biases, want.weights + want.biases):
            assert x.tobytes() == y.tobytes()
        assert [r.mean_loss for r in trace] == losses


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
        """`train` gives the bytes of the unfused row-major step run step by
        step (`reference_dsm_train`), weights and per-step losses."""
        data = IsoGaussian(3).sample(n, rng)
        p0 = wsnn.init_params(self.ARCH, rng.child(1))
        cfg = TrainConfig(batch_size=batch_size, steps=30, seed=5, epoch_len=1)
        got, trace = train(data, self.ARCH, p0, SCHED, cfg)
        want, losses = reference_dsm_train(data, self.ARCH, p0, SCHED, cfg)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.tobytes() == b.tobytes()
        assert [r.mean_loss for r in trace] == losses

    def test_step_times_of_wrong_shape_are_refused(self, rng):
        params = wsnn.init_params(self.ARCH, rng.child(1))
        x0, z = rng.normal_matrix(5, 3), rng.child(2).normal_matrix(5, 3)
        with pytest.raises(DimensionMismatch, match=r"times of shape \(4,\) for 5 rows"):
            dsm_value_and_grads(self.ARCH, params, SCHED, x0, np.full(4, 0.5), z)

    def test_one_mu_sigma_call_per_block(self, rng, monkeypatch):
        """2K + 3 steps at batch 16 are three blocks, K steps, K steps and
        3, and each forms its inputs with one mu_sigma call."""
        calls = []
        mu_sigma = DiffusionSchedule.mu_sigma

        def counted(self, t):
            calls.append("mu_sigma")
            return mu_sigma(self, t)

        monkeypatch.setattr(DiffusionSchedule, "mu_sigma", counted)
        monkeypatch.setattr(diffusion, "forward_sample",
                            lambda *a: calls.append("forward_sample"))
        data = IsoGaussian(3).sample(64, rng)
        train(data, self.ARCH, wsnn.init_params(self.ARCH, rng.child(1)), SCHED,
              TrainConfig(batch_size=16, steps=2 * (diffusion._BLOCK_ROWS // 16) + 3,
                          seed=1))
        assert calls == ["mu_sigma"] * 3

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

    def test_network_score_times_of_wrong_shape_are_refused(self, rng):
        score = network_score(self.ARCH, wsnn.init_params(self.ARCH, rng))
        with pytest.raises(DimensionMismatch, match=r"times of shape \(4,\) for 5 rows"):
            score(np.zeros((5, 3)), np.full(4, 0.5))

    def test_network_score_input_width_checked(self, rng):
        score = network_score(self.ARCH, wsnn.init_params(self.ARCH, rng))
        for bad in (np.zeros((4, 4)), np.zeros((4, 2)), np.zeros(2)):
            with pytest.raises(DimensionMismatch):
                score(bad, 0.5)

    @pytest.mark.parametrize("widths", [(5, 8, 3), (3, 8, 4), (2, 8, 3)])
    def test_network_score_needs_d_plus_one_or_d_inputs(self, widths):
        arch = wsnn.mlp(widths)
        with pytest.raises(DimensionMismatch, match="D \\+ 1 -> D or D -> D"):
            network_score(arch, wsnn.init_params(arch, Rng(0)))

    def test_warm_network_score_allocates_less_than_output_and_input(self):
        """A warm call writes (x, t) into its workspace: it allocates the
        fresh output and the dense layers, not a concatenated input."""
        arch = wsnn.mlp((10, 64, 64, 9))
        score = network_score(arch, wsnn.init_params(arch, Rng(3)))
        x = Rng(4).normal_matrix(3000, 9)
        assert warm_peak(lambda: score(x, 0.5)) < 3000 * (9 + 10) * 8

    def test_adam_step_allocates_less_than_its_buffer(self, rng):
        arch = wsnn.mlp((26, 64, 64, 25))
        adam = AdamState(wsnn.init_params(arch, rng), arch)
        grads = wsnn.init_params(arch, rng.child(1))
        assert warm_peak(lambda: adam.step(grads, 1e-3)) < adam.flat.nbytes
