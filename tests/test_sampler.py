import math
import re

import numpy as np
import pytest

from conftest import (finite_diff_param_grads, reference_langevin_sample,
                      reference_reverse_sde_sample, relative_error, warm_peak)
from diffden import wsnn
from diffden.densities import GaussMixture, GridMrfGaussian, IsoGaussian
from diffden.diffusion import DiffusionSchedule, TrainConfig, network_score
from diffden.errors import (BadConfig, CorruptFile, DimensionMismatch,
                            DimensionTooLarge, InvalidSize, NonFiniteState)
from diffden.numerics import Rng
from diffden.sampler import (SamplerConfig, _guard, analytic_score,
                             langevin_sample, learned_score_time_free,
                             read_samples_binary, reverse_sde_sample,
                             train_vanilla_sm, vanilla_sm_loss,
                             vanilla_sm_stencil_value_and_grads,
                             write_samples_binary)

SCHED = DiffusionSchedule()


def zero_score(x, t):
    return np.zeros_like(x)


def nan_from_call(k):
    """Score that is -x for its first k calls and NaN from then on."""
    calls = []

    def fn(x, t):
        calls.append(1)
        return -x if len(calls) <= k else np.full_like(x, np.nan)

    return fn


def stencil_loss(arch, params, x, delta):
    """Mean vanilla score-matching loss with the divergence taken by central
    differences of width delta: the oracle for the exact divergence and the
    objective that the stencil gradients descend."""
    div = sum((wsnn.forward(arch, params, x + delta * e)[:, i]
               - wsnn.forward(arch, params, x - delta * e)[:, i]) / (2 * delta)
              for i, e in enumerate(np.eye(x.shape[1])))
    f = wsnn.forward(arch, params, x)
    return float(np.mean(div + 0.5 * np.sum(f * f, axis=1)))


class TestReverseSde:
    def test_single_step_arithmetic(self):
        cfg = SamplerConfig(n_steps=1, n_samples=3)
        got = reverse_sde_sample(zero_score, SCHED, cfg, 2, Rng(42))
        mirror = Rng(42)
        y0 = mirror.standard_normal(6).reshape(3, 2)
        z = mirror.standard_normal(6).reshape(3, 2)
        h = SCHED.t_max - SCHED.t_min
        want = y0 + h * y0 + math.sqrt(2.0 * h) * z
        assert np.array_equal(got, want)

    def test_invalid_step_count(self):
        with pytest.raises(InvalidSize):
            SamplerConfig(n_steps=0, n_samples=1)

    def test_case1_moments(self):
        d = IsoGaussian(4)
        cfg = SamplerConfig(n_steps=500, n_samples=4096)
        x = reverse_sde_sample(analytic_score(d, SCHED), SCHED, cfg, 4, Rng(1))
        assert np.max(np.abs(x.mean(axis=0))) < 0.1
        assert np.max(np.abs(x.var(axis=0) - 1.0)) < 0.1

    def test_case2_covariance(self):
        mrf = GridMrfGaussian(3, 1.0, -0.2)
        cfg = SamplerConfig(n_steps=500, n_samples=4096)
        x = reverse_sde_sample(analytic_score(mrf, SCHED), SCHED, cfg, 9, Rng(2))
        cov = np.cov(x.T)
        assert np.max(np.abs(cov - mrf.covariance)) < 0.15

    def test_moment_error_shrinks_with_steps(self):
        d = IsoGaussian(2)
        errs = []
        for steps in (125, 250, 500):
            cfg = SamplerConfig(n_steps=steps, n_samples=8192)
            x = reverse_sde_sample(analytic_score(d, SCHED), SCHED, cfg, 2, Rng(3))
            err = max(float(np.max(np.abs(x.mean(axis=0)))),
                      float(np.max(np.abs(np.cov(x.T) - np.eye(2)))))
            errs.append(err)
        assert errs[2] <= errs[0] + 0.02  # nonincreasing up to MC noise

    def test_blowup_guard(self):
        bad = lambda x, t: 100.0 * x
        cfg = SamplerConfig(n_steps=500, n_samples=8)
        with pytest.raises(NonFiniteState) as err:
            reverse_sde_sample(bad, SCHED, cfg, 2, Rng(4))
        found = re.search(r"reverse SDE sampling at step (\d+) \(reverse time (\S+)\), "
                          r"max \|state\| = (\S+)$", str(err.value))
        assert found, str(err.value)
        step, t, biggest = int(found[1]), found[2], float(found[3])
        times = np.linspace(SCHED.t_max, SCHED.t_min, cfg.n_steps + 1)
        assert 0 <= step < cfg.n_steps and t == f"{times[step]:.6g}"
        assert biggest > 1e6
        with pytest.raises(NonFiniteState,
                           match=r"at step 3 \(reverse time .*\), max \|state\| = nan$"):
            reverse_sde_sample(nan_from_call(3), SCHED, cfg, 2, Rng(4))

    def test_score_of_wrong_shape_rejected(self):
        cfg = SamplerConfig(n_steps=3, n_samples=8)
        for bad in (lambda x, t: x[:, :1], lambda x, t: x.T, lambda x, t: x.sum()):
            with pytest.raises(DimensionMismatch):
                reverse_sde_sample(bad, SCHED, cfg, 2, Rng(4))

    def test_seed_determinism(self):
        d = IsoGaussian(2)
        cfg = SamplerConfig(n_steps=50, n_samples=16)
        a = reverse_sde_sample(analytic_score(d, SCHED), SCHED, cfg, 2, Rng(9))
        b = reverse_sde_sample(analytic_score(d, SCHED), SCHED, cfg, 2, Rng(9))
        assert np.array_equal(a, b)


class TestLangevin:
    def test_zero_score_is_brownian(self):
        h, steps = 0.01, 100
        x = langevin_sample(zero_score, h, steps, 4096, 1, Rng(5))
        want = 1.0 + 2.0 * h * steps
        assert abs(x.var() - want) < 0.2

    def test_standard_normal_stationary(self):
        score = lambda x, t: -x
        x = langevin_sample(score, 0.01, 2000, 4096, 1, Rng(6))
        assert abs(x.mean()) < 0.1
        assert abs(x.var() - 1.0) < 0.12

    def test_bimodal_mixture_mass_split(self, rng):
        mix = GaussMixture(1, 2, rng, means=np.array([[2.0], [-2.0]]))
        score = lambda x, t: mix.score_t(x, SCHED.t_min, SCHED)
        x = langevin_sample(score, 0.01, 2000, 4096, 1, Rng(7))
        frac = float(np.mean(x > 0))
        assert abs(frac - 0.5) < 0.1

    def test_bias_decreases_with_step_size(self):
        score = lambda x, t: -x
        errs = []
        for h, steps in ((0.2, 200), (0.05, 800)):
            x = langevin_sample(score, h, steps, 20_000, 1, Rng(8))
            errs.append(abs(x.var() - 1.0))
        assert errs[1] < errs[0]

    def test_blowup_guard(self):
        bad = lambda x, t: x ** 3
        with pytest.raises(NonFiniteState) as err:
            langevin_sample(bad, 2.0, 200, 64, 1, Rng(9))
        found = re.search(r"Langevin sampling at step (\d+), max \|state\| = (\S+)$",
                          str(err.value))
        assert found, str(err.value)
        assert 0 <= int(found[1]) < 200 and float(found[2]) > 1e6
        with pytest.raises(NonFiniteState, match=r"at step 5, max \|state\| = nan$"):
            langevin_sample(nan_from_call(5), 0.01, 200, 64, 1, Rng(9))

    def test_score_of_wrong_shape_rejected(self):
        for bad in (lambda x, t: x[:, :1], lambda x, t: x.T, lambda x, t: x.sum()):
            with pytest.raises(DimensionMismatch):
                langevin_sample(bad, 0.01, 3, 8, 2, Rng(9))

    def test_positive_step_required(self):
        with pytest.raises(ValueError):
            langevin_sample(zero_score, 0.0, 10, 4, 1, Rng(0))

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan])
    def test_step_not_positive_is_bad_config(self, step):
        with pytest.raises(BadConfig, match="step_size must be > 0"):
            langevin_sample(zero_score, step, 10, 4, 1, Rng(0))


class TestVanillaSmLoss:
    def test_linear_score_closed_form(self, rng):
        d = 3
        arch, params = wsnn.linear_network(-np.eye(d))
        x = rng.normal_matrix(7, d)
        got = vanilla_sm_loss(arch, params, x)
        want = float(np.mean(-d + 0.5 * np.sum(x * x, axis=1)))
        assert abs(got - want) < 1e-10

    def test_zero_network(self):
        arch = wsnn.mlp((2, 4, 2))
        assert vanilla_sm_loss(arch, wsnn.zero_params(arch), np.ones((3, 2))) == 0.0

    def test_exact_divergence_matches_fd(self, rng):
        arch = wsnn.mlp((2, 8, 2))
        params = wsnn.init_params(arch, rng)
        x = rng.normal_matrix(5, 2)
        fd = stencil_loss(arch, params, x, 1e-4)
        assert abs(vanilla_sm_loss(arch, params, x) - fd) < 1e-4

    def test_requires_square_dims(self):
        arch = wsnn.mlp((3, 4, 2))
        with pytest.raises(DimensionMismatch):
            vanilla_sm_loss(arch, wsnn.zero_params(arch), np.ones((1, 3)))

    def test_dimension_cap_for_exact_divergence(self):
        arch = wsnn.mlp((65, 66, 65))
        with pytest.raises(DimensionTooLarge):
            vanilla_sm_loss(arch, wsnn.zero_params(arch), np.ones((1, 65)))

    def test_stencil_gradients_match_finite_differences(self, rng):
        arch = wsnn.mlp((2, 6, 2))
        params = wsnn.init_params(arch, rng.child(3))
        x = rng.normal_matrix(4, 2)
        delta = 0.1

        def loss_fn(p):
            return stencil_loss(arch, p, x, delta)

        loss, grads = vanilla_sm_stencil_value_and_grads(arch, params, x, delta)
        assert abs(loss - loss_fn(params)) < 1e-12
        fd_w, fd_b = finite_diff_param_grads(loss_fn, params)
        for got, want in zip(grads.weights + grads.biases, fd_w + fd_b):
            big = np.abs(want) > 1e-5
            if big.any():
                assert relative_error(got[big], want[big]) < 1e-4

    def test_gradients_with_nontrivial_permutations(self, rng):
        gen = np.random.default_rng(33)
        widths = (3, 5, 3)
        q = ((wsnn.Permutation(gen.permutation(3).astype(np.int64)),
              wsnn.Permutation(gen.permutation(3).astype(np.int64))),)
        r = ((wsnn.Permutation(gen.permutation(5).astype(np.int64)),
              wsnn.Permutation(gen.permutation(5).astype(np.int64))),)
        arch = wsnn.WsnnArchitecture(widths, (2,), q, r)
        params = wsnn.init_params(arch, rng.child(5))
        x = rng.normal_matrix(3, 3)
        delta = 0.1
        _, grads = vanilla_sm_stencil_value_and_grads(arch, params, x, delta)

        def loss_fn(p):
            return stencil_loss(arch, p, x, delta)

        fd_w, fd_b = finite_diff_param_grads(loss_fn, params)
        for got, want in zip(grads.weights + grads.biases, fd_w + fd_b):
            big = np.abs(want) > 1e-5
            if big.any():
                assert relative_error(got[big], want[big]) < 1e-4


class TestTrainVanillaSm:
    def test_zero_learning_rate(self, rng):
        data = IsoGaussian(1).sample(64, rng)
        arch = wsnn.mlp((1, 8, 1))
        params = wsnn.init_params(arch, rng.child(1))
        cfg = TrainConfig(batch_size=16, learning_rate=0.0, steps=5, seed=0)
        out, _ = train_vanilla_sm(data, arch, params, cfg)
        for a, b in zip(out.weights, params.weights):
            assert np.array_equal(a, b)

    def test_learns_gaussian_score(self, rng):
        """Vanilla score matching minimises the Fisher divergence
        E_p |f(x) - grad log p(x)|^2 up to a constant; trained on 16384
        draws of N(0, 1), it falls below 0.09 = 0.3^2 on fresh draws.  (On
        1024 draws the objective is overfit: |f + x| < 0.3 at -1, 0 and 1
        then fails for about half the seeds, with the worst error at 0.)"""
        data = IsoGaussian(1).sample(16384, rng)
        arch = wsnn.mlp((1, 16, 16, 1))
        params = wsnn.init_params(arch, rng.child(2))
        cfg = TrainConfig(batch_size=128, steps=1500, seed=4, epoch_len=250)
        trained, trace = train_vanilla_sm(data, arch, params, cfg)
        x = rng.child(5).normal_matrix(16384, 1)
        assert float(np.mean((wsnn.forward(arch, trained, x) + x) ** 2)) < 0.09
        first, last = trace[0].mean_loss, trace[-1].mean_loss
        assert last < first

    def test_langevin_from_learned_score_runs(self, rng):
        data = IsoGaussian(1).sample(256, rng)
        arch = wsnn.mlp((1, 8, 1))
        params = wsnn.init_params(arch, rng.child(3))
        cfg = TrainConfig(batch_size=64, steps=50, seed=1)
        trained, _ = train_vanilla_sm(data, arch, params, cfg)
        x = langevin_sample(learned_score_time_free(arch, trained),
                            0.05, 50, 128, 1, Rng(11))
        assert x.shape == (128, 1)


class TestSampleIo:
    def test_binary_roundtrip(self, tmp_path, rng):
        x = rng.normal_matrix(17, 3)
        path = tmp_path / "samples.bin"
        write_samples_binary(path, x)
        assert np.array_equal(read_samples_binary(path), x)

    def test_binary_rejects_truncated_and_trailing(self, tmp_path, rng):
        path = tmp_path / "samples.bin"
        write_samples_binary(path, rng.normal_matrix(5, 2))
        data = path.read_bytes()
        for bad in (data[:-8], data + b"\0", data[:12]):
            path.write_bytes(bad)
            with pytest.raises(CorruptFile):
                read_samples_binary(path)


class HeldScore:
    """Score -x written into one array it holds and returns every call; it
    records whether the array still held its last result at the next call."""

    def __init__(self):
        self.out = self.kept = None
        self.intact = True

    def __call__(self, x, t):
        if self.out is not None:
            self.intact &= self.out.tobytes() == self.kept.tobytes()
        self.out = np.negative(x, out=self.out)
        self.kept = self.out.copy()
        return self.out


class TestLoopBuffers:
    """The samplers keep drift and noise in buffers they own: the bytes of
    the replaced loops, and the score's output is never written."""

    ARCH = wsnn.mlp((5, 16, 16, 4))

    def test_reverse_sde_equals_reference(self):
        params = wsnn.init_params(self.ARCH, Rng(1))
        cfg = SamplerConfig(n_steps=20, n_samples=200)
        for score in (network_score(self.ARCH, params),
                      analytic_score(GridMrfGaussian(2), SCHED)):
            got = reverse_sde_sample(score, SCHED, cfg, 4, Rng(2))
            want = reference_reverse_sde_sample(score, SCHED, cfg, 4, Rng(2))
            assert got.tobytes() == want.tobytes()

    def test_langevin_equals_reference(self):
        arch = wsnn.mlp((4, 16, 16, 4))
        for score in (learned_score_time_free(arch, wsnn.init_params(arch, Rng(3))),
                      analytic_score(GridMrfGaussian(2), SCHED)):
            got = langevin_sample(score, 0.01, 20, 200, 4, Rng(4))
            want = reference_langevin_sample(score, 0.01, 20, 200, 4, Rng(4))
            assert got.tobytes() == want.tobytes()

    def test_score_output_is_never_written(self):
        score = HeldScore()
        reverse_sde_sample(score, SCHED, SamplerConfig(n_steps=10, n_samples=50),
                           3, Rng(5))
        assert score.intact and score.out.tobytes() == score.kept.tobytes()
        score = HeldScore()
        langevin_sample(score, 0.01, 10, 50, 3, Rng(6))
        assert score.intact and score.out.tobytes() == score.kept.tobytes()

    def test_runs_hold_three_state_sized_arrays(self):
        """With a score that allocates nothing, a warm run's allocation peak
        is the state, the drift and the noise: under 3.5 state-sized arrays
        (the replaced loops peaked at 6 and 4)."""
        held = np.empty((3000, 9))
        score = lambda x, t: np.negative(x, out=held)
        cfg = SamplerConfig(n_steps=3, n_samples=3000)
        runs = (lambda: reverse_sde_sample(score, SCHED, cfg, 9, Rng(1)),
                lambda: langevin_sample(score, 0.01, 3, 3000, 9, Rng(1)))
        for run in runs:
            assert warm_peak(run) < 3.5 * held.nbytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e6,
                                     np.nextafter(1e6, np.inf)])
    def test_guard_catches_nonfinite_and_large(self, bad):
        x = np.zeros((3, 2))
        x[1, 1] = bad
        want = (r"during test at step 4 \(reverse time 0\.5\), max \|state\| = "
                + re.escape(f"{abs(bad):.6g}") + "$")
        with pytest.raises(NonFiniteState, match=want):
            _guard(np.abs(x), "test", 4, 0.5)

    def test_guard_passes_the_bound_itself(self):
        _guard(np.abs(np.array([[1e6, -1e6]])), "test", 0)
