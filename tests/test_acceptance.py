"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is fixed here, not tuned at runtime.
"""

import functools
import math
import time

import numpy as np

from diffden import wsnn
from diffden.bench import ExperimentConfig, emit_plots, run_case
from diffden.densities import (GridMrfGaussian, IsoGaussian, bpd, cosine_bump,
                               iso_gaussian_bpd)
from diffden.diffusion import (DiffusionSchedule, TrainConfig, network_score,
                               score_mse, train)
from diffden.numerics import Rng
from diffden.quadrature import composite_quadrature, pt_quadrature
from diffden.sampler import (SamplerConfig, analytic_score, langevin_sample,
                             reverse_sde_sample, vanilla_sm_pointwise)
from diffden.wsnn import covering_bound_numerator, covering_log_bound
from conftest import conv2d_valid, linear_network, max_scaled_dev, reference_forward
from test_quadrature import QCFG, grid_convolution_2d, riemann_1d
from test_wsnn import random_arch, random_params

SCHED = DiffusionSchedule()


def criterion(number, budget_s, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
                elapsed = time.perf_counter() - start
                assert elapsed < budget_s, \
                    f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"
            except Exception:
                elapsed = time.perf_counter() - start
                print(f"[FAIL] criterion {number} ({elapsed:.1f}s): {description}")
                raise
            print(f"[PASS] criterion {number} ({elapsed:.1f}s): {description}")

        return run

    return wrap


@criterion(1, 1.0, "schedule identities and small-time bounds")
def test_criterion_1_schedule_identities():
    gen = np.random.default_rng(1)
    for t in gen.uniform(1e-9, 3.0, size=100):
        mu, sigma = SCHED.mu_sigma(float(t))
        assert abs(mu * mu + sigma * sigma - 1.0) <= 1e-12
    for t in gen.uniform(1e-9, 1.0 / (2.0 * SCHED.tau_upper), size=100):
        mu, sigma = SCHED.mu_sigma(float(t))
        assert 1.0 - SCHED.tau_upper * t <= mu <= 1.0 - SCHED.tau_lower * t / 2.0
        assert math.sqrt(SCHED.tau_lower * t) <= sigma <= math.sqrt(
            2.0 * SCHED.tau_upper * t)


@criterion(2, 30.0, "WSNN replica-sum forward, gradients, conv embedding")
def test_criterion_2_wsnn_correctness():
    gen = np.random.default_rng(2)
    # (a) materialised dense forward equals replica-sum reference, 50 archs
    for _ in range(50):
        arch = random_arch(gen)
        params = random_params(gen, arch)
        x = gen.normal(size=(3, arch.input_dim))
        got = wsnn.forward(arch, params, x)
        want = reference_forward(arch, params, x)
        assert max_scaled_dev(got, want) <= 1e-12
    # (b) every parameter gradient matches central finite differences
    checked = 0
    while checked < 5:
        arch = random_arch(gen, max_width=6, max_depth=3)
        params = random_params(gen, arch)
        x = gen.normal(size=arch.input_dim)
        g = gen.normal(size=arch.output_dim)
        # keep away from ReLU kinks so the FD comparison is valid
        pres_ok = True
        layers = wsnn.effective_layers(arch, params)
        mats, biases = layers.weights, layers.biases
        a = x
        for i in range(arch.depth - 1):
            z = mats[i] @ a + biases[i]
            if np.min(np.abs(z)) < 1e-4:
                pres_ok = False
                break
            a = np.maximum(z, 0.0)
        if not pres_ok:
            continue
        grads, _ = wsnn.backward(arch, params, x, g)
        eps = 1e-5
        for arrays, got in ((params.weights, grads.weights),
                            (params.biases, grads.biases)):
            for arr, garr in zip(arrays, got):
                # indexed in place: arr is a strided view of its block
                for i in np.ndindex(arr.shape):
                    old = arr[i]
                    arr[i] = old + eps
                    up = float(np.dot(wsnn.forward(arch, params, x), g))
                    arr[i] = old - eps
                    down = float(np.dot(wsnn.forward(arch, params, x), g))
                    arr[i] = old
                    fd = (up - down) / (2 * eps)
                    if abs(fd) > 1e-6:
                        assert abs(garr[i] - fd) / abs(fd) < 1e-5
        checked += 1
    # (c) convolution embedding
    plan = wsnn.conv_as_wsnn(4, 2)
    assert (plan.d_in, plan.d_out, plan.m) == (16, 9, 9)
    filt = gen.normal(size=4)
    image = gen.normal(size=(4, 4))
    got = (plan.materialize(filt) @ image.ravel()).reshape(3, 3)
    want = conv2d_valid(image, filt.reshape(2, 2))
    assert np.max(np.abs(got - want)) <= 1e-12


@criterion(3, 60.0, "reverse-SDE sampler against exact Case-1/Case-2 scores")
def test_criterion_3_sampler_oracle():
    iso = IsoGaussian(9)
    cfg = SamplerConfig(n_steps=500, n_samples=4096)
    x = reverse_sde_sample(analytic_score(iso, SCHED), SCHED, cfg, 9, Rng(30))
    assert np.max(np.abs(x.mean(axis=0))) < 0.1
    assert np.max(np.abs(x.var(axis=0) - 1.0)) < 0.1
    mrf = GridMrfGaussian(3, 1.0, -0.2)
    y = reverse_sde_sample(analytic_score(mrf, SCHED), SCHED, cfg, 9, Rng(31))
    assert np.max(np.abs(np.cov(y.T) - mrf.covariance)) < 0.15


@criterion(4, 300.0, "training halves score-MSE and lands near 2.0471 BPD")
def test_criterion_4_training_efficacy():
    density = IsoGaussian(2)
    rng = Rng(40)
    data = density.sample(2000, rng.child(0))
    arch = wsnn.mlp((3, 64, 64, 2))
    params0 = wsnn.init_params(arch, rng.child(1))
    init = score_mse(network_score(arch, params0), density, SCHED, 8192,
                     rng.child(2))
    cfg = TrainConfig(batch_size=128, learning_rate=1e-3, steps=2000, seed=40)
    params, _ = train(data, arch, params0, SCHED, cfg)
    trained = score_mse(network_score(arch, params), density, SCHED, 8192,
                        rng.child(2))
    assert trained.value < 0.5 * init.value
    samples = reverse_sde_sample(network_score(arch, params), SCHED,
                                 SamplerConfig(500, 3000), 2, rng.child(3))
    assert abs(bpd(density, samples) - iso_gaussian_bpd()) < 0.4


@criterion(5, 30.0, "composite and tensor quadrature against Riemann oracles")
def test_criterion_5_quadrature_oracle():
    oracle = riemann_1d(np.exp, -1.0, 1.0)
    prev = math.inf
    for m in (4, 8, 16, 32, 64):
        err = abs(composite_quadrature(np.exp, -1.0, 1.0, m, 2) - oracle)
        assert err <= prev or err < 1e-13
        prev = err
    bump = cosine_bump(2)
    x = np.array([0.1, -0.2])
    p_hat, _ = pt_quadrature(bump, x, 0.9, 0.05, QCFG)
    dense = grid_convolution_2d(bump, x, 0.9, 0.05, n=400)
    assert abs(p_hat - dense) / dense < 1e-3


@criterion(6, 1.0, "covering-number bound identities and monotonicity")
def test_criterion_6_covering_bound():
    from test_wsnn import TestCoveringBound

    helper = TestCoveringBound()
    arch = helper._arch()
    num = covering_bound_numerator(arch, 1.0)
    assert covering_log_bound(arch, 1.0, num) == 0.0
    lo = covering_log_bound(arch, 1.0, 0.3)
    hi = covering_log_bound(arch, 1.0, 0.15)
    gap = (arch.sparsity + 1) * math.log(2.0)
    assert abs((hi - lo) - gap) <= 1e-12 * gap
    helper.test_randomized_monotonicity()  # 200 randomized trials


@criterion(7, 10.0, "vanilla score-matching constant-offset identity")
def test_criterion_7_vanilla_sm_identity():
    n = 100_000
    x = Rng(70).standard_normal(n).reshape(n, 1)
    nets = [linear_network(np.array([[a]])) for a in (0.5, -1.5)]
    losses = [vanilla_sm_pointwise(arch, params, x) for arch, params in nets]
    fs = [wsnn.forward(arch, params, x) for arch, params in nets]
    true_score = -x
    sq = [np.sum((f - true_score) ** 2, axis=1) for f in fs]
    per_sample = (losses[0] - losses[1]) - 0.5 * (sq[0] - sq[1])
    se = per_sample.std(ddof=1) / math.sqrt(n)
    assert abs(per_sample.mean()) < 3 * se + 1e-12


@criterion(8, 600.0, "end-to-end benchmark: complete CSV/SVG, deterministic")
def test_criterion_8_end_to_end():
    import tempfile

    cfg = ExperimentConfig(case=1, grid_side=3,
                           methods=("diffusion", "kde-g", "kde-u"),
                           train_sizes=(100, 500, 2000), repetitions=3,
                           n_eval=3000, steps=300, em_steps=300, seed=8)
    report = run_case(cfg)
    assert len(report.rows) == 27
    assert all(math.isfinite(r.bpd) for r in report.rows)
    assert all(r.status == "ok" for r in report.rows)
    with tempfile.TemporaryDirectory() as out:
        files = emit_plots(report, out)
        assert any(f.endswith(".csv") for f in files)
        assert any(f.endswith(".svg") for f in files)
    rerun = run_case(cfg)
    assert rerun.deterministic_csv_bytes() == report.deterministic_csv_bytes()


@criterion(9, 30.0, "Langevin chain reaches the standard-normal stationary law")
def test_criterion_9_langevin_stationarity():
    x = langevin_sample(lambda x, t: -x, 0.01, 2000, 4096, 1, Rng(90))
    assert abs(x.mean()) < 0.1
    assert abs(x.var() - 1.0) < 0.12
