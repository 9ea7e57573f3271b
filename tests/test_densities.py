import json
import math

import numpy as np
import pytest

from diffden.densities import (Dataset, FactorDensity, GaussMixture,
                               GridMrfGaussian, IsoGaussian, bpd, cosine_bump,
                               grid_mrf_bpd, iso_gaussian_bpd, reference_bpd,
                               sample)
from diffden.diffusion import DiffusionSchedule, score_t_batch
from diffden.errors import (CorruptFile, NoAnalyticScore, NotPositiveDefinite,
                            OutOfSupport, RejectionBudgetExceeded)

SCHED = DiffusionSchedule()


def mvn_logpdf(x, cov):
    """Independent dense-matrix oracle for N(0, cov) log density."""
    sign, logdet = np.linalg.slogdet(cov)
    assert sign == 1.0
    quad = x @ np.linalg.solve(cov, x)
    return -0.5 * (len(x) * math.log(2 * math.pi) + logdet + quad)


class TestIsoGaussian:
    def test_log_density_at_origin(self):
        val = IsoGaussian(1).log_density(np.zeros((1, 1)))[0]
        assert abs(val - (-0.5 * math.log(2 * math.pi))) < 1e-12
        assert abs(val - (-0.9189385)) < 1e-6

    def test_sample_covariance(self, rng):
        data = sample(IsoGaussian(2), 100_000, rng)
        cov = np.cov(data.x.T)
        assert np.max(np.abs(cov - np.eye(2))) < 0.05

    def test_score_is_negative_x(self, rng):
        d = IsoGaussian(3)
        x = rng.normal_matrix(5, 3)
        for t in (1e-3, 0.4, 2.7, rng.uniform(5, SCHED.t_min, SCHED.t_max)):
            assert np.array_equal(d.score_t(x, t, SCHED), -x)


@pytest.fixture(scope="module")
def mrf():
    return GridMrfGaussian(3, 1.0, -0.2)


class TestGridMrf:

    def test_precision_structure(self, mrf):
        lam = mrf.precision
        assert np.array_equal(lam, lam.T)
        assert np.all(np.diag(lam) == 1.0)
        # corner pixel 0 couples only to pixels 1 and 3 on a 3x3 grid
        assert lam[0, 1] == -0.2 and lam[0, 3] == -0.2 and lam[0, 4] == 0.0

    def test_sample_covariance_matches_inverse(self, mrf, rng):
        data = sample(mrf, 100_000, rng)
        cov = np.cov(data.x.T)
        assert np.max(np.abs(cov - mrf.covariance)) < 0.05

    def test_log_density_matches_dense_oracle(self, mrf, rng):
        x = rng.normal_matrix(4, 9)
        want = [mvn_logpdf(row, mrf.covariance) for row in x]
        assert np.allclose(mrf.log_density(x), want, atol=1e-10)

    def test_log_density_at_zero(self, mrf):
        sign, logdet_prec = np.linalg.slogdet(mrf.precision)
        want = 0.5 * logdet_prec - 4.5 * math.log(2 * math.pi)
        assert abs(mrf.log_density(np.zeros((1, 9)))[0] - want) < 1e-10

    def test_score_matches_finite_differences(self, mrf, rng):
        t = 0.3
        mu, sigma = SCHED.mu_sigma(t)
        cov_t = mu ** 2 * mrf.covariance + sigma ** 2 * np.eye(9)
        x = rng.normal_matrix(1, 9)[0]
        got = mrf.score_t(x, t, SCHED)[0]
        h = 1e-6
        for i in range(9):
            e = np.zeros(9)
            e[i] = h
            fd = (mvn_logpdf(x + e, cov_t) - mvn_logpdf(x - e, cov_t)) / (2 * h)
            assert abs(got[i] - fd) < 1e-6

    def test_invalid_precision_raises(self):
        # grid-adjacency spectral radius on 3x3 is 2 sqrt(2), so a coupling
        # of -0.5 drives an eigenvalue of I + b A negative, to 1 - sqrt(2);
        # the message names it as a plain float
        with pytest.raises(NotPositiveDefinite) as exc:
            GridMrfGaussian(3, 1.0, -0.5)
        msg = str(exc.value)
        assert "np.float64" not in msg
        value = msg.rpartition("smallest eigenvalue ")[2]
        assert abs(float(value) - (1.0 - math.sqrt(2.0))) < 1e-12
        # on 2x2 the smallest eigenvalue is diag - 0.4 here, one ulp, below
        # the rounding floor of the decomposition
        with pytest.raises(NotPositiveDefinite):
            GridMrfGaussian(2, 0.4000000000000001, -0.2)


class TestGaussMixture:
    def test_component_occupancy(self, rng):
        means = np.array([[2.0, 0.0], [-2.0, 0.0]])
        mix = GaussMixture(2, 2, rng, means=means)
        data = sample(mix, 10_000, rng.child(1))
        frac = np.mean(data.x[:, 0] > 0)
        assert abs(frac - 0.5) < 0.03

    def test_symmetric_midpoint(self, rng):
        means = np.array([[1.5, 0.0], [-1.5, 0.0]])
        mix = GaussMixture(2, 2, rng, means=means)
        # both components contribute equally at the midpoint
        mid = np.zeros((1, 2))
        lp = mix.log_density(mid)[0]
        single = -0.5 * np.sum(means[0] ** 2) - math.log(2 * math.pi)
        assert abs(lp - single) < 1e-12
        for t in (0.05, 0.8):
            assert np.max(np.abs(mix.score_t(mid, t, SCHED))) < 1e-12

    def test_score_matches_finite_differences(self, rng):
        mix = GaussMixture(2, 3, rng)
        t = 0.4
        mu_t, _ = SCHED.mu_sigma(t)

        def logp_t(pt):
            comps = [-0.5 * np.sum((pt - mu_t * m) ** 2) - math.log(2 * math.pi)
                     for m in mix.means]
            mx = max(comps)
            return mx + math.log(sum(math.exp(c - mx) for c in comps) / 3.0)

        x = rng.normal_matrix(1, 2)[0]
        got = mix.score_t(x[None, :], t, SCHED)[0]
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (logp_t(x + e) - logp_t(x - e)) / (2 * h)
            assert abs(got[i] - fd) < 1e-6

    def test_forward_moments_match_noised_mixture(self, rng):
        mix = GaussMixture(2, 3, rng)
        t = 0.7
        mu_t, sigma_t = SCHED.mu_sigma(t)
        data = sample(mix, 60_000, rng.child(2))
        z = rng.child(3).standard_normal(data.n * 2).reshape(data.n, 2)
        xt = mu_t * data.x + sigma_t * z
        want_mean = mu_t * mix.means.mean(axis=0)
        centered = mu_t * mix.means - want_mean
        want_cov = np.eye(2) + centered.T @ centered / 3.0
        assert np.max(np.abs(xt.mean(axis=0) - want_mean)) < 0.05
        assert np.max(np.abs(np.cov(xt.T) - want_cov)) < 0.08


def max_rel_dev(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestPerRowTime:
    """score_t with one time per row against independent per-row references."""

    def test_mrf_matches_dense_solve(self, rng):
        for side in (3, 5):
            mrf = GridMrfGaussian(side, 1.0, -0.2)
            cov = np.linalg.inv(mrf.precision)
            x = rng.normal_matrix(64, mrf.dim)
            t = rng.uniform(64, SCHED.t_min, SCHED.t_max)
            mu, sigma = SCHED.mu_sigma(t)
            want = np.stack([
                -np.linalg.solve(m ** 2 * cov + s ** 2 * np.eye(mrf.dim), row)
                for row, m, s in zip(x, mu, sigma)])
            assert max_rel_dev(mrf.score_t(x, t, SCHED), want) <= 1e-12

    def test_mixture_matches_scalar_rows(self, rng):
        mix = GaussMixture(4, 3, rng)
        x = 2.0 * rng.normal_matrix(64, 4)
        t = rng.uniform(64, SCHED.t_min, SCHED.t_max)
        want = np.stack([mix.score_t(x[i:i + 1], float(t[i]), SCHED)[0]
                         for i in range(64)])
        assert max_rel_dev(mix.score_t(x, t, SCHED), want) <= 1e-12

    def test_score_t_batch_is_score_t(self, rng):
        x = rng.normal_matrix(16, 9)
        t = rng.uniform(16, SCHED.t_min, SCHED.t_max)
        for density in (IsoGaussian(9), GridMrfGaussian(3), GaussMixture(9, 3, rng)):
            for times in (0.7, t):
                assert np.array_equal(score_t_batch(density, x, times, SCHED),
                                      density.score_t(x, times, SCHED))


class TestFactorDensity:
    def test_normalization_close_to_one(self):
        bump = cosine_bump(2)
        assert abs(bump.norm_const - 1.0) < 1e-3

    def test_separability(self, rng):
        bump = cosine_bump(2)
        x = rng.uniform(10, -0.99, 0.99).reshape(5, 2)
        joint = bump.log_density(x)
        per_axis = [np.log((1 + np.cos(np.pi * x[:, i])) / 2) for i in range(2)]
        assert np.allclose(joint, per_axis[0] + per_axis[1] - math.log(bump.norm_const),
                           atol=1e-12)

    def test_out_of_support(self):
        bump = cosine_bump(1)
        with pytest.raises(OutOfSupport):
            bump.log_density(np.array([[1.5]]))

    def test_rejection_sampling_moments(self, rng):
        bump = cosine_bump(1)
        data = bump.sample(40_000, rng)
        # independent integral oracle for the variance of (1+cos(pi x))/2
        grid = np.linspace(-1, 1, 200_001)
        dens = (1 + np.cos(np.pi * grid)) / 2
        var = np.trapezoid(grid ** 2 * dens, grid)
        assert abs(data.x.mean()) < 0.01
        assert abs(data.x.var() - var) < 0.01

    def test_rejection_budget(self, rng):
        bump = cosine_bump(1)
        with pytest.raises(RejectionBudgetExceeded):
            bump.sample(1000, rng, max_draws=8)

    def test_no_analytic_score(self):
        with pytest.raises(NoAnalyticScore):
            cosine_bump(1).score_t(np.zeros((1, 1)), 0.1, SCHED)

    def test_effective_dim(self):
        pair = FactorDensity(
            2, [(0, 1)], [lambda z: np.exp(-np.sum(z ** 2, axis=1))])
        assert pair.effective_dim == 2
        assert cosine_bump(2).effective_dim == 1


class TestBpd:
    def test_iso_gaussian_self_bpd(self, rng):
        d = IsoGaussian(4)
        data = sample(d, 3000, rng)
        assert abs(bpd(d, data) - iso_gaussian_bpd()) < 0.1

    def test_single_point_at_origin(self):
        d = IsoGaussian(1)
        val = bpd(d, np.zeros((1, 1)))
        assert abs(val - 0.5 * math.log2(2 * math.pi)) < 1e-12
        assert abs(val - 1.3257) < 1e-4

    def test_identical_samples_mean(self):
        d = IsoGaussian(2)
        point = np.array([[0.3, -0.7]])
        stack = np.repeat(point, 5, axis=0)
        assert bpd(d, stack) == pytest.approx(bpd(d, point), rel=1e-12)

    def test_infinite_bpd_guard(self, rng):
        bump = cosine_bump(1)
        edge = np.array([[1.0]])  # density vanishes smoothly at the boundary
        assert bpd(bump, edge) == math.inf

    def test_reference_bpd_iso(self, rng):
        est = reference_bpd(IsoGaussian(3), 20_000, rng)
        assert abs(est.value - iso_gaussian_bpd()) < 3 * est.stderr + 1e-3

    def test_reference_bpd_mrf_closed_form(self, rng):
        mrf = GridMrfGaussian(3)
        est = reference_bpd(mrf, 20_000, rng)
        assert abs(est.value - grid_mrf_bpd(mrf)) < 3 * est.stderr + 1e-3

    def test_single_component_mixture_reduces_to_gaussian(self, rng):
        mix = GaussMixture(2, 1, rng)
        est = reference_bpd(mix, 20_000, rng.child(1))
        assert abs(est.value - iso_gaussian_bpd()) < 3 * est.stderr + 1e-3

    def test_bpd_minus_reference_within_error(self, rng):
        mrf = GridMrfGaussian(3)
        n = 3000
        val = bpd(mrf, sample(mrf, n, rng))
        ref = reference_bpd(mrf, 20_000, rng.child(1))
        # combined error: MC stderr of both estimates
        assert abs(val - ref.value) < 3 * (ref.stderr + 0.02)


class TestScoreConvergesToDataScore:
    def test_gaussian_families_at_small_t(self, rng):
        """The noised score of N(0, P^-1) tends to the data score -P x as
        t -> 0, with a gap proportional to t.  In the eigenbasis of P the gap
        of coordinate i is lam_i (lam_i - 1) sigma_t^2 x_i / (mu_t^2 +
        lam_i sigma_t^2); since sigma_t^2 <= 2 alpha t and the denominator,
        a convex combination of 1 and lam_i, is >= min(1, lam_i), the gap is
        at most 2 alpha t C |x| with C = max_i lam_i |lam_i - 1| / min(1, lam_i)
        (0 for the isotropic family)."""
        mrf = GridMrfGaussian(3)
        for density, precision in ((IsoGaussian(2), np.eye(2)), (mrf, mrf.precision)):
            lam = np.linalg.eigvalsh(precision)
            c = float(np.max(lam * np.abs(lam - 1.0) / np.minimum(1.0, lam)))
            x = 0.5 * rng.normal_matrix(6, density.dim)
            data_score = -x @ precision
            h = 1e-6
            for i, e in enumerate(h * np.eye(density.dim)):
                fd = (density.log_density(x + e) - density.log_density(x - e)) / (2 * h)
                assert np.max(np.abs(fd - data_score[:, i])) < 1e-6
            for t in (SCHED.t_min, SCHED.t_min / 10, SCHED.t_min / 100):
                gap = np.linalg.norm(density.score_t(x, t, SCHED) - data_score, axis=1)
                bound = 2.0 * SCHED.alpha * t * c * np.linalg.norm(x, axis=1)
                assert np.all(gap <= bound)


class TestDataset:
    def test_csv_roundtrip(self, tmp_path, rng):
        data = sample(IsoGaussian(3), 50, rng)
        path = tmp_path / "data.csv"
        data.to_csv(path)
        again = Dataset.from_csv(path)
        assert np.array_equal(again.x, data.x)
        assert path.read_text().splitlines()[0] == "x1,x2,x3"

    @pytest.mark.parametrize("text, line", [
        ("y1,y2\n1,2\n", 1),           # bad header
        ("x1,x2\n1,2\n3,abc\n", 3),    # non-numeric cell
        ("x1,x2\n1,2\n\n3\n", 4),      # ragged row
        ("x1,x2\n1,2,3\n", 2),         # ragged row, too long
        ("x1,x2\n1,nan\n", 2),         # non-finite cell
    ])
    def test_malformed_csv_raises_corrupt_file(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CorruptFile, match=f"line {line}:"):
            Dataset.from_csv(path)

    def test_meta_sidecar(self, tmp_path, rng):
        data = sample(GridMrfGaussian(3), 5, rng)
        path = tmp_path / "meta.json"
        data.write_meta(path)
        meta = json.loads(path.read_text())
        assert meta["family"] == "grid_mrf"
        assert meta["K"] == 3
