import math

import numpy as np
import pytest

from diffden.densities import IsoGaussian, bpd, sample
from diffden.errors import BadConfig, EmptyDataset, NonFiniteState
from diffden.kde import fit, sample as kde_sample, scott_bandwidth
from diffden.numerics import Rng


class TestFit:
    def test_explicit_bandwidth_stored(self, rng):
        data = sample(IsoGaussian(2), 10, rng)
        model = fit(data, "gaussian", bandwidth=0.5)
        assert model.bandwidth == 0.5
        assert model.kernel == "gaussian"

    def test_scott_rule_value(self, rng):
        x = rng.standard_normal(100).reshape(100, 1)
        x = (x - x.mean()) / x.std(ddof=1)  # unit sample std
        h = scott_bandwidth(x)
        assert abs(h - 100 ** (-0.2)) < 1e-12
        assert abs(h - 0.3981) < 1e-4

    def test_scott_scale_equivariance(self, rng):
        x = rng.normal_matrix(50, 2)
        assert abs(scott_bandwidth(2.0 * x) - 2.0 * scott_bandwidth(x)) < 1e-12

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            fit(np.empty((0, 1)))

    @pytest.mark.parametrize("kernel, bandwidth", [("epanechnikov", 1.0),
                                                   ("gaussian", 0.0),
                                                   ("gaussian", math.nan),
                                                   ("gaussian", math.inf)])
    def test_bad_setting_is_bad_config(self, kernel, bandwidth):
        with pytest.raises(BadConfig):
            fit(np.zeros((3, 2)), kernel, bandwidth)

    def test_non_finite_data_is_non_finite_state(self):
        # not BadConfig for the NaN bandwidth that Scott's rule makes of it
        with pytest.raises(NonFiniteState):
            fit(np.array([[0.0, 1.0], [math.nan, 2.0], [3.0, 4.0]]))

    def test_single_point_needs_explicit_bandwidth(self):
        with pytest.raises(EmptyDataset):
            fit(np.zeros((1, 2)))
        model = fit(np.zeros((1, 2)), bandwidth=1.0)
        assert model.n == 1


class TestSampling:
    def test_tiny_bandwidth_is_bootstrap(self, rng):
        data = sample(IsoGaussian(2), 20, rng)
        model = fit(data, "gaussian", bandwidth=1e-12)
        out = kde_sample(model, 200, rng.child(1))
        d2 = np.min(np.sum((out[:, None, :] - data[None, :, :]) ** 2, axis=2),
                    axis=1)
        assert np.max(d2) < 1e-20

    def test_single_datum_gaussian_moments(self, rng):
        model = fit(np.zeros((1, 2)), "gaussian", bandwidth=1.0)
        out = kde_sample(model, 100_000, rng)
        assert np.max(np.abs(out.mean(axis=0))) < 0.02
        assert np.max(np.abs(out.var(axis=0) - 1.0)) < 0.03

    def test_uniform_kernel_support(self, rng):
        model = fit(np.zeros((1, 1)), "uniform", bandwidth=0.25)
        out = kde_sample(model, 5000, rng)
        assert np.max(np.abs(out)) <= 0.25

    def test_seed_determinism(self, rng):
        data = sample(IsoGaussian(1), 10, rng)
        model = fit(data, "gaussian")
        a = kde_sample(model, 50, Rng(3))
        b = kde_sample(model, 50, Rng(3))
        assert np.array_equal(a, b)


class TestBpdIntegration:
    def test_gaussian_kernel_bpd_finite(self, rng):
        d = IsoGaussian(2)
        data = sample(d, 500, rng)
        model = fit(data, "gaussian")
        generated = kde_sample(model, 2000, rng.child(1))
        assert math.isfinite(bpd(d, generated))
