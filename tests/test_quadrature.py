import math

import numpy as np
import pytest

from diffden.densities import cosine_bump
from diffden.errors import (BadPointCount, DimensionMismatch, DimensionTooLarge,
                            PreconditionViolated)
from diffden.quadrature import (TensorQuadratureConfig, composite_quadrature,
                                composite_rule, legendre_rule, pt_quadrature,
                                tail_width)

# config satisfying the small-sigma precondition sigma * tail_width <= 1/2
# at sigma = 0.05 (the spec defaults tau_tail=2, tau_bd=1.5 do not; see notes)
QCFG = TensorQuadratureConfig(m=32, tau_tail=1.125, tau_bd=0.5, n_beta=2)


def riemann_1d(f, a, b, n=1_000_000):
    x = a + (np.arange(n) + 0.5) * (b - a) / n
    return float(np.sum(f(x)) * (b - a) / n)


def grid_convolution_1d(p0, x, mu, sigma, n=200_001):
    z = np.linspace(-1.0, 1.0, n)
    vals = p0.eval_unit_cube(z[:, None])
    kern = np.exp(-((x - mu * z) ** 2) / (2 * sigma ** 2)) / (sigma * math.sqrt(2 * math.pi))
    return float(np.trapezoid(vals * kern, z))


def grid_convolution_2d(p0, x, mu, sigma, n=400):
    c = (np.arange(n) + 0.5) * 2.0 / n - 1.0
    z1, z2 = np.meshgrid(c, c, indexing="ij")
    pts = np.stack([z1.ravel(), z2.ravel()], axis=1)
    vals = p0.eval_unit_cube(pts).reshape(n, n)
    kern = np.exp(-(((x[0] - mu * z1) ** 2 + (x[1] - mu * z2) ** 2))
                  / (2 * sigma ** 2)) / (2 * math.pi * sigma ** 2)
    return float(np.sum(vals * kern) * (2.0 / n) ** 2)


class TestLegendreRule:
    def test_order_one(self):
        nodes, weights = legendre_rule(1)
        assert np.array_equal(nodes, [0.0])
        assert np.array_equal(weights, [2.0])

    def test_order_two(self):
        nodes, weights = legendre_rule(2)
        assert np.allclose(nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        assert np.allclose(weights, [1.0, 1.0], atol=1e-15)

    def test_quadratic_exact(self):
        nodes, weights = legendre_rule(2)
        assert abs(np.sum(weights * nodes ** 2) - 2.0 / 3.0) < 1e-15

    def test_polynomial_exactness_degree(self):
        gen = np.random.default_rng(0)
        for n in range(1, 17):
            nodes, weights = legendre_rule(n)
            assert np.all(weights > 0)
            assert abs(weights.sum() - 2.0) < 1e-13
            for _ in range(3):
                deg = int(gen.integers(0, 2 * n))
                coeffs = gen.normal(size=deg + 1)
                got = np.sum(weights * np.polyval(coeffs, nodes))
                exact = sum(c / (deg - k + 1) * (1 - (-1) ** (deg - k + 1))
                            for k, c in enumerate(coeffs))
                assert abs(got - exact) < 1e-12 * max(1.0, abs(exact))

    def test_monomials_exact_up_to_order_128(self):
        # an order-n rule integrates x^k exactly for k < 2n; the integral is
        # 2 / (k + 1) for even k and 0 for odd k
        for n in range(1, 129):
            nodes, weights = legendre_rule(n)
            k = np.arange(2 * n)
            got = nodes[None, :] ** k[:, None] @ weights
            scale = 2.0 / (k + 1)
            want = np.where(k % 2 == 0, scale, 0.0)
            assert np.max(np.abs(got - want) / scale) <= 1e-11, n

    def test_node_interleaving(self):
        for n in range(1, 16):
            a = legendre_rule(n)[0]
            b = legendre_rule(n + 1)[0]
            for i in range(n):
                assert b[i] < a[i] < b[i + 1]


class TestCompositeRule:
    def test_constant(self):
        val = composite_quadrature(lambda x: np.full_like(x, 3.5), -2.0, 5.0, 8, 2)
        assert abs(val - 3.5 * 7.0) < 1e-12

    def test_odd_function_symmetric_interval(self):
        assert abs(composite_quadrature(lambda x: x, -1.0, 1.0, 8, 2)) < 1e-14

    def test_weights_sum_to_interval(self):
        nodes, weights = composite_rule(0.0, 3.0, 12, 3)
        assert abs(weights.sum() - 3.0) < 1e-12
        assert np.all(nodes > 0.0) and np.all(nodes < 3.0)

    def test_bad_point_count(self):
        with pytest.raises(BadPointCount):
            composite_quadrature(lambda x: x, 0.0, 1.0, 7, 2)
        with pytest.raises(BadPointCount):
            legendre_rule(0)

    def test_empty_interval(self):
        with pytest.raises(PreconditionViolated):
            composite_rule(1.0, 1.0, 8, 2)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan),
                                      (-math.inf, 1.0), (0.0, math.inf)])
    def test_non_finite_endpoint_rejected(self, a, b):
        with pytest.raises(PreconditionViolated):
            composite_rule(a, b, 4, 2)

    def test_exp_loglog_slope(self):
        oracle = riemann_1d(np.exp, -1.0, 1.0)
        ms = [4, 8, 16, 32]
        errs = [abs(composite_quadrature(np.exp, -1.0, 1.0, m, 2) - oracle)
                for m in ms]
        assert all(e > 0 for e in errs)
        slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
        assert slope <= -2.0

    def test_error_monotone_in_m(self):
        oracle = riemann_1d(np.exp, -1.0, 1.0)
        prev = math.inf
        for m in (4, 8, 16, 32, 64):
            err = abs(composite_quadrature(np.exp, -1.0, 1.0, m, 2) - oracle)
            assert err <= prev or err < 1e-13
            prev = err


@pytest.fixture(scope="module")
def bump1():
    return cosine_bump(1)


@pytest.fixture(scope="module")
def bump2():
    return cosine_bump(2)


class TestPtQuadrature:
    def test_1d_against_riemann(self, bump1):
        p_hat, _ = pt_quadrature(bump1, [0.0], 0.9, 0.05, QCFG)
        oracle = grid_convolution_1d(bump1, 0.0, 0.9, 0.05)
        assert abs(p_hat - oracle) / oracle < 1e-3

    def test_symmetric_gradient_vanishes(self, bump1):
        _, grad = pt_quadrature(bump1, [0.0], 0.9, 0.05, QCFG)
        assert abs(grad[0]) < 1e-6

    def test_gradient_against_finite_differences(self, bump1):
        x = 0.25
        _, grad = pt_quadrature(bump1, [x], 0.9, 0.05, QCFG)
        h = 1e-5
        fd = (grid_convolution_1d(bump1, x + h, 0.9, 0.05)
              - grid_convolution_1d(bump1, x - h, 0.9, 0.05)) / (2 * h)
        assert abs(grad[0] - fd) / abs(fd) < 1e-3

    def test_2d_against_riemann(self, bump2):
        x = np.array([0.1, -0.2])
        p_hat, grad = pt_quadrature(bump2, x, 0.9, 0.05, QCFG)
        oracle = grid_convolution_2d(bump2, x, 0.9, 0.05)
        assert abs(p_hat - oracle) / oracle < 1e-3
        assert grad.shape == (2,)

    def test_boundary_precondition(self, bump1):
        with pytest.raises(PreconditionViolated):
            pt_quadrature(bump1, [0.95], 0.9, 0.05, QCFG)

    def test_sigma_precondition_at_spec_defaults(self, bump1):
        # tau_tail=2.0, tau_bd=1.5 push the truncation width past 1/(2 sigma)
        # at sigma=0.05, so the guarded precondition must fire
        with pytest.raises(PreconditionViolated):
            pt_quadrature(bump1, [0.0], 0.9, 0.05, TensorQuadratureConfig(m=32))

    def test_mu_range_checked(self, bump1):
        with pytest.raises(PreconditionViolated):
            pt_quadrature(bump1, [0.0], 0.3, 0.05, QCFG)

    def test_point_of_wrong_dimension(self, bump1):
        with pytest.raises(DimensionMismatch):
            pt_quadrature(bump1, [0.0, 0.0], 0.9, 0.05, QCFG)

    def test_dimension_cap(self):
        class Fake:
            dim = 4

        with pytest.raises(DimensionTooLarge):
            pt_quadrature(Fake(), [0.0, 0.0, 0.0, 0.0], 0.9, 0.05, QCFG)

    def test_error_nonincreasing_in_sigma(self, bump1):
        cfg = TensorQuadratureConfig(m=64, tau_tail=0.5, tau_bd=0.5, n_beta=2)
        errs = []
        for sigma in (0.1, 0.05, 0.025):
            p_hat, _ = pt_quadrature(bump1, [0.0], 0.9, sigma, cfg)
            oracle = grid_convolution_1d(bump1, 0.0, 0.9, sigma)
            errs.append(abs(p_hat - oracle) / oracle)
        assert errs[0] >= errs[1] >= errs[2]

    def test_containment_margin(self, bump1):
        cfg = QCFG
        sigma = 0.05
        width = tail_width(sigma, cfg)
        assert sigma * width <= 0.5
        # every evaluated point stays strictly inside the cube by the lemma
        # guarantee; the call itself asserts this per node
        pt_quadrature(bump1, [0.33], 0.9, sigma, cfg)

