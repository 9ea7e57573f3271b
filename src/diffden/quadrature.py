"""Composite Gauss-Legendre rules and tensorised quadrature for noised
densities.

`pt_quadrature` approximates the Gaussian-smoothed density

    p(x) = integral over [-1,1]^D of p0(z) phi_sigma(x - mu z) dz

and its gradient for a compactly supported factorizable p0, by substituting
to standardised coordinates, truncating the Gaussian tail at a width set by
(tau_tail, tau_bd), and applying a composite Gauss-Legendre rule per axis.
Block indices use the canonical decomposition j = k*n_beta + r (node r of
block k).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadPointCount, DimensionMismatch, DimensionTooLarge,
                     PreconditionViolated)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(y):
    return np.exp(-0.5 * np.asarray(y) ** 2) / _SQRT_2PI


def legendre_rule(n):
    """Order-n rule on [-1, 1] as (nodes, weights): the roots of P_n,
    strictly increasing, and positive weights summing to 2, from
    numpy.polynomial.legendre.leggauss."""
    if n < 1:
        raise BadPointCount("order must be >= 1")
    return np.polynomial.legendre.leggauss(n)


def composite_rule(a, b, m, n_beta):
    """m-point rule on [a, b] as (nodes, weights): m/n_beta blocks of an
    order-n_beta base rule."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise PreconditionViolated(f"need finite a < b, got a={a}, b={b}")
    if n_beta < 1 or m < 1 or m % n_beta != 0:
        raise BadPointCount(f"m={m} must be a positive multiple of n_beta={n_beta}")
    base_nodes, base_weights = legendre_rule(n_beta)
    half = (b - a) * n_beta / (2.0 * m)
    blocks = np.arange(m // n_beta)
    nodes = a + half * (base_nodes[None, :] + 2 * blocks[:, None] + 1)
    weights = np.broadcast_to(half * base_weights, nodes.shape)
    return nodes.ravel(), weights.ravel().copy()


def composite_quadrature(g, a, b, m, n_beta):
    """Integrate a 1-D callable over [a, b] with the composite rule."""
    nodes, weights = composite_rule(a, b, m, n_beta)
    return float(np.sum(weights * np.asarray(g(nodes), dtype=np.float64)))


@dataclass(frozen=True)
class TensorQuadratureConfig:
    m: int = 32            # points per axis
    tau_tail: float = 2.0  # tail-truncation exponent
    tau_bd: float = 1.5    # boundary exponent
    n_beta: int = 2        # base-rule order (from the smoothness of p0)


def tail_width(sigma, config):
    """Standardised half-width scale 2 sqrt(2 tau_tail) log(1/sigma)^(tau_bd + 1/2)."""
    return (2.0 * math.sqrt(2.0 * config.tau_tail)
            * math.log(1.0 / sigma) ** (config.tau_bd + 0.5))


def pt_quadrature(p0, x, mu, sigma, config=TensorQuadratureConfig()):
    """Quadrature estimates (p_hat, grad_hat) of the smoothed density and its
    gradient at x.

    p0 must expose `dim` and `eval_unit_cube(points)` returning density
    values on a (n, D) batch inside [-1, 1]^D.  Preconditions follow the
    truncation construction: mu in [1/2, 1], x away from the cube boundary,
    and sigma small enough that sigma * tail_width <= 1/2 (which keeps every
    evaluation point strictly inside the cube; asserted below).
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    dim = p0.dim
    if dim > 3:
        raise DimensionTooLarge("tensor quadrature is limited to D <= 3")
    if x.shape != (dim,):
        raise DimensionMismatch(f"x must have shape ({dim},)")
    if not 0.5 <= mu <= 1.0:
        raise PreconditionViolated("mu must lie in [1/2, 1]")
    if not 0.0 < sigma < 1.0:
        raise PreconditionViolated("sigma must lie in (0, 1)")
    log_inv = math.log(1.0 / sigma)
    margin = log_inv ** (-config.tau_bd)
    if np.max(np.abs(x)) > mu - mu * margin:
        raise PreconditionViolated(
            "x too close to the support boundary for this (sigma, tau_bd)")
    d_sigma = tail_width(sigma, config)
    if sigma * d_sigma > 0.5:
        raise PreconditionViolated(
            "sigma too large for (tau_tail, tau_bd): sigma * tail_width > 1/2")

    axis_y, axis_a, axis_c = [], [], []
    limit = 1.0 - margin / 2.0
    for i in range(dim):
        # composite rule on the truncated standardised interval
        # [(-x_i - mu) D, (-x_i + mu) D]
        y, v = composite_rule((-x[i] - mu) * d_sigma, (-x[i] + mu) * d_sigma,
                              config.m, config.n_beta)
        c = (x[i] + sigma * y) / mu
        # the lemma's containment guarantee must hold at every node
        assert np.max(np.abs(c)) <= limit + 1e-12, "containment violated"
        axis_y.append(y)
        axis_a.append(v * _phi(y) / mu)  # per-axis factor incl. 1/mu Jacobian
        axis_c.append(c)

    grids = np.meshgrid(*axis_c, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    vals = np.asarray(p0.eval_unit_cube(points), dtype=np.float64)
    vals = vals.reshape([config.m] * dim)

    def contract(vectors):
        out = vals
        for vec in reversed(vectors):
            out = out @ vec
        return float(out)

    p_hat = contract(axis_a)
    grad = np.empty(dim)
    for k in range(dim):
        vecs = list(axis_a)
        vecs[k] = axis_a[k] * axis_y[k]
        grad[k] = contract(vecs) / sigma
    return p_hat, grad

