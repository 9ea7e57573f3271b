import math

import numpy as np
import pytest

from conftest import normal32
from diffden.errors import InvalidSize, PreconditionViolated
from diffden.numerics import Rng


def philox(seed, *path):
    """numpy's generator on the Philox stream Rng(seed).child(*path) wraps."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed,
                                                                       spawn_key=path)))


def box_muller64(seed, n):
    """The float32 draw's transform in float64, on the float32 uniforms the
    same stream gives: ceil(n/2) values of u1, then as many of u2."""
    half = (n + 1) // 2
    u = philox(seed).random(2 * half, dtype=np.float32).astype(np.float64)
    r = np.sqrt(-2.0 * np.log(1.0 - u[:half]))
    theta = 2.0 * math.pi * u[half:]
    return np.concatenate([r * np.cos(theta), (r * np.sin(theta))[:n - half]])


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).standard_normal(5)
        b = Rng(42).standard_normal(5)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        assert not np.array_equal(Rng(1).standard_normal(5), Rng(2).standard_normal(5))

    def test_moments(self):
        z = Rng(5).standard_normal(100_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.03

    def test_finite_and_odd_length(self):
        z = Rng(9).standard_normal(10001)
        assert z.shape == (10001,)
        assert np.all(np.isfinite(z))

    def test_split_deterministic_and_distinct(self):
        kids = [Rng(123).child(i) for i in range(3)]
        again = [Rng(123).child(i) for i in range(3)]
        draws = [k.standard_normal(4) for k in kids]
        for d, e in zip(draws, (k.standard_normal(4) for k in again)):
            assert np.array_equal(d, e)
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.array_equal(draws[i], draws[j])

    def test_split_streams_look_independent(self):
        a, b = Rng(77).child(0), Rng(77).child(1)
        x, y = a.standard_normal(50_000), b.standard_normal(50_000)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 0.02

    def test_child_path_keys(self):
        r = Rng(10)
        assert np.array_equal(r.child(1, 2).uniform(3), Rng(10).child(1, 2).uniform(3))
        assert not np.array_equal(r.child(1, 2).uniform(3), r.child(2, 1).uniform(3))

    def test_uniform_range_and_integers(self):
        r = Rng(4)
        u = r.uniform(1000, -2.0, 3.0)
        assert u.min() >= -2.0 and u.max() < 3.0
        k = r.integers(0, 10, 100)
        assert k.min() >= 0 and k.max() < 10


class TestOutBuffer:
    @pytest.mark.parametrize("n", [1, 2, 3, 127, 27000, 27001])
    def test_out_gives_the_bytes_of_a_fresh_draw(self, n):
        want = Rng(3).child(n).standard_normal(n)
        buf = np.full(n, np.nan)
        got = Rng(3).child(n).standard_normal(n, out=buf)
        assert got is buf
        assert buf.tobytes() == want.tobytes()

    def test_out_may_be_a_matrix(self):
        buf = np.empty((7, 3))
        Rng(4).standard_normal(21, out=buf)
        assert buf.tobytes() == Rng(4).normal_matrix(7, 3).tobytes()

    def test_draws_continue_the_stream(self):
        a = Rng(5)
        buf = np.empty(9)
        first = a.standard_normal(9, out=buf).copy()
        second = a.standard_normal(9, out=buf)
        b = Rng(5)
        assert first.tobytes() == b.standard_normal(9).tobytes()
        assert second.tobytes() == b.standard_normal(9).tobytes()

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_count_is_invalid_size(self, n):
        with pytest.raises(InvalidSize):
            Rng(1).standard_normal(n)

    def test_out_of_another_size_is_invalid_size(self):
        with pytest.raises(InvalidSize):
            Rng(1).standard_normal(4, out=np.empty(5))

    def test_float64_draws_are_numpys_ziggurat(self):
        """No buffer, or a float64 one, gives the bytes of numpy's own
        standard_normal on the Philox stream of (seed, path)."""
        for n in (1, 2, 27001):
            want = philox(3, n).standard_normal(n).tobytes()
            assert Rng(3).child(n).standard_normal(n).tobytes() == want
            buf = np.empty(n)
            assert Rng(3).child(n).standard_normal(n, out=buf).tobytes() == want

    @pytest.mark.parametrize("bad", [
        np.empty(6, np.float16), np.empty(6, np.int64), np.empty(6, np.complex128),
        np.empty((6, 2))[:, 0], np.empty((6, 2), np.float32)[:, 1],
        np.empty((3, 2)).T, [0.0] * 6])
    def test_out_of_another_kind_is_precondition_violated(self, bad):
        """An out that is not a C-contiguous float64 or float32 array is
        refused before anything is drawn (numpy raised TypeError or
        ValueError)."""
        with pytest.raises(PreconditionViolated):
            Rng(1).standard_normal(6, out=bad)


class TestFloat32Normals:
    """A float32 buffer gets the Box-Muller transform of float32 uniforms."""

    N = 1_000_001

    def test_distribution_of_a_million_draws(self):
        """Fixed bounds at n = 1,000,001: mean and variance within about 5
        standard errors, the fourth moment within 0.05 of 3, the
        Kolmogorov-Smirnov distance under its 1% critical value 1.63 /
        sqrt(n), and the tails reaching past 4 but never past
        sqrt(-2 log 2^-24) = 5.77."""
        z = normal32(Rng(2024), self.N)
        assert z.dtype == np.float32
        z = z.astype(np.float64)
        assert abs(z.mean()) < 5e-3
        assert abs(z.var() - 1.0) < 7e-3
        assert abs(np.mean(z ** 4) - 3.0) < 0.05
        assert 4.0 < np.max(np.abs(z)) <= math.sqrt(48.0 * math.log(2.0)) + 1e-6
        zs = np.sort(z)
        cdf = 0.5 * np.array([math.erfc(-v / math.sqrt(2.0)) for v in zs.tolist()])
        i = np.arange(1, self.N + 1)
        ks = max(np.max(i / self.N - cdf), np.max(cdf - (i - 1) / self.N))
        assert ks < 1.63 / math.sqrt(self.N)

    @pytest.mark.parametrize("n", [1, 2, 3, 127, 27000, 27001])
    def test_transform_of_the_streams_uniforms(self, n):
        """cos into the first ceil(n/2) entries, sin into the rest (an odd n
        drops the last sine), within float32 rounding of the float64
        transform."""
        got = normal32(Rng(5), n)
        assert np.max(np.abs(got - box_muller64(5, n))) < 1e-5

    @pytest.mark.parametrize("n", [1, 3, 27001])
    def test_odd_count_fills_every_entry(self, n):
        buf = np.full(n, np.nan, np.float32)
        assert Rng(6).standard_normal(n, out=buf) is buf
        assert np.all(np.isfinite(buf))

    def test_reruns_and_shapes_give_identical_bytes(self):
        first = normal32(Rng(7).child(1), 27001)
        assert normal32(Rng(7).child(1), 27001).tobytes() == first.tobytes()
        matrix = Rng(7).child(1).standard_normal(27001, out=np.empty((31, 871),
                                                                     np.float32))
        assert matrix.tobytes() == first.tobytes()

    def test_draws_continue_the_stream(self):
        a, b = Rng(8), Rng(8)
        first, second = normal32(a, 9), normal32(a, 9)
        assert first.tobytes() == normal32(b, 9).tobytes()
        assert second.tobytes() == normal32(b, 9).tobytes()
        assert first.tobytes() != second.tobytes()
