import numpy as np
import pytest

from diffden.errors import InvalidSize
from diffden.numerics import Rng


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
