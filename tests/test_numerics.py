import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atsvit import autograd as ag
from atsvit import numerics
from atsvit.numerics import Rng, gelu, matmul, softmax_rows


class TestMatmul:
    def test_identity(self):
        m = np.array([[2.0, -1.0], [0.5, 3.0]])
        assert np.array_equal(matmul(np.eye(2), m), m)

    def test_hand_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_annihilates(self):
        m = np.arange(4.0).reshape(2, 2)
        assert np.array_equal(matmul(np.zeros((2, 2)), m), np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_associativity(self, seed):
        rng = Rng(seed)
        a, b, c = (rng.normal((4, 4)) for _ in range(3))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.allclose(left, right, rtol=1e-9, atol=1e-9)


class TestSoftmax:
    def test_constant_row_uniform(self):
        out = softmax_rows(np.full((2, 5), 3.7))
        assert np.allclose(out, 0.2)

    def test_closed_form(self):
        out = softmax_rows(np.array([[0.0, np.log(2.0)]]))
        assert np.allclose(out, [[1 / 3, 2 / 3]], atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, seed, c):
        x = Rng(seed).normal((3, 6))
        assert np.allclose(softmax_rows(x + c), softmax_rows(x), atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, seed, n):
        x = Rng(seed).normal((3, n), std=10.0)
        sums = softmax_rows(x).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)
        assert (softmax_rows(x) >= 0).all()


def tape_layer_norm(x, gamma, beta, eps=1e-5):
    return ag.layer_norm(ag.leaf(x), ag.leaf(gamma), ag.leaf(beta), eps=eps).value


class TestLayerNorm:
    def test_constant_row_collapses(self):
        x = np.full((2, 4), 5.0)
        out = tape_layer_norm(x, np.ones(4), np.zeros(4))
        assert np.allclose(out, 0.0)

    def test_two_point_row(self):
        out = tape_layer_norm(np.array([[1.0, 3.0]]), np.ones(2), np.zeros(2),
                              eps=0.0)
        assert np.allclose(out, [[-1.0, 1.0]])

    def test_beta_only(self):
        beta = np.array([1.0, -2.0, 0.5])
        out = tape_layer_norm(np.random.default_rng(0).normal(size=(4, 3)),
                              np.zeros(3), beta)
        assert np.allclose(out, np.tile(beta, (4, 1)))

    def test_standardizes(self):
        x = Rng(9).normal((5, 16), std=3.0)
        out = tape_layer_norm(x, np.ones(16), np.zeros(16), eps=0.0)
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-9)


class TestGelu:
    def test_zero(self):
        assert gelu(np.array(0.0))[0] == 0.0

    def test_asymptotes(self):
        assert abs(gelu(np.array(10.0))[0] - 10.0) < 1e-6
        assert abs(gelu(np.array(-10.0))[0]) < 1e-6

    def test_halfway_at_origin_slope(self):
        # derivative at 0 is Phi(0) = 0.5
        x = np.array(0.0)
        assert abs(numerics.gelu_grad(x, gelu(x)[1]) - 0.5) < 1e-12


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a, b = Rng(123), Rng(123)
        assert np.array_equal(a.uniform((100,)), b.uniform((100,)))
        assert np.array_equal(a.normal((50,)), b.normal((50,)))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform((20,)), Rng(2).uniform((20,)))

    def test_streams_independent_of_chunking(self):
        a = Rng(7)
        chunks = np.concatenate([a.uniform((3,)), a.uniform((5,))])
        assert np.array_equal(chunks, Rng(7).uniform((8,)))

    def test_same_stream_across_threads(self):
        import concurrent.futures

        def draw(_):
            return Rng(99).uniform((64,))

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(draw, range(8)))
        for r in results[1:]:
            assert np.array_equal(results[0], r)

    def test_spawn_disjoint(self):
        base = Rng(5)
        kids = [base.spawn(i).uniform((10,)) for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(kids[i], kids[j])
        # spawning does not consume the parent stream
        assert np.array_equal(base.uniform((4,)), Rng(5).uniform((4,)))

    def test_uniform_range(self):
        u = Rng(11).uniform((10000,))
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_permutation_is_permutation(self):
        p = Rng(3).permutation(50)
        assert sorted(p.tolist()) == list(range(50))

    def test_choice_distinct(self):
        c = Rng(4).choice(10, 6)
        assert len(set(c.tolist())) == 6

    def test_known_values_frozen(self):
        # cross-platform regression anchor for the counter-based generator
        assert Rng(0)._raw(3).tolist() == [
            12035550249420947055, 12935080325729570654, 7141179953334974231]

    def test_scalar_values_frozen(self):
        # the scalar path's anchors: both draw the first word above
        assert Rng(0).uniform() == 0.6524484863740322
        assert Rng(0).integers(0, 17) == 15

    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 5),
           st.lists(st.one_of(
               st.tuples(st.just("uniform"), st.none()),
               st.tuples(st.just("uniform"), st.integers(0, 40)),
               st.tuples(st.just("integers"), st.none(),
                         st.integers(-50, 50), st.integers(1, 2 ** 40))),
               max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_scalar_and_shaped_draws_share_one_stream(self, seed, stream, calls):
        """Mixed scalar and shaped draws on one Rng read consecutive words
        of the stream that one _raw call gives in a single array."""
        rng = Rng(seed, stream)
        got = []
        for name, n, *bounds in calls:
            if name == "uniform":
                out = rng.uniform() if n is None else rng.uniform((n,))
            else:
                lo, span = bounds
                out = rng.integers(lo, lo + span)
            if n is None:
                assert type(out) is (np.float64 if name == "uniform" else int)
                got.append(out)
            else:
                assert out.shape == (n,)
                got.extend(out.tolist())
        words = iter(Rng(seed, stream)._raw(len(got)).tolist())
        want = []
        for name, n, *bounds in calls:
            for w in (next(words) for _ in range(1 if n is None else n)):
                if name == "uniform":
                    want.append((w >> 11) * 2.0 ** -53)
                else:
                    want.append(bounds[0] + w % bounds[1])
        assert got == want
        assert rng.counter == len(got)
