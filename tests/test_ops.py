import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cryptocast import ops
from cryptocast.errors import ConfigError, DimensionError
from cryptocast.rng import Rng


finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.floats(-50, 50, allow_nan=False),
)


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert ops.sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = ops.sigmoid(np.array([-1e6, 1e6]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0

    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=st.floats(-18, 18, allow_nan=False)))
    @settings(max_examples=50, deadline=None)
    def test_ranges(self, x):
        # strict bounds hold wherever float64 has room; saturation to the
        # closed endpoints is covered by the extreme-input test
        s = ops.sigmoid(x)
        assert np.all((s > 0.0) & (s < 1.0))

    @given(arrays(np.float64, st.integers(1, 50), elements=st.floats(-745, 745)))
    @settings(max_examples=100, deadline=None)
    def test_sigmoid_matches_exponential_form(self, x):
        z = np.exp(-np.abs(x))
        expected = np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
        assert np.max(np.abs(ops.sigmoid(x) - expected)) <= 4.5e-16

    def test_sigmoid_writes_into_out(self):
        x = np.linspace(-40.0, 40.0, 81)
        out = np.empty_like(x)
        assert ops.sigmoid(x, out=out) is out
        assert np.array_equal(out, ops.sigmoid(x))


class TestSoftmax:
    def test_symmetric_row(self):
        assert ops.softmax_rows(np.array([[0.0, 0.0]])).tolist() == [[0.5, 0.5]]

    def test_single_element_row(self):
        assert ops.softmax_rows(np.array([[7.3]])).tolist() == [[1.0]]

    def test_direct_exponentiation_oracle(self):
        row = np.array([1.0, 2.0, 3.0])
        expected = np.exp(row) / np.exp(row).sum()
        out = ops.softmax_rows(row[None, :])[0]
        assert np.allclose(out, expected, atol=1e-15)
        assert np.allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_large_values_do_not_overflow(self):
        out = ops.softmax_rows(np.array([[1e4, 1e4 + 1.0]]))
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("offset", [-250.0, 250.0, -1000.0, 1000.0, -1e6])
    def test_rows_far_apart_match_their_own_oracle(self, offset):
        # within SOFTMAX_SHIFT_SPREAD one scalar shifts both rows, beyond it
        # each row is shifted by its own maximum; both give every row's softmax
        row = np.array([1.0, 2.0, 3.0])
        expected = np.exp(row) / np.exp(row).sum()
        out = ops.softmax_rows(np.array([row, row + offset]))
        assert np.allclose(out, [expected, expected], rtol=1e-13, atol=0.0)

    @given(finite_matrices)
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, x):
        sums = ops.softmax_rows(x).sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) < 1e-12)


class TestLayerNorm:
    def test_constant_row_maps_to_beta(self):
        out, _ = ops.layer_norm_with_cache(np.array([4.0, 4.0, 4.0]), np.ones(3), np.zeros(3))
        assert np.allclose(out, 0.0)

    def test_two_point_row(self):
        # mean 2, population variance 1 -> normalized [-1, 1]
        out, _ = ops.layer_norm_with_cache(np.array([1.0, 3.0]), np.ones(2), np.zeros(2), eps=1e-15)
        assert np.allclose(out, [-1.0, 1.0], atol=1e-7)

    def test_zero_gamma_gives_beta(self):
        beta = np.array([2.0, -1.0, 0.5])
        out, _ = ops.layer_norm_with_cache(np.array([9.0, -3.0, 14.0]), np.zeros(3), beta)
        assert np.array_equal(out, beta)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            ops.layer_norm_with_cache(np.zeros(3), np.ones(2), np.zeros(3))

    def test_nonpositive_eps_is_a_config_error(self):
        with pytest.raises(ConfigError, match="eps"):
            ops.layer_norm_with_cache(np.zeros(3), np.ones(3), np.zeros(3), eps=0.0)

    @given(arrays(np.float64, st.integers(2, 8),
                  elements=st.floats(-100, 100, allow_nan=False)))
    @settings(max_examples=50, deadline=None)
    def test_normalized_statistics(self, row):
        if np.ptp(row) < 1e-3:
            return  # (near-)constant rows are the eps-guarded case
        out, _ = ops.layer_norm_with_cache(row, np.ones(row.size), np.zeros(row.size), eps=1e-15)
        assert abs(out.mean()) < 1e-10
        assert abs((out**2).mean() - 1.0) < 1e-8

    def test_backward_matches_finite_differences(self):
        rng = Rng(3)
        x = rng.uniform(-2, 2, (4, 5))
        gamma = rng.uniform(0.5, 1.5, (5,))
        beta = rng.uniform(-1, 1, (5,))
        dout = rng.uniform(-1, 1, (4, 5))

        def loss(x_, g_, b_):
            out, _ = ops.layer_norm_with_cache(x_, g_, b_)
            return float((out * dout).sum())

        _, cache = ops.layer_norm_with_cache(x, gamma, beta)
        dx, dgamma, dbeta = ops.layer_norm_backward(dout, cache)
        h = 1e-6
        for arr, grad, which in ((x, dx, 0), (gamma, dgamma, 1), (beta, dbeta, 2)):
            flat = arr.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss(x, gamma, beta)
                flat[i] = orig - h
                down = loss(x, gamma, beta)
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                assert abs(numeric - gflat[i]) < 1e-4 * max(1.0, abs(gflat[i]))


class TestXavier:
    def test_same_seed_identical(self):
        assert np.array_equal(ops.xavier(Rng(42), 4, 6), ops.xavier(Rng(42), 4, 6))

    def test_entries_within_limit(self):
        w = ops.xavier(Rng(1), 5, 7)
        limit = np.sqrt(6.0 / 12.0)
        assert np.all(np.abs(w) <= limit)

    def test_one_by_one_bound(self):
        # limit for 1x1 is sqrt(6/2) = sqrt(3)
        for seed in (0, 1, 2, 99):
            v = ops.xavier(Rng(seed), 1, 1)[0, 0]
            assert -np.sqrt(3.0) < v < np.sqrt(3.0)

    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionError):
            ops.xavier(Rng(1), 0, 3)
