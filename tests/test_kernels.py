import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptocast import kernels
from cryptocast.errors import ConfigError, DimensionError, SizeError
from cryptocast.gradcheck import grad_check
from cryptocast.ops import FORWARD_CHUNK as B
from cryptocast.ops import block_rows
from cryptocast.rng import Rng


def random_data(seed, n=24, k=3):
    rng = Rng(seed)
    X = rng.uniform(0, 1, (n, k))
    y = rng.uniform(0, 1, (n,))
    return X, y


def oracle_weights(q, S, sigma):
    """GRNN weights of one query row by brute force: direct differences,
    exp (shifted by the nearest row, which cancels), then normalize."""
    sq = ((S - q) ** 2).sum(axis=1)
    w = np.exp(-(sq - sq.min()) / (2.0 * sigma**2))
    return w / w.sum()


def oracle_predict(Q, S, y, sigma):
    return np.array([oracle_weights(q, S, sigma) @ y for q in Q])


class TestKmeans:
    def test_deterministic(self):
        X, _ = random_data(1)
        c1, i1 = kernels.kmeans(X, 4, Rng(9))
        c2, i2 = kernels.kmeans(X, 4, Rng(9))
        assert np.array_equal(c1, c2)
        assert i1 == i2

    def test_perfect_clusters(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        centers, inertia = kernels.kmeans(X, 2, Rng(3))
        assert inertia == pytest.approx(0.01, abs=1e-12)
        assert sorted(centers[:, 0].tolist()) == pytest.approx([0.05, 5.05])

    def test_too_many_centers(self):
        with pytest.raises(SizeError):
            kernels.kmeans(np.zeros((3, 2)), 4, Rng(0))


class TestRbfn:
    def test_interpolation_limit(self):
        # one center per training point and a vanishing spread turn the
        # design matrix into the identity, so training targets are recovered
        X, y = random_data(2, n=12)
        model = kernels.rbfn_fit(X, y, m=12, seed=5, spread=1e-3)
        pred = kernels.rbfn_predict_batch(model, X)
        assert np.max(np.abs(pred - y)) < 1e-6

    def test_constant_target_goes_to_bias(self):
        X, _ = random_data(3, n=10)
        y = np.full(10, 4.2)
        model = kernels.rbfn_fit(X, y, m=4, seed=1)
        queries = Rng(8).uniform(-2, 3, (20, 3))
        pred = kernels.rbfn_predict_batch(model, queries)
        assert np.allclose(pred, 4.2, atol=1e-5)

    def test_same_seed_identical_model(self):
        X, y = random_data(4)
        a = kernels.rbfn_fit(X, y, m=5, seed=77)
        b = kernels.rbfn_fit(X, y, m=5, seed=77)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_single_neuron_at_center(self):
        model = kernels.RbfnModel(
            centers=np.array([[1.0, 2.0]]), spreads=np.array([0.5]),
            weights=np.array([1.0]), bias=0.0,
        )
        assert kernels.rbfn_predict_batch(model, np.array([1.0, 2.0])[None])[0] == pytest.approx(1.0)

    def test_far_query_returns_bias(self):
        model = kernels.RbfnModel(
            centers=np.array([[0.0, 0.0]]), spreads=np.array([0.5]),
            weights=np.array([3.0]), bias=-1.25,
        )
        assert kernels.rbfn_predict_batch(model, np.array([1e4, 1e4])[None])[0] == pytest.approx(-1.25)

    def test_two_neuron_hand_formula(self):
        centers = np.array([[0.0], [2.0]])
        spreads = np.array([1.0, 1.0])
        weights = np.array([2.0, -1.0])
        model = kernels.RbfnModel(centers=centers, spreads=spreads, weights=weights, bias=0.5)
        x = np.array([1.0])
        expected = 2.0 * np.exp(-0.5) - 1.0 * np.exp(-0.5) + 0.5
        assert kernels.rbfn_predict_batch(model, x[None])[0] == pytest.approx(expected, abs=1e-15)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_predict_matches_direct_evaluation(self, seed):
        rng = Rng(seed)
        m, k = 4, 2
        model = kernels.RbfnModel(
            centers=rng.uniform(-1, 1, (m, k)),
            spreads=rng.uniform(0.2, 2.0, (m,)),
            weights=rng.uniform(-2, 2, (m,)),
            bias=rng.uniform(-1, 1),
        )
        x = rng.uniform(-1, 1, (k,))
        direct = model.bias
        for i in range(m):
            dist_sq = float(((x - model.centers[i]) ** 2).sum())
            direct += model.weights[i] * np.exp(-dist_sq / (2 * model.spreads[i] ** 2))
        assert abs(kernels.rbfn_predict_batch(model, x[None])[0] - direct) < 1e-12

    def test_m_exceeding_n_rejected(self):
        X, y = random_data(5, n=4)
        with pytest.raises(SizeError):
            kernels.rbfn_fit(X, y, m=5, seed=0)

    def test_dimension_mismatch(self):
        X, y = random_data(6)
        model = kernels.rbfn_fit(X, y, m=3, seed=0)
        with pytest.raises(DimensionError):
            kernels.rbfn_predict_batch(model, np.zeros(5)[None])

    def test_readout_gradient_vanishes_at_fit(self):
        # least squares minimizes the residual, so the gradient of the
        # objective at the solution is (ridge-jitter) small
        X, y = random_data(7, n=20)
        model = kernels.rbfn_fit(X, y, m=6, seed=3)
        _, grads = kernels.rbfn_loss_and_grad(model, X, y)
        assert max(float(np.abs(g).max()) for g in grads.values()) < 1e-6

    def test_loss_gradient_against_finite_differences(self):
        X, y = random_data(8, n=15)
        model = kernels.rbfn_fit(X, y, m=5, seed=2)
        rng = Rng(10)
        model.weights = rng.uniform(-1, 1, model.weights.shape)
        model.bias = np.array(rng.uniform(-1, 1))

        err = grad_check(lambda: kernels.rbfn_loss_and_grad(model, X, y),
                         {"weights": model.weights, "bias": model.bias}, h=1e-5)
        assert err < 1e-7


class TestGrnn:
    def test_single_stored_sample(self):
        model = kernels.GrnnModel(
            stored_inputs=np.array([[0.3, 0.4]]),
            stored_targets=np.array([7.5]), sigma=0.123,
        )
        assert kernels.grnn_predict_batch(model, np.array([100.0, -4.0])[None])[0] == 7.5

    def test_equidistant_pair_averages(self):
        model = kernels.GrnnModel(
            stored_inputs=np.array([[-1.0], [1.0]]),
            stored_targets=np.array([2.0, 4.0]), sigma=0.7,
        )
        assert kernels.grnn_predict_batch(model, np.array([0.0])[None])[0] == pytest.approx(3.0)

    @staticmethod
    def check_nearest_neighbor(sigma):
        X, y = random_data(11, n=15, k=2)
        model = kernels.GrnnModel(stored_inputs=X, stored_targets=y, sigma=sigma)
        rng = Rng(12)
        for _ in range(10):
            q = rng.uniform(0, 1, (2,))
            dists = ((X - q) ** 2).sum(axis=1)
            nearest = y[int(dists.argmin())]
            assert kernels.grnn_predict_batch(model, q[None])[0] == pytest.approx(nearest, abs=1e-9)

    def test_small_sigma_is_nearest_neighbor(self):
        self.check_nearest_neighbor(1e-4)

    # below 1.5e-154, sigma² is no normal double, and 1/sigma² overflows
    @pytest.mark.parametrize("sigma", [1e-160, 5e-324])
    def test_vanishing_sigma_is_nearest_neighbor(self, sigma):
        self.check_nearest_neighbor(sigma)

    @pytest.mark.parametrize("sigma", [1e-160, 5e-324])
    def test_vanishing_sigma_averages_tied_nearest_rows(self, sigma):
        model = kernels.GrnnModel(stored_inputs=np.array([[-1.0], [1.0], [3.0]]),
                                  stored_targets=np.array([2.0, 4.0, 10.0]), sigma=sigma)
        queries = np.array([[0.0], [2.0], [2.9], [-5.0]])
        assert kernels.grnn_predict_batch(model, queries).tolist() == [3.0, 7.0, 10.0, 2.0]

    def test_vanishing_sigma_scores_finite_in_the_fit(self):
        # noiseless targets: the nearest stored row's beats a wide average
        X, _ = random_data(12, n=200, k=2)
        model = kernels.grnn_fit(X, X[:, 0], sigma_grid=[1.0, 1e-160, 5e-324])
        assert model.sigma == 1e-160

    def test_forced_grid_choice(self):
        X, y = random_data(13, n=9)
        model = kernels.grnn_fit(X, y, sigma_grid=[0.37])
        assert model.sigma == 0.37

    def test_duplicate_grid_values_idempotent(self):
        X, y = random_data(14, n=12)
        a = kernels.grnn_fit(X, y, sigma_grid=[0.1, 0.3, 0.1, 0.3])
        b = kernels.grnn_fit(X, y, sigma_grid=[0.1, 0.3])
        assert a.sigma == b.sigma
        assert np.array_equal(a.stored_inputs, b.stored_inputs)

    def test_holdout_prefers_moderate_sigma_on_noisy_data(self):
        # periodic features with noisy targets: a near-zero bandwidth
        # reproduces single noisy neighbors while a moderate one averages
        # the noise away, so the holdout must pick the moderate value
        n = 80
        t = np.linspace(0.0, 4.0, n)
        X = np.column_stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)])
        y = np.sin(2 * np.pi * t) + 0.3 * Rng(55).normal(size=n)
        grid = [1e-4, 0.3]

        # independent brute-force selection over the same split
        n_fit = int(np.floor(0.8 * n))
        best = min(grid, key=lambda s: float((
            (kernels.grnn_predict_batch(
                kernels.GrnnModel(X[:n_fit], y[:n_fit], s), X[n_fit:]) - y[n_fit:]) ** 2
        ).mean()))
        assert best == 0.3

        model = kernels.grnn_fit(X, y, sigma_grid=grid)
        assert model.sigma == 0.3

    def test_empty_grid_rejected(self):
        X, y = random_data(15, n=6)
        with pytest.raises(ConfigError):
            kernels.grnn_fit(X, y, sigma_grid=[])

    def test_nonpositive_grid_rejected(self):
        X, y = random_data(15, n=6)
        with pytest.raises(ConfigError):
            kernels.grnn_fit(X, y, sigma_grid=[0.1, -0.2])

    def test_needs_three_samples(self):
        with pytest.raises(SizeError):
            kernels.grnn_fit(np.zeros((2, 1)), np.zeros(2), sigma_grid=[0.1])

    @given(st.integers(0, 10_000), st.floats(0.01, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_prediction_is_convex_combination(self, seed, sigma):
        rng = Rng(seed)
        n = 8
        X = rng.uniform(-3, 3, (n, 2))
        y = rng.uniform(-10, 10, (n,))
        model = kernels.GrnnModel(stored_inputs=X, stored_targets=y, sigma=sigma)
        q = rng.uniform(-5, 5, (2,))
        pred = kernels.grnn_predict_batch(model, q[None])[0]
        assert y.min() - 1e-9 <= pred <= y.max() + 1e-9

    def test_weights_sum_to_one(self):
        rng = Rng(21)
        X = rng.uniform(0, 1, (30, 4))
        q = rng.uniform(0, 1, (5, 4))
        w = np.array([oracle_weights(row, X, 0.2) for row in q])
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(w >= 0.0)

    def test_permuting_stored_rows_changes_nothing(self):
        X, y = random_data(16, n=20)
        model = kernels.GrnnModel(stored_inputs=X, stored_targets=y, sigma=0.3)
        perm = Rng(17).permutation(20)
        shuffled = kernels.GrnnModel(stored_inputs=X[perm], stored_targets=y[perm], sigma=0.3)
        q = Rng(18).uniform(0, 1, (3,))
        assert kernels.grnn_predict_batch(model, q[None])[0] == pytest.approx(
            kernels.grnn_predict_batch(shuffled, q[None])[0], abs=1e-12)

    def test_distant_query_stays_finite(self):
        X, y = random_data(19, n=10)
        model = kernels.GrnnModel(stored_inputs=X, stored_targets=y, sigma=0.05)
        pred = kernels.grnn_predict_batch(model, np.full(3, 1e6)[None])[0]
        assert np.isfinite(pred)

    def test_dimension_mismatch(self):
        X, y = random_data(20)
        model = kernels.GrnnModel(stored_inputs=X, stored_targets=y, sigma=0.1)
        with pytest.raises(DimensionError):
            kernels.grnn_predict_batch(model, np.zeros(7)[None])

    @pytest.mark.parametrize("k", [2, 90])
    @pytest.mark.parametrize("sigma", [1e-4, 0.01, 0.1, 1.0])
    def test_predictions_match_the_brute_force_formula(self, sigma, k):
        rng = Rng(k)
        X = rng.uniform(0, 1, (60, k))
        y = rng.uniform(1, 10, (60,))
        near = X[::3] + rng.uniform(-0.01, 0.01, (20, k))
        far = np.vstack([np.full(k, 1e6), np.full(k, -1e6)])
        Q = np.vstack([near, far])
        model = kernels.GrnnModel(stored_inputs=X, stored_targets=y, sigma=sigma)
        np.testing.assert_allclose(kernels.grnn_predict_batch(model, Q),
                                   oracle_predict(Q, X, y, sigma), rtol=1e-12, atol=0.0)

    def test_exponents_are_floored_above_the_subnormal_range(self):
        # stored rows whose scaled exponents span -600..-800: unfloored, those
        # in (-745, -708) exponentiate to subnormals, np.exp's slow path
        sigma = 0.1
        S = np.sqrt(2.0 * sigma**2 * np.concatenate([[0.0], np.linspace(600.0, 800.0, 401)]))
        exponents = -0.5 * S[None, :] ** 2  # of a query at 0, whose nearest row is 0
        w = kernels._grnn_weights(exponents, sigma, np.empty_like(exponents))
        assert w.max() == 1.0
        assert not np.any((w > 0.0) & (w < np.finfo(np.float64).tiny))
        assert w.min() == pytest.approx(np.exp(kernels.GRNN_EXP_FLOOR), rel=1e-9)


# query counts at the edges of a block of `rows` query rows
BLOCK_EDGES = {"rows-1": lambda rows: rows - 1, "rows": lambda rows: rows,
               "rows+1": lambda rows: rows + 1, "2rows+3": lambda rows: 2 * rows + 3}


def holdout_size(n):
    return n - int(np.floor(0.8 * n))


class TestGrnnBlocks:
    """Predictions, and the holdout scoring of the fit, run in blocks of
    `block_rows(stored rows)` query rows: FORWARD_CHUNK for up to 900 stored
    rows, fewer beyond."""

    @staticmethod
    def full_matrix_sigma(X, y, grid):
        """The sigma of the smallest holdout MSE, scored on the whole holdout
        by the brute-force formula; the earliest wins ties."""
        n_fit = int(np.floor(0.8 * len(X)))
        mses = [float(((oracle_predict(X[n_fit:], X[:n_fit], y[:n_fit], s) - y[n_fit:]) ** 2)
                      .mean()) for s in grid]
        return grid[mses.index(min(mses))]

    def check_fit(self, n, noise, seed):
        rng = Rng(seed)
        X = rng.uniform(0, 1, (n, 2))
        y = np.sin(6.0 * X[:, 0]) * X[:, 1] + noise * rng.uniform(-1, 1, (n,))
        grid = [0.01, 0.03, 0.1, 0.3, 1.0]
        assert kernels.grnn_fit(X, y, grid).sigma == self.full_matrix_sigma(X, y, grid)

    @pytest.mark.parametrize("holdout", [3, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("noise", [0.02, 0.5])
    def test_fit_picks_the_sigma_of_full_matrix_scoring(self, holdout, noise):
        self.check_fit(next(n for n in range(5 * holdout - 5, 5 * holdout + 5)
                            if holdout_size(n) == holdout), noise, seed=holdout)

    @pytest.mark.parametrize("edge", BLOCK_EDGES)
    @pytest.mark.parametrize("noise", [0.02, 0.5])
    def test_fit_at_block_edges_picks_the_sigma_of_full_matrix_scoring(self, edge, noise):
        # about 960 and 1,360 stored rows: blocks of 240 and 169 query rows
        n = next(n for n in range(5, 10_000)
                 if holdout_size(n) == BLOCK_EDGES[edge](block_rows(n - holdout_size(n))))
        self.check_fit(n, noise, seed=n)

    @staticmethod
    def check_blocks(n_stored, n):
        X, y = random_data(40, n=n_stored, k=4)
        model = kernels.GrnnModel(stored_inputs=X, stored_targets=y, sigma=0.2)
        Q = Rng(n).uniform(0, 1, (n, 4))
        single = np.array([kernels.grnn_predict_batch(model, Q[i:i + 1])[0] for i in range(n)])
        assert np.allclose(kernels.grnn_predict_batch(model, Q), single, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
    def test_blocks_equal_single_query_calls(self, n):
        self.check_blocks(50, n)

    @pytest.mark.parametrize("edge", BLOCK_EDGES)
    def test_blocks_below_forward_chunk_equal_single_query_calls(self, edge):
        # 2,000 stored rows: blocks of 115 query rows
        self.check_blocks(2000, BLOCK_EDGES[edge](block_rows(2000)))

    def test_empty_query_matrix(self):
        X, y = random_data(41)
        model = kernels.GrnnModel(stored_inputs=X, stored_targets=y, sigma=0.2)
        assert kernels.grnn_predict_batch(model, np.zeros((0, 3))).shape == (0,)

    @pytest.mark.parametrize("n", [0, 1, B + 1])
    def test_dimension_mismatch_at_any_size(self, n):
        X, y = random_data(42)
        model = kernels.GrnnModel(stored_inputs=X, stored_targets=y, sigma=0.2)
        with pytest.raises(DimensionError):
            kernels.grnn_predict_batch(model, np.zeros((n, 4)))

    def test_working_set_does_not_grow_with_n(self):
        # all queries at once would trace four times the peak at N=4,000
        X, y = random_data(43, n=2000, k=20)
        model = kernels.GrnnModel(stored_inputs=X, stored_targets=y, sigma=0.3)
        peaks = {}
        for n in (1000, 4000):
            Q = Rng(n).uniform(0, 1, (n, 20))
            tracemalloc.start()
            try:
                kernels.grnn_predict_batch(model, Q)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4000] < 1.25 * peaks[1000]

    def test_fit_working_set_does_not_grow_with_n(self):
        # the holdout scored in FORWARD_CHUNK-row blocks of every stored row
        # would trace four times the peak at N=16,000
        peaks = {}
        for n in (4000, 16000):
            X, y = random_data(n, n=n, k=2)
            tracemalloc.start()
            try:
                kernels.grnn_fit(X, y, sigma_grid=[0.1])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16000] < 1.25 * peaks[4000]
