"""Standardization, correlation, distances, projection, and the eigensolver."""

import dataclasses
import math

import numpy as np
import pytest

from pca_ids.kdd import BASIC6, encode_normals
from pca_ids.mvstats import (
    DimensionMismatch,
    NoConvergence,
    TooFewRows,
    eigen_sym,
    fit_standardizer,
)

from .conftest import compiled_standardize, correlation_of
from .oracles import mahalanobis_sq, pairwise_correlation, welford_mean_std


class TestStandardizer:
    def test_hand_computed_example(self):
        params = fit_standardizer(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert params.mean.tolist() == [1.0, 1.0]
        assert np.allclose(params.std, np.sqrt(2.0))
        assert not params.degenerate.any()

    def test_constant_column_flagged_degenerate(self):
        params = fit_standardizer(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        assert params.degenerate.tolist() == [True, False]

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            fit_standardizer(np.ones((1, 3)))

    def test_matches_streaming_oracle(self):
        rng = np.random.default_rng(11)
        data = rng.lognormal(mean=2.0, sigma=1.0, size=(200, 5))
        params = fit_standardizer(data)
        mean, std = welford_mean_std(data)
        assert np.allclose(params.mean, mean, rtol=1e-12)
        assert np.allclose(params.std, std, rtol=1e-12)

    def test_kdd_normal_means_match_streaming_oracle(self, kdd_dataset):
        X, _ = encode_normals(kdd_dataset, BASIC6)
        params = fit_standardizer(X)
        mean, std = welford_mean_std(X)
        assert np.allclose(params.mean, mean, rtol=1e-10)
        assert np.allclose(params.std, std, rtol=1e-10)


def standardized(x, params) -> np.ndarray:
    """The standardize compiled from ``params``, on a p-vector as Python
    floats, or on an n x p matrix by its numpy columns, restacked."""
    standardize = compiled_standardize(params)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.array(standardize(x.tolist()))
    return np.column_stack(standardize(x.T, np.zeros(len(x))))


def forms(x):
    """A p-vector alone, and as each row of a 3-row block."""
    x = np.asarray(x, dtype=float)
    return x, np.tile(x, (3, 1))


class TestStandardize:
    """The compiled ``_standardizer`` on one record's floats and on a block's
    columns."""

    @pytest.fixture()
    def params(self):
        rng = np.random.default_rng(3)
        return fit_standardizer(rng.normal(size=(50, 4)))

    def test_mean_maps_to_zero(self, params):
        for x in forms(params.mean):
            assert np.allclose(standardized(x, params), 0.0)

    def test_mean_plus_std_maps_to_ones(self, params):
        for x in forms(params.mean + params.std):
            assert np.allclose(standardized(x, params), 1.0)

    def test_degenerate_feature_maps_to_zero(self):
        data = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]])
        params = fit_standardizer(data)
        for x in forms([123.0, 2.0]):
            assert np.all(standardized(x, params)[..., 0] == 0.0)

    @pytest.mark.parametrize("shape", [(3,), (7, 3)])
    def test_bit_identical_to_the_formula(self, shape):
        # (x - mean) / std, with 0 at degenerate features, rounded once per entry
        rng = np.random.default_rng(11)
        data = rng.normal(size=(20, 3)) * [1.0, 0.0, 1e3]
        params = fit_standardizer(data)
        x = rng.normal(size=shape) * 1e4
        safe_std = np.where(params.degenerate, 1.0, params.std)
        expected = np.where(params.degenerate, 0.0, (x - params.mean) / safe_std)
        assert standardized(x, params).tobytes() == expected.tobytes()

    def test_dimension_mismatch(self, params):
        for x in forms(np.zeros(5)):
            with pytest.raises(DimensionMismatch, match="^expected 4 features, got 5$"):
                standardized(x, params)

    @pytest.mark.parametrize("field", ["mean", "std"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("model_name", ["basic6_model", "traffic10_model"])
    def test_non_finite_constant_refused_by_name(self, request, model_name, field, value):
        model = request.getfixturevalue(model_name)
        numbers = list(getattr(model, field))
        numbers[3] = value
        damaged = dataclasses.replace(model, **{field: numbers})
        with pytest.raises(ValueError, match=rf"^cannot score with {field}\[3\] = "):
            damaged.standardize

    def test_largest_profile_equals_numpy_bitwise(self):
        # p = 41, every field of a record, compiles; one feature degenerate
        p = 41
        rng = np.random.default_rng(41)
        data = rng.normal(size=(30, p)) * rng.uniform(1e-3, 1e6, size=p)
        data[:, 17] = 2.5
        params = fit_standardizer(data)
        assert params.degenerate.tolist() == [j == 17 for j in range(p)]
        x = rng.normal(size=(9, p)) * 1e5
        safe_std = np.where(params.degenerate, 1.0, params.std)
        expected = np.where(params.degenerate, 0.0, (x - params.mean) / safe_std)
        assert standardized(x, params).tobytes() == expected.tobytes()
        for row, want in zip(x, expected):
            assert standardized(row, params).tobytes() == want.tobytes()


class TestCorrelation:
    def test_perfectly_correlated_columns(self):
        x = np.arange(10.0)
        data = np.column_stack([x, 2.0 * x])
        r = correlation_of(data)
        assert r[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert r[0, 0] == 1.0

    def test_orthogonal_patterns_uncorrelated(self):
        data = np.array(
            [[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]
        )
        r = correlation_of(data)
        assert r[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(50, 4)) @ rng.normal(size=(4, 4))
        r = correlation_of(data)
        expected = pairwise_correlation(data)
        assert np.max(np.abs(r - expected)) < 1e-12

    def test_exactly_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(23)
        r = correlation_of(rng.normal(size=(80, 6)))
        assert np.array_equal(r, r.T)
        assert np.all(np.diag(r) == 1.0)
        assert np.all(np.abs(r) <= 1.0)

    def test_degenerate_feature_gets_identity_pattern(self):
        data = np.column_stack([np.full(20, 3.0), np.arange(20.0), np.arange(20.0) ** 2])
        r = correlation_of(data)
        assert r[0, 0] == 1.0
        assert np.all(r[0, 1:] == 0.0)
        assert np.all(r[1:, 0] == 0.0)


class TestEigenSym:
    def test_identity_matrix(self):
        pairs = eigen_sym(np.eye(4))
        assert pairs.values.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_two_by_two_closed_form(self):
        pairs = eigen_sym(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert np.allclose(pairs.values, [1.5, 0.5], atol=1e-12)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert np.allclose(pairs.vectors[:, 0], [inv_sqrt2, inv_sqrt2], atol=1e-12)
        assert np.allclose(pairs.vectors[:, 1], [inv_sqrt2, -inv_sqrt2], atol=1e-12)

    def test_random_symmetric_residuals(self):
        rng = np.random.default_rng(31)
        base = rng.normal(size=(6, 6))
        a = 0.5 * (base + base.T)
        pairs = eigen_sym(a)
        for k in range(6):
            residual = a @ pairs.vectors[:, k] - pairs.values[k] * pairs.vectors[:, k]
            assert np.max(np.abs(residual)) < 1e-9
        gram = pairs.vectors.T @ pairs.vectors
        assert np.max(np.abs(gram - np.eye(6))) < 1e-9
        assert np.all(np.diff(pairs.values) <= 0)

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(37)
        base = rng.normal(size=(5, 5))
        a = 0.5 * (base + base.T)
        pairs = eigen_sym(a)
        for k in range(5):
            peak = np.argmax(np.abs(pairs.vectors[:, k]))
            assert pairs.vectors[peak, k] > 0

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            eigen_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        # LAPACK returns NaN eigenpairs for such input instead of failing
        a = np.eye(3)
        a[0, 1] = a[1, 0] = bad
        with pytest.raises(NoConvergence):
            eigen_sym(a)


class TestDistances:
    """The Mahalanobis oracle that the full-score identity tests compare against."""

    def test_mahalanobis_identity_weight_reduces_to_euclidean(self):
        rng = np.random.default_rng(47)
        x, mean = rng.normal(size=(2, 5))
        euclidean = sum((a - b) ** 2 for a, b in zip(x, mean))
        assert mahalanobis_sq(x, mean, np.eye(5)) == pytest.approx(euclidean, rel=1e-12)

    def test_mahalanobis_zero_at_mean(self):
        mean = np.arange(4.0)
        s_inv = np.diag([1.0, 2.0, 3.0, 4.0])
        assert mahalanobis_sq(mean, mean, s_inv) == 0.0

    def test_mahalanobis_matches_eigen_route(self):
        # spectral-decomposition cross-check: x' S^-1 x == sum y_i^2 / lambda_i
        rng = np.random.default_rng(53)
        base = rng.normal(size=(40, 5))
        s = np.cov(base, rowvar=False, ddof=1)
        x = rng.normal(size=5)
        mean = np.zeros(5)
        direct = mahalanobis_sq(x, mean, np.linalg.inv(s))
        pairs = eigen_sym(s)
        y = x @ pairs.vectors
        via_eigen = float(np.sum(y * y / pairs.values))
        assert direct == pytest.approx(via_eigen, rel=1e-8)


class TestProject:
    """Training data projected onto the eigenvectors by numpy's ``@``."""

    def test_score_variances_ordered_like_eigenvalues(self):
        rng = np.random.default_rng(97)
        data = rng.normal(size=(300, 5)) @ rng.normal(size=(5, 5))
        params = fit_standardizer(data)
        pairs = eigen_sym(correlation_of(data, params))
        scores = ((data - params.mean) / params.std) @ pairs.vectors
        variances = np.var(scores, axis=0, ddof=1)
        assert np.array_equal(np.argsort(-variances), np.arange(5))
