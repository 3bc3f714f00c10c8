"""Multivariate statistics and the symmetric eigensolver behind the detector.

Standardization and correlation use the usual sample conventions (n-1
divisor). The eigensolver is LAPACK's symmetric driver through
``numpy.linalg.eigh``, with the eigenpairs put in a deterministic order
and sign. Results are reproducible for a given numpy and BLAS/LAPACK
build, not bit-identical across platforms: the correlation matrix itself
comes from a BLAS product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Eigenvalues are clipped here before any division; near-singular
# correlation matrices (perfectly correlated features) otherwise blow up
# the component scores.
EIGENVALUE_FLOOR = 1e-12

# A column counts as constant when its sample std is this small relative
# to the magnitude of its mean.
_DEGENERATE_REL_TOL = 1e-12


class DimensionMismatch(ValueError):
    """Vector or matrix shapes do not line up."""


class TooFewRows(ValueError):
    """At least two observations are needed for sample statistics."""


class NoConvergence(RuntimeError):
    """The eigensolver failed, or its input holds NaN or infinity."""


@dataclass(frozen=True, eq=False)
class StandardizationParams:
    """Per-feature sample mean and standard deviation."""

    mean: np.ndarray
    std: np.ndarray
    degenerate: np.ndarray  # bool mask of zero-variance features

    @property
    def p(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def safe_std(self) -> np.ndarray:
        """The std with degenerate features set to 1, safe to divide by."""
        return np.where(self.degenerate, 1.0, self.std)

    @cached_property
    def any_degenerate(self) -> bool:
        return bool(self.degenerate.any())


def fit_standardizer(data: np.ndarray) -> StandardizationParams:
    """Column means and sample (n-1) standard deviations of an n x p matrix."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatch(f"expected an n x p matrix, got shape {data.shape}")
    if data.shape[0] < 2:
        raise TooFewRows(f"need at least 2 rows, got {data.shape[0]}")
    mean = data.mean(axis=0)
    std = data.std(axis=0, ddof=1)
    degenerate = std <= _DEGENERATE_REL_TOL * (1.0 + np.abs(mean))
    return StandardizationParams(mean, std, degenerate)


def standardize(x: np.ndarray, params: StandardizationParams) -> np.ndarray:
    """Center and scale by the fitted parameters; degenerate features map to 0.

    Accepts a single p-vector or an n x p matrix.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != params.p:
        raise DimensionMismatch(
            f"expected {params.p} features, got {x.shape[-1]}"
        )
    z = (x - params.mean) / params.safe_std
    return np.where(params.degenerate, 0.0, z) if params.any_degenerate else z


def correlation_matrix(
    data: np.ndarray, params: StandardizationParams | None = None
) -> np.ndarray:
    """Sample correlation matrix of an n x p data matrix.

    The result is exactly symmetric with a unit diagonal; rows and columns
    of zero-variance features carry the identity pattern so dimensions stay
    stable.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatch(f"expected an n x p matrix, got shape {data.shape}")
    n = data.shape[0]
    if n < 2:
        raise TooFewRows(f"need at least 2 rows, got {n}")
    if params is None:
        params = fit_standardizer(data)

    z = standardize(data, params)
    r = (z.T @ z) / (n - 1)
    r = 0.5 * (r + r.T)
    np.clip(r, -1.0, 1.0, out=r)
    if params.any_degenerate:
        r[params.degenerate, :] = 0.0
        r[:, params.degenerate] = 0.0
    np.fill_diagonal(r, 1.0)
    return r


@dataclass(frozen=True, eq=False)
class EigenPairs:
    """Eigenvalues sorted descending with matching unit eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray  # column i pairs with values[i]

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @cached_property
    def floored_values(self) -> np.ndarray:
        """The eigenvalues raised to EIGENVALUE_FLOOR, the score divisors."""
        return floor_eigenvalues(self.values)


def floor_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Eigenvalues clipped from below at EIGENVALUE_FLOOR."""
    return np.maximum(np.asarray(values, dtype=float), EIGENVALUE_FLOOR)


def eigen_sym(matrix: np.ndarray) -> EigenPairs:
    """Eigendecomposition of a symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    Output is deterministic for a given input and numpy build: eigenvalues
    descend (ties keep LAPACK's order), and each eigenvector is signed so
    its largest-magnitude component is positive.

    Raises:
        DimensionMismatch: the matrix is not square.
        ValueError: the matrix is not symmetric.
        NoConvergence: the matrix holds NaN or infinity, or LAPACK failed.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    # The max is NaN or infinite exactly when an entry is; eigh would
    # return NaN pairs for such input instead of failing.
    peak = np.abs(a).max()
    if not np.isfinite(peak):
        raise NoConvergence("matrix holds NaN or infinite values")
    if np.abs(a - a.T).max() > 1e-12 * max(1.0, peak):
        raise ValueError("matrix is not symmetric")

    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise NoConvergence(f"eigendecomposition failed: {err}") from err
    order = np.argsort(-values, kind="stable")
    vectors = vectors[:, order]
    peaks = np.abs(vectors).argmax(axis=0)
    # a unit vector's largest-magnitude entry is never 0
    vectors *= np.sign(vectors[peaks, np.arange(a.shape[0])])
    return EigenPairs(values[order], vectors)


def euclidean_sq(x: np.ndarray, y: np.ndarray) -> float:
    """Squared straight-line distance between two equal-length vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shapes differ: {x.shape} vs {y.shape}")
    d = x - y
    return float(d @ d)


def mahalanobis_sq(x: np.ndarray, mean: np.ndarray, s_inv: np.ndarray) -> float:
    """Covariance-weighted squared distance (x-mean)' S_inv (x-mean)."""
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    s_inv = np.asarray(s_inv, dtype=float)
    if x.shape != mean.shape:
        raise DimensionMismatch(f"shapes differ: {x.shape} vs {mean.shape}")
    if s_inv.shape != (x.shape[0], x.shape[0]):
        raise DimensionMismatch(
            f"weight matrix shape {s_inv.shape} does not match vector length {x.shape[0]}"
        )
    d = x - mean
    return float(d @ s_inv @ d)


def project(z: np.ndarray, pairs: EigenPairs) -> np.ndarray:
    """Principal-component scores of standardized observations.

    Returns e_i . z per component, in descending-eigenvalue order. Accepts
    a single p-vector or an n x p matrix. The product avoids BLAS, whose
    rounding depends on the matrix shape, so each row of a matrix projects
    bit-identically to the same row on its own.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != pairs.p:
        raise DimensionMismatch(f"expected {pairs.p} features, got {z.shape[-1]}")
    return np.einsum("...j,jk->...k", z, pairs.vectors)
