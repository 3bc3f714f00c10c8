"""Multivariate statistics and the symmetric eigensolver behind the detector.

Standardization and correlation use the usual sample conventions (n-1
divisor). The eigensolver is a cyclic Jacobi iteration: for the <= 10
dimensional correlation matrices this package works with it is fast,
dependency free, and bit-reproducible across platforms.
"""

from __future__ import annotations

import math
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
    """The Jacobi sweep cap was reached before the residual target."""


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


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(off * off)))


def eigen_sym(
    matrix: np.ndarray, tol: float = 1e-10, max_sweeps: int = 100
) -> EigenPairs:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Iterates full sweeps until the off-diagonal Frobenius norm drops below
    ``tol``. Output is deterministic: eigenvalues descend, and each
    eigenvector is signed so its largest-magnitude component is positive.

    Raises:
        NoConvergence: the sweep cap was hit before reaching ``tol``.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")

    a = a.copy()
    p = a.shape[0]
    v = np.eye(p)

    if p > 1:
        converged = False
        for _ in range(max_sweeps):
            if _offdiag_norm(a) <= tol:
                converged = True
                break
            for i in range(p - 1):
                for j in range(i + 1, p):
                    apq = a[i, j]
                    if apq == 0.0:
                        continue
                    theta = (a[j, j] - a[i, i]) / (2.0 * apq)
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                    c = 1.0 / math.sqrt(t * t + 1.0)
                    s = t * c

                    col_i = a[:, i].copy()
                    col_j = a[:, j].copy()
                    a[:, i] = c * col_i - s * col_j
                    a[:, j] = s * col_i + c * col_j
                    row_i = a[i, :].copy()
                    row_j = a[j, :].copy()
                    a[i, :] = c * row_i - s * row_j
                    a[j, :] = s * row_i + c * row_j
                    a[i, j] = 0.0
                    a[j, i] = 0.0

                    vec_i = v[:, i].copy()
                    vec_j = v[:, j].copy()
                    v[:, i] = c * vec_i - s * vec_j
                    v[:, j] = s * vec_i + c * vec_j
        else:
            converged = _offdiag_norm(a) <= tol
        if not converged:
            raise NoConvergence(
                f"off-diagonal norm {_offdiag_norm(a):.3e} above {tol:.1e} "
                f"after {max_sweeps} sweeps"
            )

    values = np.diag(a).copy()
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = v[:, order]
    for k in range(p):
        peak = int(np.argmax(np.abs(vectors[:, k])))
        if vectors[peak, k] < 0.0:
            vectors[:, k] = -vectors[:, k]
    return EigenPairs(values, vectors)


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
