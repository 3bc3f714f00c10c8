"""Multivariate statistics and the symmetric eigensolver behind the detector.

Standardization and correlation use the usual sample conventions (n-1
divisor). The eigensolver is LAPACK's symmetric driver through
``numpy.linalg.eigh``, with the eigenpairs put in a deterministic order
and sign. Results are reproducible for a given numpy and BLAS/LAPACK
build, not bit-identical across platforms: the correlation matrix itself
comes from a BLAS product.

numpy is imported by each function that builds or reduces arrays, not by
the module: the n=1 path, which standardizes and projects one record's
Python floats by ``_standardize`` and ``_fold``, runs without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
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


def fit_standardizer(data: np.ndarray) -> StandardizationParams:
    """Column means and sample (n-1) standard deviations of an n x p matrix."""
    import numpy as np

    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatch(f"expected an n x p matrix, got shape {data.shape}")
    if data.shape[0] < 2:
        raise TooFewRows(f"need at least 2 rows, got {data.shape[0]}")
    # A sum or a square too large for a float gives inf, for the caller to refuse.
    with np.errstate(over="ignore"):
        mean = data.mean(axis=0)
        std = data.std(axis=0, ddof=1)
    degenerate = std <= _DEGENERATE_REL_TOL * (1.0 + np.abs(mean))
    return StandardizationParams(mean, std, degenerate)


def _standardize(x, params, zero=0.0) -> list:
    """The one standardization: z_j = (x_j - mean_j) / std_j, or ``zero`` at a
    degenerate feature, by the ``mean``, ``std`` and ``degenerate`` of
    ``params``, a ``StandardizationParams`` or a ``PcaModel``. ``x`` is one
    record's p floats, or a block's p columns with a zero column as ``zero``:
    one IEEE division each, so a record gets the same bits alone and in any
    block. A value too large to standardize becomes inf, an attack.
    """
    if len(x) != len(params.degenerate):
        raise DimensionMismatch(f"expected {len(params.degenerate)} features, got {len(x)}")
    return [
        zero if flag else (v - m) / s
        for v, m, s, flag in zip(x, params.mean, params.std, params.degenerate)
    ]


def correlation_matrix(
    data: np.ndarray, params: StandardizationParams | None = None
) -> np.ndarray:
    """Sample correlation matrix of an n x p data matrix.

    The result is exactly symmetric with a unit diagonal; rows and columns
    of zero-variance features carry the identity pattern so dimensions stay
    stable.
    """
    import numpy as np

    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatch(f"expected an n x p matrix, got shape {data.shape}")
    if params is None:
        params = fit_standardizer(data)
    with np.errstate(over="ignore"):
        columns = _standardize(data.T, params, np.zeros(len(data)))
    return standardized_correlation(np.column_stack(columns), params)


def standardized_correlation(z: np.ndarray, params: StandardizationParams) -> np.ndarray:
    """``correlation_matrix`` of the data that ``params`` standardized to ``z``.

    ``fit`` stacks its standardized training columns into ``z`` once, for
    this; the projection reads the columns.
    """
    import numpy as np

    n = z.shape[0]
    if n < 2:
        raise TooFewRows(f"need at least 2 rows, got {n}")
    r = (z.T @ z) / (n - 1)
    r = 0.5 * (r + r.T)
    np.clip(r, -1.0, 1.0, out=r)
    r[params.degenerate, :] = 0.0
    r[:, params.degenerate] = 0.0
    np.fill_diagonal(r, 1.0)
    return r


@dataclass(frozen=True, eq=False)
class EigenPairs:
    """Eigenvalues sorted descending with matching unit eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray  # column i pairs with values[i]


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
    import numpy as np

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


def _fold(z, columns) -> list:
    """The one projection order: y_k = ((z_1*v_1k + z_2*v_2k) + ...) per column v_k.

    ``z`` is one record's p standardized floats, or a block's p numpy
    columns. Each step is one IEEE operation, so a record projects to the
    same bits alone and in any block, on any numpy and any Python.
    """
    return [reduce(add, map(mul, z, column)) for column in columns]

