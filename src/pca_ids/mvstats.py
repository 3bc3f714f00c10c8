"""Multivariate statistics and the symmetric eigensolver behind the detector.

Standardization and correlation use the usual sample conventions (n-1
divisor). The eigensolver is LAPACK's symmetric driver through
``numpy.linalg.eigh``, with the eigenpairs put in a deterministic order
and sign. Results are reproducible for a given numpy and BLAS/LAPACK
build, not bit-identical across platforms: the correlation matrix itself
comes from a BLAS product.

numpy is imported by each function that builds or reduces arrays, not by
the module: ``_standardizer``, whose compiled function the n=1 path runs on
one record's Python floats, and ``_fold``, which ``modelio`` checks a
model's lists with, run without it.
"""

from __future__ import annotations

import math
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


def _literal(value, name: str) -> str:
    """The source text of one of a compiled function's constants: the ``repr``
    of a finite float, which reads back as the same float. A NaN or infinity
    is refused by ``name``; its ``repr`` would not even be a Python literal."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"cannot score with {name} = {number!r}: not a finite number")
    return repr(number)


def _standardizer(mean, std, degenerate):
    """The one standardization of a model, compiled once from its lists:
    ``standardize(x, zero=0.0)`` returns z_j = (x_j - mean_j) / std_j, or
    ``zero`` at a degenerate feature.

    The body unpacks ``x`` and returns one list display, with the model's
    numbers as ``repr`` literals: one IEEE subtraction and one division per
    feature. ``x`` is one record's p floats, or a block's p columns with a
    zero column as ``zero``, so a record gets the same bits alone and in any
    block. A value too large to standardize becomes inf, an attack.

    Raises:
        ValueError: a used mean or std is NaN or infinite, or the three
            lists differ in length. The function raises
            ``DimensionMismatch`` when ``x`` does not have p entries.
    """
    p = len(degenerate)
    terms = [
        "zero" if flag else f"(x{j} - {_literal(m, f'mean[{j}]')}) / {_literal(s, f'std[{j}]')}"
        for j, (m, s, flag) in enumerate(zip(mean, std, degenerate, strict=True))
    ]
    source = (
        "def standardize(x, zero=0.0):\n"
        f"    if len(x) != {p}:\n"
        f"        raise DimensionMismatch(f'expected {p} features, got {{len(x)}}')\n"
        f"    {''.join(f'x{j}, ' for j in range(p))}= x\n"
        f"    return [{', '.join(terms)}]\n"
    )
    namespace = {"DimensionMismatch": DimensionMismatch}
    exec(compile(source, "<pca_ids.mvstats._standardizer>", "exec"), namespace)
    return namespace["standardize"]


def standardized_correlation(z: np.ndarray, params: StandardizationParams) -> np.ndarray:
    """Sample correlation matrix of the data that ``params`` standardized to
    ``z``, an n x p matrix.

    The result is exactly symmetric with a unit diagonal; rows and columns
    of zero-variance features carry the identity pattern so dimensions stay
    stable. ``fit`` stacks its standardized training columns into ``z``
    once, for this; its scorer reads the columns.
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
    """Dot products in the scores' projection order: y_k = ((z_1*v_1k +
    z_2*v_2k) + ...) per column v_k, one IEEE operation per step, as
    ``detector._scorer`` writes them out per model. ``modelio.eigen_residuals``
    takes the Gram matrix of a model's eigenvectors by it.
    """
    return [reduce(add, map(mul, z, column)) for column in columns]

