"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the code paths under test: streaming
updates instead of vectorized moments, explicit pairwise loops instead of
matrix products, and polynomial root finding instead of the Jacobi solver.
"""

from __future__ import annotations

import math

import numpy as np


def welford_mean_std(rows) -> tuple[np.ndarray, np.ndarray]:
    """Streaming column means and sample standard deviations."""
    rows = list(np.asarray(r, dtype=float) for r in rows)
    p = rows[0].shape[0]
    count = 0
    mean = np.zeros(p)
    m2 = np.zeros(p)
    for row in rows:
        count += 1
        delta = row - mean
        mean += delta / count
        m2 += delta * (row - mean)
    std = np.sqrt(m2 / (count - 1))
    return mean, std


def pairwise_correlation(data: np.ndarray) -> np.ndarray:
    """Correlation matrix from the raw pairwise formula, one pair at a time."""
    data = np.asarray(data, dtype=float)
    n, p = data.shape
    means = [sum(data[k, i] for k in range(n)) / n for i in range(p)]
    r = np.eye(p)
    for i in range(p):
        for j in range(i + 1, p):
            cov = sum(
                (data[k, i] - means[i]) * (data[k, j] - means[j]) for k in range(n)
            ) / (n - 1)
            var_i = sum((data[k, i] - means[i]) ** 2 for k in range(n)) / (n - 1)
            var_j = sum((data[k, j] - means[j]) ** 2 for k in range(n)) / (n - 1)
            r[i, j] = r[j, i] = cov / math.sqrt(var_i * var_j)
    return r


def cubic_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Roots of the characteristic cubic of a 3x3 matrix, sorted descending.

    Coefficients come from the trace, the principal 2x2 minors, and the
    determinant by cofactor expansion; the roots come from the companion
    matrix, a completely different algorithm from Jacobi rotations.
    """
    a = np.asarray(matrix, dtype=float)
    assert a.shape == (3, 3)
    trace = a[0, 0] + a[1, 1] + a[2, 2]
    minors = (
        a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    )
    det = (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
    # det(A - lambda I) = -lambda^3 + trace lambda^2 - minors lambda + det
    roots = np.roots([-1.0, trace, -minors, det])
    return np.sort(np.real(roots))[::-1]


def loop_euclidean_sq(x, y) -> float:
    return float(sum((a - b) ** 2 for a, b in zip(x, y)))


def fields_acceptable(fields) -> bool:
    """The record format's per-field rule, checked one field at a time.

    Fields 2-4 are tokens and must not be empty; every other field must read
    as a finite decimal >= 0. Surrounding whitespace does not count.
    """
    for position, value in enumerate(fields, start=1):
        value = value.strip()
        if position in (2, 3, 4):
            if value == "":
                return False
            continue
        try:
            number = float(value)
        except ValueError:
            return False
        if math.isnan(number) or math.isinf(number) or number < 0:
            return False
    return True
