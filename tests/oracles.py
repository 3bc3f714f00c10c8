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


def mahalanobis_sq(x, mean, s_inv) -> float:
    """Covariance-weighted squared distance (x-mean)' S_inv (x-mean)."""
    d = np.asarray(x, dtype=float) - np.asarray(mean, dtype=float)
    return float(d @ s_inv @ d)


def loop_scores(x, mean, std, degenerate, vectors, values, q: int, r: int):
    """(major, minor) scores of one encoded record, spelled out as loops.

    The program's stated order: z_j = (x_j - mean_j) / std_j, or 0.0 at a
    degenerate position; y_k = z_1*v_1k, then + z_j*v_jk for j = 2..p; each
    score starts at 0.0 and adds y_k*y_k / max(lambda_k, 1e-12) over its
    components in order, the first q for major and the last r for minor.
    All arguments are Python floats, bools and lists (``vectors[j][k]``).
    """
    p = len(x)
    z = [0.0 if degenerate[j] else (x[j] - mean[j]) / std[j] for j in range(p)]

    def score(components):
        total = 0.0
        for k in components:
            y = z[0] * vectors[0][k]
            for j in range(1, p):
                y = y + z[j] * vectors[j][k]
            total = total + y * y / max(values[k], 1e-12)
        return total

    return score(range(q)), score(range(p - r, p))


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


def loop_sweep_counts(majc, minc, labels, grid, r: int) -> list:
    """Per grid point, ((tp, fn, fp, tn), {category name: (exist, detected)}).

    One explicit pass over the records per point. A record is flagged when
    its major score exceeds t_major, or when r > 0, t_minor is not None and
    its minor score exceeds t_minor. A score s exceeds a threshold t when
    s > t, or when s is NaN and t is not. The DOS/PROBE/R2L/U2R rows are
    always there; any other attack category only when it occurs.
    """

    def exceeds(s, t):
        return s > t or (math.isnan(s) and not math.isnan(t))

    results = []
    for t_major, t_minor in grid:
        tp = fn = fp = tn = 0
        categories = {name: [0, 0] for name in ("DOS", "PROBE", "R2L", "U2R")}
        for s_major, s_minor, label in zip(majc, minc, labels):
            flagged = exceeds(s_major, t_major) or (
                r > 0 and t_minor is not None and exceeds(s_minor, t_minor)
            )
            if label.is_attack:
                tp, fn = (tp + 1, fn) if flagged else (tp, fn + 1)
                row = categories.setdefault(label.value, [0, 0])
                row[0] += 1
                row[1] += int(flagged)
            else:
                fp, tn = (fp + 1, tn) if flagged else (fp, tn + 1)
        results.append(((tp, fn, fp, tn), {k: tuple(v) for k, v in categories.items()}))
    return results
