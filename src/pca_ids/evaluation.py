"""Confusion matrices, per-class metrics, per-category detection counts,
and threshold sweeps. The attack class is the positive class throughout.

One tally serves every count: scores are ranked once against the sorted
distinct thresholds, and a cumulative histogram of (category, major rank,
minor rank) answers each grid point. A sweep stays columnar from there:
the flagged counts are one classes x points array, and recall, FPR and
overall success are array divisions by the class totals, computed by the
same code that serves a single report. No report object is built per
point; ``SweepResult.report(k)`` builds one on request. A sweep costs one
ranking pass plus a few microseconds per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .detector import score_records
from .kdd import ATTACK_CATEGORIES, CLASSES, AttackCategory, Dataset
from .trainer import PcaModel

if TYPE_CHECKING:
    import numpy as np


class EmptyMatrix(ValueError):
    """Metrics requested on an all-zero confusion matrix."""


class EmptyGrid(ValueError):
    """A sweep needs at least one threshold point."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with attack = positive: actual attack predicted attack is tp."""

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")


@dataclass(frozen=True)
class CategoryCount:
    exist: int
    detected: int

    @property
    def rate(self) -> float | None:
        return self.detected / self.exist if self.exist else None


def _rank(scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """How many of the sorted ``thresholds`` each score exceeds.

    numpy orders NaN after every number, so a NaN score exceeds every
    threshold but a NaN one, and a NaN threshold is exceeded by no score.
    """
    import numpy as np

    return np.searchsorted(thresholds, scores, side="left")


def _grid_tally(flat: np.ndarray, size: tuple[int, int, int], at) -> tuple[np.ndarray, np.ndarray]:
    """(exist, flagged): the records of each class, and those flagged at
    each grid point (j, l) of ``at`` as a classes x points array.

    ``flat`` holds each record's (class code, major rank, minor rank) as a
    ``ravel_multi_index`` into ``size``, the classes and the two rank axes.
    A record is flagged unless its major rank <= j and its minor rank <= l.
    """
    import numpy as np

    unflagged = np.bincount(flat, minlength=np.prod(size)).reshape(size).cumsum(1).cumsum(2)
    exist = unflagged[:, -1, -1]
    return exist, exist[:, None] - unflagged[:, at[0], at[1]]


@dataclass(frozen=True, eq=False)
class MetricsReport:
    """Per-class rates plus overall success; None marks an undefined ratio."""

    cm: ConfusionMatrix
    recall_anomaly: float | None
    fpr_anomaly: float | None
    precision_anomaly: float | None
    recall_normal: float | None
    fpr_normal: float | None
    precision_normal: float | None
    overall_success: float
    error_rate: float
    categories: dict[AttackCategory, CategoryCount] | None = None


def _ratio(num, den: int):
    """num / den, or None when den is 0; ``num`` may be an int or an int array."""
    return num / den if den else None


def _anomaly_rates(tp, fp, attacks: int, normals: int):
    """(recall, FPR, overall success) of the attack class from the attacks
    flagged (``tp``) and the normals flagged (``fp``) out of the class totals.

    The denominators are the class totals, so the same code serves one
    report's ints and a sweep's int arrays, one entry per grid point.
    """
    total = attacks + normals
    if total == 0:
        raise EmptyMatrix("confusion matrix has no observations")
    return _ratio(tp, attacks), _ratio(fp, normals), (tp + normals - fp) / total


def metrics(cm: ConfusionMatrix, categories: dict | None = None) -> MetricsReport:
    """All per-class rates for the anomaly class and, with the positive and
    negative roles swapped, the normal class. Zero-denominator ratios come
    back as None rather than NaN.
    """
    recall, fpr, success = _anomaly_rates(cm.tp, cm.fp, cm.tp + cm.fn, cm.fp + cm.tn)
    return MetricsReport(
        cm=cm,
        recall_anomaly=recall,
        fpr_anomaly=fpr,
        precision_anomaly=_ratio(cm.tp, cm.tp + cm.fp),
        recall_normal=_ratio(cm.tn, cm.tn + cm.fp),
        fpr_normal=_ratio(cm.fn, cm.fn + cm.tp),
        precision_normal=_ratio(cm.tn, cm.tn + cm.fn),
        overall_success=success,
        error_rate=1.0 - success,
        categories=categories,
    )


def evaluate(model: PcaModel, dataset: Dataset) -> MetricsReport:
    """Score a labeled dataset with the model and compute the full report."""
    return sweep(model, dataset, [(model.t_major, model.t_minor)]).report(0)


class SweepResult:
    """A sweep's counts, with the attack class's recall, FPR and overall
    success as columns of Python floats, one entry per grid point.

    A rate whose class is absent is NaN at every point. ``best`` is the
    index of the first point with the highest success; ``report(k)``
    builds the full report of point k.
    """

    def __init__(
        self, grid: Sequence[tuple[float, float | None]], exist: np.ndarray, flagged: np.ndarray
    ):
        self.grid = grid
        self.exist = exist  # records per class, numbered as in kdd.CLASSES
        self.flagged = flagged  # classes x points
        normals, *attacks = exist.tolist()
        rates = _anomaly_rates(flagged[1:].sum(0), flagged[0], sum(attacks), normals)
        self.recall, self.fpr, self.success = (
            [math.nan] * len(grid) if rate is None else rate.tolist() for rate in rates
        )
        self.best = self.success.index(max(self.success))

    def report(self, k: int) -> MetricsReport:
        """The full report of grid point k, per-category counts included;
        the UNKNOWN row appears only when such attacks are present."""
        normals, *attacks = self.exist.tolist()
        fp, *detected = self.flagged[:, k].tolist()
        tp = sum(detected)
        cm = ConfusionMatrix(tp, sum(attacks) - tp, fp, normals - fp)
        cats = ATTACK_CATEGORIES if attacks[-1] else ATTACK_CATEGORIES[:-1]
        counts = zip(cats, attacks, detected)  # stops before UNKNOWN when it is absent
        return metrics(cm, {cat: CategoryCount(n, hits) for cat, n, hits in counts})


def sweep(
    model: PcaModel,
    dataset: Dataset,
    grid: Sequence[tuple[float, float | None]],
) -> SweepResult:
    """Count the records flagged at each (t_major, t_minor) grid point.

    Reads the dataset once, scoring each block with ``score_records`` and
    ranking its records against the sorted distinct thresholds, so a
    record keeps only one index of (class code, major rank, minor rank).
    One cumulative histogram of those then gives every point's counts as
    an array, and the rates are array divisions. No per-point report is
    built until ``report(k)`` asks for one.
    """
    import numpy as np

    if not grid:
        raise EmptyGrid("threshold grid is empty")
    t_major = np.array([tm for tm, _ in grid], dtype=float)
    # a NaN threshold flags nothing: the minor test when it is not in play
    t_minor = np.array([np.nan if tmm is None or not model.r else tmm for _, tmm in grid])
    # return_inverse also keeps np.unique off a check whose first call imports numpy.ma
    u_major, at_major = np.unique(t_major, return_inverse=True)
    u_minor, at_minor = np.unique(t_minor, return_inverse=True)
    size = (len(CLASSES), len(u_major) + 1, len(u_minor) + 1)
    # One growing buffer, as in kdd.encode_normals: joining a list of block
    # arrays would hold every index twice.
    flat = bytearray()
    for records, codes in dataset:
        majc, minc, _ = score_records(model, records)
        ranks = (np.array(codes, np.intp), _rank(majc, u_major), _rank(minc, u_minor))
        flat += np.ravel_multi_index(ranks, size).tobytes()
    tally = _grid_tally(np.frombuffer(flat, dtype=np.intp), size, (at_major, at_minor))
    return SweepResult(grid, *tally)


def _fmt(rate: float | None, digits: int = 4) -> str:
    return "undefined" if rate is None else f"{rate:.{digits}f}"


def format_text_report(report: MetricsReport, heading: str | None = None) -> str:
    """Aligned text tables: confusion matrix, category counts, per-class rates."""
    cm = report.cm
    lines: list[str] = []
    if heading:
        lines += [heading, ""]
    lines += [
        "confusion matrix (rows: actual, columns: predicted)",
        f"{'':>10}{'attack':>10}{'normal':>10}",
        f"{'attack':>10}{cm.tp:>10}{cm.fn:>10}",
        f"{'normal':>10}{cm.fp:>10}{cm.tn:>10}",
        "",
    ]
    if report.categories:
        lines.append("per-category detection")
        lines.append(f"{'category':>10}{'exist':>10}{'detected':>10}{'rate':>12}")
        for cat, count in report.categories.items():
            lines.append(
                f"{cat.value:>10}{count.exist:>10}{count.detected:>10}"
                f"{_fmt(count.rate):>12}"
            )
        lines.append("")
    lines += [
        "metrics",
        f"{'':>18}{'normal class':>16}{'anomaly class':>16}",
        f"{'recall / TPR':>18}{_fmt(report.recall_normal):>16}"
        f"{_fmt(report.recall_anomaly):>16}",
        f"{'FPR':>18}{_fmt(report.fpr_normal):>16}{_fmt(report.fpr_anomaly):>16}",
        f"{'precision':>18}{_fmt(report.precision_normal):>16}"
        f"{_fmt(report.precision_anomaly):>16}",
        f"{'overall success':>18}{_fmt(report.overall_success):>16}",
        f"{'error':>18}{_fmt(report.error_rate):>16}",
    ]
    return "\n".join(lines)


def machine_report(report: MetricsReport) -> dict:
    """Machine-readable report with full-precision rates."""
    doc = {
        "tp": report.cm.tp,
        "fn": report.cm.fn,
        "fp": report.cm.fp,
        "tn": report.cm.tn,
        "recall_anomaly": report.recall_anomaly,
        "fpr_anomaly": report.fpr_anomaly,
        "precision_anomaly": report.precision_anomaly,
        "recall_normal": report.recall_normal,
        "fpr_normal": report.fpr_normal,
        "precision_normal": report.precision_normal,
        "overall_success": report.overall_success,
        "error_rate": report.error_rate,
    }
    if report.categories is not None:
        doc["categories"] = [
            {"category": cat.value, "exist": count.exist, "detected": count.detected}
            for cat, count in report.categories.items()
        ]
    return doc
