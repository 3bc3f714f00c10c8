"""Confusion matrices, per-class metrics, per-category detection counts,
and threshold sweeps. The attack class is the positive class throughout.

One tally serves every count: scores are ranked once against the sorted
distinct thresholds, and a cumulative histogram of (class, major rank,
minor rank) answers each grid point, so a sweep costs one ranking pass
plus O(grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detector import score_records
from .kdd import ATTACK_CATEGORIES, AttackCategory, Dataset, Label
from .trainer import PcaModel


class LengthMismatch(ValueError):
    """Prediction and label sequences differ in length."""


class EmptyMatrix(ValueError):
    """Metrics requested on an all-zero confusion matrix."""


class EmptyGrid(ValueError):
    """A sweep needs at least one threshold point."""


def _is_attack(item) -> bool:
    return bool(getattr(item, "is_attack", item))


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

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tp + other.tp,
            self.fn + other.fn,
            self.fp + other.fp,
            self.tn + other.tn,
        )


@dataclass(frozen=True)
class CategoryCount:
    exist: int
    detected: int

    @property
    def rate(self) -> float | None:
        return self.detected / self.exist if self.exist else None


def _rank(scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """How many of the sorted ``thresholds`` each score exceeds; NaN exceeds none."""
    k = np.searchsorted(thresholds, scores, side="left")
    return np.where(np.isnan(scores), 0, k)


def _grid_counts(labels: Sequence, k_major, k_minor, shape: tuple[int, int], at) -> tuple:
    """Categories, group totals and flagged counts per grid point (j, l) of ``at``.

    Groups: attacks, all records, then each category (UNKNOWN only when
    present). ``k_major``/``k_minor`` are the records' ranks, each below its
    axis length in ``shape``; a record is flagged unless k_major <= j and
    k_minor <= l.
    """
    items = list(labels)  # holds every item, so no two share an id
    ids = np.fromiter(map(id, items), dtype=np.uint64, count=len(items))
    _, first, codes = np.unique(ids, return_index=True, return_inverse=True)
    index: dict = {}  # (is_attack, category) -> class
    keys = [(_is_attack(items[i]), getattr(items[i], "category", None)) for i in first]
    codes = np.array([index.setdefault(key, len(index)) for key in keys], dtype=np.intp)[codes]
    size = (len(index), *shape)
    flat = np.ravel_multi_index((codes, k_major, k_minor), size)
    cells = np.bincount(flat, minlength=np.prod(size))
    unflagged = cells.reshape(size).cumsum(axis=1).cumsum(axis=2)
    totals = unflagged[:, -1, -1]
    present = {category for _, category in index}
    cats = [cat for cat in ATTACK_CATEGORIES if cat in present or cat is not AttackCategory.UNKNOWN]
    groups = [[attack for attack, _ in index], [True] * len(index)]
    member = np.array(groups + [[c is cat for _, c in index] for cat in cats], dtype=np.int64)
    flagged = member @ (totals[:, None] - unflagged[:, at[0], at[1]])
    return cats, (member @ totals).tolist(), flagged.tolist()


def _grid_tally(*args) -> list[tuple[ConfusionMatrix, dict[AttackCategory, CategoryCount]]]:
    """(ConfusionMatrix, categories) at each grid point; arguments as ``_grid_counts``."""
    cats, (n_attack, n, *exist), columns = _grid_counts(*args)
    tallies = []
    for tp, n_flagged, *detected in zip(*columns):
        cm = ConfusionMatrix(tp, n_attack - tp, n_flagged - tp, n - n_attack - n_flagged + tp)
        counts = zip(cats, exist, detected)
        tallies.append((cm, {cat: CategoryCount(count, hits) for cat, count, hits in counts}))
    return tallies


def _tally_predictions(predictions: Sequence, labels: Sequence) -> tuple:
    """The tally of attack predictions: the 1 x 1 grid with k = pred."""
    if len(predictions) != len(labels):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(labels)} labels")
    k = np.fromiter(map(_is_attack, predictions), dtype=np.intp, count=len(predictions))
    return _grid_tally(labels, k, np.zeros_like(k), (2, 1), ([0], [0]))[0]


def confusion(predictions: Sequence, labels: Sequence) -> ConfusionMatrix:
    """Tally predictions against ground truth.

    Both sequences may hold Verdict/Label objects or plain booleans; any
    object with an is_attack attribute works.
    """
    return _tally_predictions(predictions, labels)[0]


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


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def metrics(cm: ConfusionMatrix, categories: dict | None = None) -> MetricsReport:
    """All per-class rates for the anomaly class and, with the positive and
    negative roles swapped, the normal class. Zero-denominator ratios come
    back as None rather than NaN.
    """
    if cm.total == 0:
        raise EmptyMatrix("confusion matrix has no observations")
    success = (cm.tp + cm.tn) / cm.total
    return MetricsReport(
        cm=cm,
        recall_anomaly=_ratio(cm.tp, cm.tp + cm.fn),
        fpr_anomaly=_ratio(cm.fp, cm.fp + cm.tn),
        precision_anomaly=_ratio(cm.tp, cm.tp + cm.fp),
        recall_normal=_ratio(cm.tn, cm.tn + cm.fp),
        fpr_normal=_ratio(cm.fn, cm.fn + cm.tp),
        precision_normal=_ratio(cm.tn, cm.tn + cm.fn),
        overall_success=success,
        error_rate=1.0 - success,
        categories=categories,
    )


def per_category(predictions: Sequence, labels: Sequence[Label]) -> dict:
    """(exist, detected-as-attack) per attack category.

    DOS/PROBE/R2L/U2R rows are always present; UNKNOWN appears only when
    attacks outside the standard taxonomy occur.
    """
    return _tally_predictions(predictions, labels)[1]


def evaluate(model: PcaModel, dataset: Dataset) -> MetricsReport:
    """Score a labeled dataset with the model and compute the full report."""
    return sweep(model, dataset, [(model.t_major, model.t_minor)]).points[0].report


@dataclass(frozen=True, eq=False)
class SweepPoint:
    t_major: float
    t_minor: float | None
    report: MetricsReport


@dataclass(frozen=True, eq=False)
class SweepResult:
    points: list[SweepPoint]
    best: SweepPoint  # highest overall success; first on ties


def sweep(
    model: PcaModel,
    dataset: Dataset,
    grid: Sequence[tuple[float, float | None]],
) -> SweepResult:
    """Evaluate one metrics report per (t_major, t_minor) grid point.

    Records are scored once and ranked once against the sorted distinct
    thresholds; each point is then a lookup in one cumulative histogram of
    the ranks, so a sweep costs one ranking pass plus O(grid).
    """
    if not grid:
        raise EmptyGrid("threshold grid is empty")
    majc, minc, _ = score_records(model, dataset.records)
    t_major = np.array([tm for tm, _ in grid], dtype=float)
    # no score exceeds NaN, just as none exceeds a minor threshold not in play
    t_minor = np.array([np.nan if tmm is None or not model.r else tmm for _, tmm in grid])
    # return_inverse also keeps np.unique off a check whose first call imports numpy.ma
    u_major, at_major = np.unique(t_major, return_inverse=True)
    u_minor, at_minor = np.unique(t_minor, return_inverse=True)
    shape = (len(u_major) + 1, len(u_minor) + 1)
    ranks = (_rank(majc, u_major), _rank(minc, u_minor))
    tallies = _grid_tally(dataset.labels, *ranks, shape, (at_major, at_minor))
    points = [
        SweepPoint(float(tm), tmm, metrics(cm, categories))
        for (tm, tmm), (cm, categories) in zip(grid, tallies)
    ]
    best = max(points, key=lambda pt: pt.report.overall_success)
    return SweepResult(points, best)


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
