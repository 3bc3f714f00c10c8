"""Confusion matrices, per-class metrics, per-category detection counts,
and threshold sweeps. The attack class is the positive class throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .detector import over_thresholds, score_records
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


def _attack_mask(items: Sequence) -> np.ndarray:
    return np.fromiter((_is_attack(item) for item in items), dtype=bool, count=len(items))


def _category_masks(labels: Sequence[Label]) -> dict[AttackCategory, np.ndarray]:
    return {
        cat: np.fromiter((lab.category is cat for lab in labels), dtype=bool, count=len(labels))
        for cat in ATTACK_CATEGORIES
    }


def _tally(
    pred: np.ndarray,
    actual: np.ndarray,
    category_masks: dict[AttackCategory, np.ndarray],
) -> tuple[ConfusionMatrix, dict[AttackCategory, CategoryCount]]:
    """Confusion counts, and (exist, detected) per category, of an attack mask."""
    tp = int(np.count_nonzero(pred & actual))
    n_attack = int(np.count_nonzero(actual))
    n_flagged = int(np.count_nonzero(pred))
    cm = ConfusionMatrix(tp, n_attack - tp, n_flagged - tp, len(pred) - n_attack - n_flagged + tp)
    categories = {
        cat: CategoryCount(int(np.count_nonzero(mask)), int(np.count_nonzero(pred & mask)))
        for cat, mask in category_masks.items()
        if cat is not AttackCategory.UNKNOWN or mask.any()
    }
    return cm, categories


def _check_lengths(predictions: Sequence, labels: Sequence) -> None:
    if len(predictions) != len(labels):
        raise LengthMismatch(
            f"{len(predictions)} predictions vs {len(labels)} labels"
        )


def confusion(predictions: Sequence, labels: Sequence) -> ConfusionMatrix:
    """Tally predictions against ground truth.

    Both sequences may hold Verdict/Label objects or plain booleans; any
    object with an is_attack attribute works.
    """
    _check_lengths(predictions, labels)
    return _tally(_attack_mask(predictions), _attack_mask(labels), {})[0]


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


def metrics(cm: ConfusionMatrix) -> MetricsReport:
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
    )


def per_category(predictions: Sequence, labels: Sequence[Label]) -> dict:
    """(exist, detected-as-attack) per attack category.

    DOS/PROBE/R2L/U2R rows are always present; UNKNOWN appears only when
    attacks outside the standard taxonomy occur.
    """
    _check_lengths(predictions, labels)
    return _tally(_attack_mask(predictions), _attack_mask(labels), _category_masks(labels))[1]


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

    Records are scored exactly once; each grid point only re-applies the
    thresholds, so dense grids stay cheap.
    """
    if not grid:
        raise EmptyGrid("threshold grid is empty")
    majc, minc, _ = score_records(model, dataset.records)
    actual = _attack_mask(dataset.labels)
    category_masks = _category_masks(dataset.labels)

    points: list[SweepPoint] = []
    for t_major, t_minor in grid:
        over_major, over_minor = over_thresholds(majc, minc, t_major, t_minor, model.r)
        cm, categories = _tally(over_major | over_minor, actual, category_masks)
        report = replace(metrics(cm), categories=categories)
        points.append(SweepPoint(float(t_major), t_minor, report))

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
