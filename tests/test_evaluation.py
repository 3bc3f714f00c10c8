"""Confusion tallies, per-class metrics, category tables, and sweeps."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pca_ids import evaluation
from pca_ids.evaluation import (
    ConfusionMatrix,
    EmptyGrid,
    EmptyMatrix,
    evaluate,
    format_text_report,
    machine_report,
    metrics,
    sweep,
)
from pca_ids.kdd import CLASSES, AttackCategory, Dataset, categorize_attack

from .oracles import loop_sweep_counts


def labels_of(*names):
    return [categorize_attack(name) for name in names]


def sweep_scores(majc, minc, labels, grid, r):
    """``sweep`` over given scores: the tally alone, with scoring stubbed out."""
    scores = (np.array(majc, dtype=float), np.array(minc, dtype=float), np.zeros(len(majc), bool))
    dataset = [([None] * len(labels), [CLASSES.index(label) for label in labels])]  # one block
    with mock.patch.object(evaluation, "score_records", lambda *_: scores):
        return sweep(SimpleNamespace(r=r), dataset, grid)


def tally(preds, labels):
    """The report of boolean predictions: a predicted attack scores over the threshold."""
    return sweep_scores(preds, [0.0] * len(preds), labels, [(0.5, None)], 0).report(0)


class TestConfusion:
    def test_all_correct(self):
        labels = labels_of("neptune", "smurf", "satan", "normal", "normal")
        preds = [True, True, True, False, False]
        cm = tally(preds, labels).cm
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (3, 0, 0, 2)

    def test_all_inverted(self):
        labels = labels_of("neptune", "smurf", "satan", "normal", "normal")
        preds = [False, False, False, True, True]
        cm = tally(preds, labels).cm
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (0, 3, 2, 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(-1, 0, 0, 0)


class TestMetrics:
    def test_reference_operating_point_rates(self):
        # frozen from the detection totals 8666+2212+28+1 over 11743 attacks
        cm = ConfusionMatrix(tp=10907, fn=836, fp=1277, tn=12172)
        report = metrics(cm)
        assert round(report.recall_anomaly, 4) == 0.9288
        assert round(report.recall_normal, 4) == 0.9050
        assert round(report.precision_anomaly, 4) == 0.8952
        assert round(report.overall_success, 4) == 0.9161

    def test_perfect_two_record_case(self):
        report = metrics(ConfusionMatrix(1, 0, 0, 1))
        assert report.overall_success == 1.0
        assert report.error_rate == 0.0

    def test_zero_denominators_are_undefined(self):
        report = metrics(ConfusionMatrix(0, 0, 0, 5))
        assert report.recall_anomaly is None
        assert report.precision_anomaly is None
        assert report.recall_normal == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_identities_hold(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            tp, fn, fp, tn = (int(v) for v in rng.integers(0, 500, size=4))
            if tp + fn + fp + tn == 0:
                continue
            report = metrics(ConfusionMatrix(tp, fn, fp, tn))
            assert report.overall_success + report.error_rate == 1.0
            if tp + fn:
                assert report.recall_anomaly == tp / (tp + fn)
            if fp + tn:
                assert abs(report.fpr_anomaly + report.recall_normal - 1.0) < 1e-12


class TestPerCategory:
    def test_perfect_detector(self):
        labels = labels_of("neptune", "satan", "guess_passwd", "rootkit", "normal")
        preds = [lab.is_attack for lab in labels]
        table = tally(preds, labels).categories
        for cat in (AttackCategory.DOS, AttackCategory.PROBE, AttackCategory.R2L, AttackCategory.U2R):
            assert table[cat].exist == 1
            assert table[cat].detected == 1

    def test_unknown_category_row_only_when_present(self):
        labels = labels_of("neptune", "normal")
        table = tally([True, False], labels).categories
        assert AttackCategory.UNKNOWN not in table

        labels = labels_of("mscan", "normal")
        table = tally([True, False], labels).categories
        assert table[AttackCategory.UNKNOWN].exist == 1

    def test_exist_counts_from_corpus(self, corpus_labels, corpus_counts):
        preds = [False] * len(corpus_labels)
        table = tally(preds, corpus_labels).categories
        cats = corpus_counts.category_counts()
        assert table[AttackCategory.DOS].exist == cats[AttackCategory.DOS]
        assert table[AttackCategory.DOS].detected == 0


class TestEvaluateAndSweep:
    def test_single_point_sweep_matches_evaluate(self, basic6_model, corpus_file):
        report = evaluate(basic6_model, Dataset(corpus_file))
        result = sweep(
            basic6_model,
            Dataset(corpus_file),
            [(basic6_model.t_major, basic6_model.t_minor)],
        )
        assert result.best == 0
        assert result.report(0).cm == report.cm
        assert result.report(0).overall_success == report.overall_success

    def test_infinite_thresholds_flag_nothing(self, basic6_model, corpus_dataset):
        result = sweep(basic6_model, corpus_dataset, [(1e18, 1e18)])
        report = result.report(result.best)
        assert report.recall_anomaly == 0.0
        assert report.fpr_anomaly == 0.0

    def test_sweep_monotone_in_major_threshold(self, basic6_model, corpus_dataset):
        grid = [(t, None) for t in np.linspace(0.0, 50.0, 25)]
        result = sweep(basic6_model, corpus_dataset, grid)
        tps = [result.report(k).cm.tp for k in range(len(grid))]
        fps = [result.report(k).cm.fp for k in range(len(grid))]
        assert all(a >= b for a, b in zip(tps, tps[1:]))
        assert all(a >= b for a, b in zip(fps, fps[1:]))

    def test_empty_grid_rejected(self, basic6_model, corpus_dataset):
        with pytest.raises(EmptyGrid):
            sweep(basic6_model, corpus_dataset, [])

    def test_evaluate_category_totals(self, traffic10_model, corpus_dataset):
        report = evaluate(traffic10_model, corpus_dataset)
        cats = corpus_dataset.category_counts()
        assert report.categories[AttackCategory.DOS].exist == cats[AttackCategory.DOS]
        total_exist = sum(c.exist for c in report.categories.values())
        assert total_exist + corpus_dataset.n_normal == len(corpus_dataset)


class TestRendering:
    @pytest.fixture()
    def report(self):
        cm = ConfusionMatrix(tp=10907, fn=836, fp=1277, tn=12172)
        return metrics(cm)

    def test_text_report_rounds_to_four_places(self, report):
        text = format_text_report(report)
        assert "0.9288" in text
        assert "0.9161" in text
        assert "confusion matrix" in text

    def test_text_report_marks_undefined(self):
        text = format_text_report(metrics(ConfusionMatrix(0, 0, 0, 5)))
        assert "undefined" in text

    def test_machine_report_schema(self, basic6_model, corpus_dataset):
        report = evaluate(basic6_model, corpus_dataset)
        doc = machine_report(report)
        expected_keys = {
            "tp",
            "fn",
            "fp",
            "tn",
            "recall_anomaly",
            "fpr_anomaly",
            "precision_anomaly",
            "recall_normal",
            "fpr_normal",
            "precision_normal",
            "overall_success",
            "error_rate",
            "categories",
        }
        assert set(doc) == expected_keys
        assert doc["tp"] + doc["fn"] == corpus_dataset.n_attack
        assert {row["category"] for row in doc["categories"]} >= {"DOS", "PROBE"}


# Scores and thresholds share a pool, so exact ties are common.
POOL = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.5, 4.0, math.inf, -math.inf, math.nan]
VALUES = st.one_of(st.sampled_from(POOL), st.floats(-5.0, 5.0))
NAMES = ("normal", "normal", "neptune", "satan", "guess_passwd", "rootkit", "mscan")


@st.composite
def sweep_inputs(draw):
    """Random scores, labels (UNKNOWN attacks or not) and an unsorted grid."""
    n = draw(st.integers(1, 30))
    names = NAMES if draw(st.booleans()) else NAMES[:-1]
    labels = [
        categorize_attack(name)
        for name in draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
    ]
    majc = draw(st.lists(VALUES, min_size=n, max_size=n))
    minc = draw(st.lists(VALUES, min_size=n, max_size=n))
    grid = draw(st.lists(st.tuples(VALUES, st.none() | VALUES), min_size=1, max_size=12))
    grid += draw(st.lists(st.sampled_from(grid), max_size=4))  # repeated points
    return majc, minc, labels, grid, draw(st.sampled_from([0, 2]))


def as_oracle(report):
    cm = report.cm
    categories = {cat.value: (c.exist, c.detected) for cat, c in report.categories.items()}
    return (cm.tp, cm.fn, cm.fp, cm.tn), categories


class TestTallyMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(inputs=sweep_inputs())
    def test_sweep_equals_per_record_loop(self, inputs):
        majc, minc, labels, grid, r = inputs
        result = sweep_scores(majc, minc, labels, grid, r)
        expected = loop_sweep_counts(majc, minc, labels, grid, r)
        got = [as_oracle(result.report(k)) for k in range(len(grid))]
        assert got == expected
        assert [list(cats) for _, cats in got] == [list(cats) for _, cats in expected]
        assert result.grid is grid
        successes = [(cm[0] + cm[3]) / len(labels) for cm, _ in expected]
        assert result.best == successes.index(max(successes))

    @settings(max_examples=300, deadline=None)
    @given(inputs=sweep_inputs())
    def test_columns_equal_each_points_report(self, inputs):
        majc, minc, labels, grid, r = inputs
        result = sweep_scores(majc, minc, labels, grid, r)
        reports = [result.report(k) for k in range(len(grid))]
        columns = {
            "recall_anomaly": result.recall,
            "fpr_anomaly": result.fpr,
            "overall_success": result.success,
        }
        for name, column in columns.items():
            assert len(column) == len(grid)
            for value, report in zip(column, reports):
                field = getattr(report, name)
                assert type(value) is float
                assert math.isnan(value) if field is None else value == field
        successes = [report.overall_success for report in reports]
        assert result.best == successes.index(max(successes))

    @settings(max_examples=100, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.booleans(), st.sampled_from(NAMES)), min_size=1, max_size=30
        )
    )
    def test_confusion_and_per_category_equal_loop(self, pairs):
        preds = [pred for pred, _ in pairs]
        labels = [categorize_attack(name) for _, name in pairs]
        [expected] = loop_sweep_counts(
            [float(p) for p in preds], [0.0] * len(preds), labels, [(0.5, None)], 0
        )
        assert as_oracle(tally(preds, labels)) == expected
