"""Component selection, threshold calibration, and the full offline fit."""

import math

import numpy as np
import pytest

from pca_ids.kdd import (
    BASIC6,
    Dataset,
    EmptyDatasetError,
    parse_record,
)
from pca_ids.trainer import (
    EmptyScores,
    TrainerConfig,
    calibrate_thresholds,
    fit,
    select_major,
    select_minor,
)

from .conftest import correlation_of
from .oracles import cubic_eigenvalues


class TestSelectMajor:
    def test_cumulative_sum_example(self):
        values = [3.0, 1.2, 0.9, 0.5, 0.3, 0.1]
        assert select_major(values, 0.60) == 2
        assert select_major(values, 0.50) == 1

    def test_all_unit_eigenvalues(self):
        assert select_major([1.0] * 6, 0.5) == 3

    def test_target_one_takes_everything(self):
        assert select_major([1.5, 1.0, 0.5], 1.0) == 3

    def test_at_least_one_component(self):
        assert select_major([6.0, 0.0, 0.0], 0.01) == 1


class TestSelectMinor:
    def test_cutoff_example(self):
        assert select_minor([3.0, 1.2, 0.9, 0.5, 0.3, 0.1], 0.20) == 1

    def test_uncorrelated_features_have_no_minors(self):
        assert select_minor([1.0] * 6, 0.20) == 0


class TestCalibrateThresholds:
    def test_nearest_rank_percentile(self):
        scores = list(range(1, 101))
        t_major, t_minor = calibrate_thresholds(scores, None, 0.05, 0.02)
        assert t_major == 95.0
        assert t_minor is None

    def test_alpha_to_zero_limit_is_max(self):
        scores = [3.0, 9.0, 1.0, 4.5]
        t_major, _ = calibrate_thresholds(scores, None, 1e-9, 0.02)
        assert t_major == 9.0

    def test_minor_scores_calibrated_when_present(self):
        _, t_minor = calibrate_thresholds([1.0, 2.0], list(range(1, 101)), 0.05, 0.05)
        assert t_minor == 95.0

    def test_empty_scores_rejected(self):
        with pytest.raises(EmptyScores):
            calibrate_thresholds([], None, 0.05, 0.02)
        with pytest.raises(EmptyScores):
            calibrate_thresholds([1.0], [], 0.05, 0.02)


class TestTrainerConfig:
    def test_defaults_are_valid(self):
        config = TrainerConfig()
        assert config.variance_target == 0.60
        assert config.minor_cutoff == 0.20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"variance_target": 0.0},
            {"variance_target": 1.5},
            {"minor_cutoff": -1.0},
            {"alpha_major": 0.0},
            {"alpha_minor": 1.0},
            {"q_override": 0},
            {"r_override": -1},
            {"minor_cutoff": float("nan")},
            {"minor_cutoff": float("inf")},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainerConfig(**kwargs)


class TestFit:
    def test_eigenvalues_sum_to_dimension(self, basic6_model):
        total = float(np.sum(basic6_model.eigenvalues))
        assert abs(total - 6.0) < 1e-9 * 6

    def test_trains_on_normals_only(self, basic6_model, corpus_counts):
        assert basic6_model.metadata["n_normal"] == corpus_counts.n_normal
        assert basic6_model.metadata["n_records"] == len(corpus_counts)

    def test_no_normals_rejected(self, corpus_records, corpus_labels):
        attacks = [r for r, l in zip(corpus_records, corpus_labels) if l.is_attack]
        attacks_only = Dataset("attacks-only", [attacks])
        with pytest.raises(EmptyDatasetError):
            fit(attacks_only, BASIC6)

    def test_identical_records_degenerate_to_identity(self):
        line = ",".join(["3"] + ["tcp", "http", "SF"] + ["7"] * 37 + ["normal"])
        records = [parse_record(line) for _ in range(20)]
        model = fit(Dataset("constant", [records]), BASIC6)
        assert all(model.degenerate)
        assert np.allclose(model.eigenvalues, 1.0)
        assert model.q == math.ceil(0.60 * 6)
        assert model.r == 0
        assert model.t_major == 0.0

    def test_recovers_known_three_feature_structure(self):
        # independent oracle: characteristic-cubic roots of the 3x3 correlation
        rng = np.random.default_rng(67)
        latent = rng.normal(size=(500, 3))
        mixing = np.array([[1.0, 0.6, 0.0], [0.0, 1.0, 0.3], [0.2, 0.0, 1.0]])
        X = latent @ mixing
        r = correlation_of(X)
        from pca_ids.mvstats import eigen_sym

        pairs = eigen_sym(r)
        assert np.allclose(pairs.values, cubic_eigenvalues(r), atol=1e-6)

    def test_q_plus_r_shrinks_r(self, corpus_dataset, caplog):
        config = TrainerConfig(q_override=3, r_override=9)
        from pca_ids.kdd import TRAFFIC10

        with caplog.at_level("WARNING"):
            model = fit(corpus_dataset, TRAFFIC10, config)
        assert model.q == 3
        assert model.r == 7
        assert any("shrunk" in rec.message for rec in caplog.records)

    def test_duplication_invariance(self, corpus_records, basic6_model):
        doubled = Dataset("doubled", [corpus_records, corpus_records])
        model2 = fit(doubled, BASIC6)
        assert np.allclose(model2.mean, basic6_model.mean, rtol=1e-12)
        assert np.allclose(model2.eigenvalues, basic6_model.eigenvalues, atol=1e-9)
        assert np.allclose(model2.eigenvectors, basic6_model.eigenvectors, atol=1e-8)

    def test_training_false_alarm_rate_bounded(self, corpus_normals, basic6_model):
        from pca_ids.detector import score_records

        normals = corpus_normals
        majc, _, _ = score_records(basic6_model, normals)
        alpha = basic6_model.metadata["config"]["alpha_major"]
        rate = float(np.mean(majc > basic6_model.t_major))
        assert rate <= alpha + 1.0 / len(normals)

    def test_fit_is_deterministic(self, corpus_file):
        models = [fit(Dataset(corpus_file), BASIC6) for _ in range(2)]
        a, b = models
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        assert np.array_equal(a.mean, b.mean)
        assert a.t_major == b.t_major
        assert a.encoder == b.encoder

    def test_overrides_pin_selection(self, corpus_dataset):
        model = fit(corpus_dataset, BASIC6, TrainerConfig(q_override=3, r_override=0))
        assert model.q == 3
        assert model.r == 0
        assert model.t_minor is None
        assert model.metadata["auto_q"] >= 1
