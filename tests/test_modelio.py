"""On-disk model format: round-trip fidelity, versioning, integrity."""

import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pca_ids.detector import classify, score_records
from pca_ids.kdd import (
    BASIC6,
    CATEGORICAL_POSITIONS,
    TRAFFIC10,
    Dataset,
    FeatureProfile,
    categorize_attack,
    parse_record,
)
from pca_ids.modelio import (
    FORMAT_VERSION,
    ModelFormatError,
    ModelIntegrityError,
    load_model,
    save_model,
    verify_model,
)
from pca_ids.trainer import TrainerConfig, fit

from .conftest import make_corpus

# Field 7 is 0 on every synthetic row, so this profile has a degenerate feature.
WITH_CONSTANT = FeatureProfile("with_constant", (1, 2, 3, 4, 5, 6, 7), CATEGORICAL_POSITIONS)


@pytest.fixture()
def model_path(basic6_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(basic6_model, str(path))
    return path


class TestRoundTrip:
    def test_every_field_survives(self, basic6_model, model_path):
        loaded = load_model(str(model_path))
        assert loaded.profile == basic6_model.profile
        assert loaded.encoder.tables == basic6_model.encoder.tables
        assert np.array_equal(loaded.standardizer.mean, basic6_model.standardizer.mean)
        assert np.array_equal(loaded.standardizer.std, basic6_model.standardizer.std)
        assert np.array_equal(loaded.eigen.values, basic6_model.eigen.values)
        assert np.array_equal(loaded.eigen.vectors, basic6_model.eigen.vectors)
        assert loaded.q == basic6_model.q
        assert loaded.r == basic6_model.r
        assert loaded.t_major == basic6_model.t_major
        assert loaded.t_minor == basic6_model.t_minor

    def test_verdicts_bit_identical(self, basic6_model, model_path, corpus_dataset):
        loaded = load_model(str(model_path))
        for record in corpus_dataset.records[:60]:
            assert classify(loaded, record) == classify(basic6_model, record)

    def test_save_load_save_is_byte_stable(
        self, basic6_model, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_model(basic6_model, str(first))
        save_model(load_model(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_normal=st.integers(20, 120),
        profile=st.sampled_from([BASIC6, TRAFFIC10, WITH_CONSTANT]),
        data=st.data(),
    )
    def test_save_load_score_bit_identical(self, seed, n_normal, profile, data):
        q = data.draw(st.integers(1, profile.p), label="q")
        r = data.draw(st.integers(0, profile.p - q), label="r")
        lines = make_corpus({"normal": n_normal, "neptune": 4, "satan": 3}, seed=seed)
        records = [parse_record(line) for line in lines]
        labels = [categorize_attack(record.label) for record in records]
        model = fit(Dataset(records, labels, "random"), profile, TrainerConfig(q_override=q, r_override=r))
        before = score_records(model, records)
        verdicts = [classify(model, record) for record in records]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            save_model(model, path)
            loaded = load_model(path)
        for a, b in zip(before, score_records(loaded, records)):
            assert a.tobytes() == b.tobytes()
        assert [classify(loaded, record) for record in records] == verdicts

    def test_provenance_recorded(self, model_path, corpus_dataset):
        doc = json.loads(model_path.read_text())
        prov = doc["provenance"]
        assert prov["training_file"] == corpus_dataset.source
        assert prov["n_normal"] == corpus_dataset.n_normal
        assert "created_at" in prov
        assert doc["format_version"] == FORMAT_VERSION


class TestValidation:
    def test_version_mismatch_is_fatal(self, model_path):
        doc = json.loads(model_path.read_text())
        doc["format_version"] = FORMAT_VERSION + 1
        model_path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(str(model_path))

    def test_tampered_eigenvectors_fail_integrity(self, model_path):
        doc = json.loads(model_path.read_text())
        doc["eigen"]["vectors"][0] = [v * 1.5 for v in doc["eigen"]["vectors"][0]]
        model_path.write_text(json.dumps(doc))
        with pytest.raises(ModelIntegrityError, match="orthonormal"):
            load_model(str(model_path))
        # verify=False still loads for inspection
        tampered = load_model(str(model_path), verify=False)
        assert verify_model(tampered)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        with pytest.raises(ModelFormatError):
            load_model(str(path))

    def test_missing_section_rejected(self, model_path):
        doc = json.loads(model_path.read_text())
        del doc["standardizer"]
        model_path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(str(model_path))

    def test_clean_model_has_no_findings(self, basic6_model):
        assert verify_model(basic6_model) == []

    @pytest.mark.parametrize(
        "path, value, finding",
        [
            pytest.param(("thresholds", "t_major"), float("nan"), "t_major", id="t_major-nan"),
            pytest.param(("thresholds", "t_minor"), float("inf"), "t_minor", id="t_minor-inf"),
            pytest.param(("standardizer", "std", 0), 0.0, "std is not positive", id="std-zero"),
            pytest.param(("standardizer", "mean", 1), float("nan"), "mean", id="mean-nan"),
            pytest.param(("eigen", "values", 0), float("inf"), "eigenvalues", id="eigenvalue-inf"),
            pytest.param(("eigen", "vectors", 0, 0), float("nan"), "eigenvectors", id="eigenvector-nan"),
            pytest.param(("standardizer", "degenerate"), [False] * 9, "dimensions", id="mask-short"),
            pytest.param(("encoder", "3", "http"), 99, "not dense", id="encoder-gap"),
            pytest.param(
                ("encoder",),
                {"2": {"tcp": 0}, "4": {"SF": 0}},
                "encoder positions",
                id="encoder-missing-position",
            ),
        ],
    )
    def test_tampered_values_rejected_at_load(self, traffic10_model, tmp_path, path, value, finding):
        file = tmp_path / "step2.json"
        save_model(traffic10_model, str(file))
        doc = json.loads(file.read_text())
        *parents, key = path
        target = doc
        for part in parents:
            target = target[part]
        target[key] = value
        file.write_text(json.dumps(doc))
        with pytest.raises(ModelIntegrityError, match=finding):
            load_model(str(file))

    def test_non_finite_value_not_written(self, basic6_model, tmp_path):
        broken = dataclasses.replace(basic6_model, t_major=float("nan"))
        with pytest.raises(ValueError):
            save_model(broken, str(tmp_path / "nan.json"))
        # a good model already at the path survives a failed save
        path = tmp_path / "good.json"
        save_model(basic6_model, str(path))
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_model(broken, str(path))
        assert path.read_bytes() == before
