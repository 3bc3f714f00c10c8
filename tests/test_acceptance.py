"""Acceptance suite.

Two groups, each printing one pass/fail line per criterion (run with
``pytest -s`` to see them):

* property checks on randomized inputs, always runnable;
* reproduction checks against the NSL-KDD KDDTrain_20Percent file, which
  skip with instructions when that file is not available (see README).

Every tolerance is pinned here, not computed.
"""

import time

import numpy as np
import pytest

from pca_ids.detector import _score_sums, _scorer, score_records
from pca_ids.evaluation import ConfusionMatrix, metrics, sweep
from pca_ids.kdd import (
    BASIC6,
    TRAFFIC10,
    AttackCategory,
    Dataset,
    parse_record,
)
from pca_ids.mvstats import (
    correlation_matrix,
    eigen_sym,
    fit_standardizer,
)
from pca_ids.cli import main as cli_main
from pca_ids.trainer import TrainerConfig, fit

from .conftest import make_corpus, read_through
from .oracles import cubic_eigenvalues, mahalanobis_sq

EIGEN_SUM_TOL = 1e-9          # relative to dimension
MAHALANOBIS_REL_TOL = 1e-8
GRAM_TOL = 1e-9
DECORRELATION_TOL = 1e-6
SCALE_SCORE_REL_TOL = 1e-9
IDENTITY_TOL = 1e-12
CUBIC_ROOT_TOL = 1e-6
PROPERTY_RUNTIME_LIMIT = 1.0  # seconds

RECALL_FLOOR_STEP1 = 0.90
SUCCESS_FLOOR_STEP1 = 0.89
RECALL_FLOOR_STEP2 = 0.93
SUCCESS_FLOOR_STEP2 = 0.82
HIGH_CATEGORY_FLOOR = 0.85
LOW_CATEGORY_CEILING = 0.50

EXPECTED_EXIST = {
    AttackCategory.DOS: 9234,
    AttackCategory.PROBE: 2289,
    AttackCategory.R2L: 209,
    AttackCategory.U2R: 11,
}

# Step-1 reference operating point, frozen from the published detection
# totals: tp = 8666 + 2212 + 28 + 1 over 11743 attacks and 13449 normals.
# fp/tn reconstruct from the printed normal recall; 1277/12172 is the one
# integer split that reproduces the whole printed table to 4 decimals.
REFERENCE_CM = ConfusionMatrix(tp=10907, fn=836, fp=1277, tn=12172)
REFERENCE_RATES = {
    "recall_anomaly": 0.9288,
    "fpr_anomaly": 0.0949,
    "precision_anomaly": 0.8952,
    "recall_normal": 0.9050,
    "fpr_normal": 0.0712,
    "precision_normal": 0.9357,
    "overall_success": 0.9161,
    "error_rate": 0.0839,
}
REFERENCE_RATE_TOL = 1e-4  # agreement at the printed fourth decimal


def note(passed: bool, name: str, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[{status}] {name}{suffix}")


# ---------------------------------------------------------------------------
# property suite (no dataset required)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def eigen_corpus():
    """200 correlation matrices from random data, eigendecomposed once."""
    rng = np.random.default_rng(101)
    out = []
    start = time.perf_counter()
    for _ in range(200):
        p = int(rng.integers(2, 11))
        n = int(rng.integers(p + 5, 80))
        r = correlation_matrix(rng.normal(size=(n, p)))
        out.append((p, r, eigen_sym(r)))
    elapsed = time.perf_counter() - start
    return out, elapsed


def test_eigenvalue_sum_equals_dimension(eigen_corpus):
    corpus, elapsed = eigen_corpus
    worst = max(abs(float(np.sum(pairs.values)) - p) / p for p, _, pairs in corpus)
    ok = worst < EIGEN_SUM_TOL and elapsed < PROPERTY_RUNTIME_LIMIT
    note(
        ok,
        "eigenvalue sum equals dimension (200 random correlation matrices)",
        f"max residual {worst:.2e}, {elapsed:.2f}s",
    )
    assert worst < EIGEN_SUM_TOL
    assert elapsed < PROPERTY_RUNTIME_LIMIT


def test_full_score_equals_mahalanobis_distance():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    while cases < 100:
        p = int(rng.integers(2, 9))
        data = rng.normal(size=(60, p))
        params = fit_standardizer(data)
        r = correlation_matrix(data, params)
        pairs = eigen_sym(r)
        if pairs.values[-1] < 1e-6:  # keep to nonsingular cases
            continue
        z = rng.normal(size=p)
        scorer = _scorer(pairs.values.tolist(), pairs.vectors.T.tolist(), p, 0)
        full, _ = _score_sums(z.tolist(), scorer)
        oracle = mahalanobis_sq(z, np.zeros(p), np.linalg.inv(r))
        worst = max(worst, abs(full - oracle) / abs(oracle))
        cases += 1
    elapsed = time.perf_counter() - start
    ok = worst < MAHALANOBIS_REL_TOL and elapsed < PROPERTY_RUNTIME_LIMIT
    note(
        ok,
        "full component score equals Mahalanobis distance (100 cases)",
        f"max rel err {worst:.2e}, {elapsed:.2f}s",
    )
    assert worst < MAHALANOBIS_REL_TOL
    assert elapsed < PROPERTY_RUNTIME_LIMIT


def test_eigenvector_orthonormality(eigen_corpus):
    corpus, _ = eigen_corpus
    worst = 0.0
    for p, _, pairs in corpus:
        gram = pairs.vectors.T @ pairs.vectors
        worst = max(worst, float(np.max(np.abs(gram - np.eye(p)))))
    ok = worst < GRAM_TOL
    note(ok, "eigenvector orthonormality on the same corpus", f"max residual {worst:.2e}")
    assert worst < GRAM_TOL


def test_projected_scores_decorrelate():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(5):
        p = int(rng.integers(3, 9))
        mixing = rng.normal(size=(p, p))
        data = rng.normal(size=(1000, p)) @ mixing
        params = fit_standardizer(data)
        pairs = eigen_sym(correlation_matrix(data, params))
        scores = ((data - params.mean) / params.std) @ pairs.vectors
        cov = np.cov(scores, rowvar=False, ddof=1)
        worst = max(worst, float(np.max(np.abs(cov - np.diag(pairs.values)))))
    ok = worst < DECORRELATION_TOL
    note(
        ok,
        "projected training scores decorrelate to diag(eigenvalues)",
        f"max |cov - diag| {worst:.2e}",
    )
    assert worst < DECORRELATION_TOL


def _scale_field(line: str, position: int, factor: int) -> str:
    parts = line.split(",")
    parts[position - 1] = str(int(parts[position - 1]) * factor)
    return ",".join(parts)


def _records(lines):
    return [parse_record(line) for line in lines]


def test_scale_invariance_of_verdicts():
    lines = make_corpus()
    scaled = [_scale_field(line, 5, 1000) for line in lines]
    config = TrainerConfig(q_override=3, r_override=2)

    base, scaled = _records(lines), _records(scaled)
    base_model = fit(Dataset("base", [base]), TRAFFIC10, config)
    scaled_model = fit(Dataset("scaled", [scaled]), TRAFFIC10, config)

    majc_a, minc_a, _ = score_records(base_model, base)
    majc_b, minc_b, _ = score_records(scaled_model, scaled)

    pred_a = (majc_a > base_model.t_major) | (minc_a > base_model.t_minor)
    pred_b = (majc_b > scaled_model.t_major) | (minc_b > scaled_model.t_minor)

    rel_major = np.max(np.abs(majc_a - majc_b) / np.maximum(np.abs(majc_a), 1e-12))
    rel_minor = np.max(np.abs(minc_a - minc_b) / np.maximum(np.abs(minc_a), 1e-12))
    same = bool(np.array_equal(pred_a, pred_b))
    ok = same and rel_major < SCALE_SCORE_REL_TOL and rel_minor < SCALE_SCORE_REL_TOL
    note(
        ok,
        "scaling one feature by 1000 changes no verdict",
        f"score rel err major {rel_major:.2e} minor {rel_minor:.2e}",
    )
    assert same
    assert rel_major < SCALE_SCORE_REL_TOL
    assert rel_minor < SCALE_SCORE_REL_TOL


def test_metric_identities_on_random_matrices():
    rng = np.random.default_rng(109)
    checked = 0
    worst = 0.0
    while checked < 500:
        tp, fn, fp, tn = (int(v) for v in rng.integers(0, 1000, size=4))
        if tp + fn + fp + tn == 0:
            continue
        report = metrics(ConfusionMatrix(tp, fn, fp, tn))
        if tp + fn:
            assert report.recall_anomaly == tp / (tp + fn)  # recall is TPR
        assert report.overall_success + report.error_rate == 1.0
        if fp + tn:
            worst = max(worst, abs(report.fpr_anomaly + report.recall_normal - 1.0))
        checked += 1
    ok = worst < IDENTITY_TOL
    note(
        ok,
        "metric identities on 500 random confusion matrices",
        f"max |fpr - (1 - normal recall)| {worst:.2e}",
    )
    assert worst < IDENTITY_TOL


def test_eigensolver_matches_cubic_roots():
    rng = np.random.default_rng(113)
    worst_value = 0.0
    worst_residual = 0.0
    for _ in range(20):
        mixing = rng.normal(size=(3, 3))
        r = correlation_matrix(rng.normal(size=(200, 3)) @ mixing)
        pairs = eigen_sym(r)
        roots = cubic_eigenvalues(r)
        worst_value = max(worst_value, float(np.max(np.abs(pairs.values - roots))))
        for k in range(3):
            resid = r @ pairs.vectors[:, k] - pairs.values[k] * pairs.vectors[:, k]
            worst_residual = max(worst_residual, float(np.max(np.abs(resid))))
    ok = worst_value < CUBIC_ROOT_TOL and worst_residual < 1e-9
    note(
        ok,
        "eigensolver agrees with characteristic-cubic roots",
        f"max root gap {worst_value:.2e}, max residual {worst_residual:.2e}",
    )
    assert worst_value < CUBIC_ROOT_TOL
    assert worst_residual < 1e-9


# ---------------------------------------------------------------------------
# reproduction suite (requires KDDTrain_20Percent; skips otherwise)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def step1_sweep(kdd_path, kdd_records):
    model = fit(Dataset(kdd_path), BASIC6, TrainerConfig(q_override=3, r_override=0))
    majc, _, _ = score_records(model, kdd_records)
    quantiles = np.unique(np.quantile(majc, np.linspace(0.30, 0.9995, 800)))
    grid = [(float(t), None) for t in quantiles]
    return sweep(model, Dataset(kdd_path), grid)


def _qualifying(result, recall_floor, success_floor):
    """Indices of the grid points that reach both floors; a NaN recall reaches none."""
    return [
        k
        for k, (recall, success) in enumerate(zip(result.recall, result.success))
        if recall >= recall_floor and success >= success_floor
    ]


def _best_report(result, qualifying):
    """(index, report) of the qualifying point with the highest success; first on ties."""
    if not qualifying:
        return None, None
    k = max(qualifying, key=result.success.__getitem__)
    return k, result.report(k)


def test_dataset_fingerprint(kdd_dataset):
    read_through(kdd_dataset)
    cats = kdd_dataset.category_counts()
    ok = len(kdd_dataset) == 25192 and all(
        cats[cat] == expected for cat, expected in EXPECTED_EXIST.items()
    )
    note(
        ok,
        "dataset fingerprint (25192 records, category counts)",
        f"n={len(kdd_dataset)}, "
        + ", ".join(f"{c.value}={cats[c]}" for c in EXPECTED_EXIST),
    )
    assert len(kdd_dataset) == 25192
    for cat, expected in EXPECTED_EXIST.items():
        assert cats[cat] == expected
    assert cats[AttackCategory.UNKNOWN] == 0


def test_six_feature_operating_point(step1_sweep):
    qualifying = _qualifying(step1_sweep, RECALL_FLOOR_STEP1, SUCCESS_FLOOR_STEP1)
    k, best = _best_report(step1_sweep, qualifying)
    detail = (
        f"best recall {best.recall_anomaly:.4f}, "
        f"success {best.overall_success:.4f} at t_major {step1_sweep.grid[k][0]:.4g}"
        if best
        else "no qualifying threshold in sweep"
    )
    note(best is not None, "six-feature sweep reaches the target operating point", detail)
    assert best is not None


def test_ten_feature_operating_point(kdd_path, kdd_records):
    model = fit(Dataset(kdd_path), TRAFFIC10, TrainerConfig(q_override=3, r_override=2))
    majc, minc, _ = score_records(model, kdd_records)
    major_grid = np.unique(np.quantile(majc, np.linspace(0.50, 0.9995, 60)))
    minor_grid = np.unique(np.quantile(minc, np.linspace(0.50, 0.9995, 60)))
    grid = [(float(tm), float(tmm)) for tm in major_grid for tmm in minor_grid]
    result = sweep(model, Dataset(kdd_path), grid)
    qualifying = _qualifying(result, RECALL_FLOOR_STEP2, SUCCESS_FLOOR_STEP2)
    _, best = _best_report(result, qualifying)
    detail = (
        f"best recall {best.recall_anomaly:.4f}, "
        f"success {best.overall_success:.4f}"
        if best
        else "no qualifying threshold pair in sweep"
    )
    note(best is not None, "ten-feature sweep reaches the target operating point", detail)
    assert best is not None


def test_per_category_detection_pattern(step1_sweep):
    qualifying = _qualifying(step1_sweep, RECALL_FLOOR_STEP1, SUCCESS_FLOOR_STEP1)
    if not qualifying:
        note(False, "per-category detection pattern", "no qualifying operating point")
        pytest.fail("cannot check categories without a qualifying operating point")
    _, best = _best_report(step1_sweep, qualifying)
    cats = best.categories
    rates = {cat: cats[cat].rate for cat in EXPECTED_EXIST}
    ok = (
        rates[AttackCategory.DOS] >= HIGH_CATEGORY_FLOOR
        and rates[AttackCategory.PROBE] >= HIGH_CATEGORY_FLOOR
        and rates[AttackCategory.R2L] <= LOW_CATEGORY_CEILING
        and rates[AttackCategory.U2R] <= LOW_CATEGORY_CEILING
    )
    note(
        ok,
        "per-category detection pattern (DOS/PROBE high, R2L/U2R low)",
        ", ".join(f"{c.value}={rates[c]:.3f}" for c in EXPECTED_EXIST),
    )
    assert rates[AttackCategory.DOS] >= HIGH_CATEGORY_FLOOR
    assert rates[AttackCategory.PROBE] >= HIGH_CATEGORY_FLOOR
    assert rates[AttackCategory.R2L] <= LOW_CATEGORY_CEILING
    assert rates[AttackCategory.U2R] <= LOW_CATEGORY_CEILING


def test_reference_confusion_matrix_metrics():
    # pure arithmetic, independent of any trained model or dataset
    assert REFERENCE_CM.tp == 8666 + 2212 + 28 + 1
    assert REFERENCE_CM.tp + REFERENCE_CM.fn == 11743
    assert REFERENCE_CM.fp + REFERENCE_CM.tn == 13449
    report = metrics(REFERENCE_CM)
    deviations = {
        name: abs(getattr(report, name) - expected)
        for name, expected in REFERENCE_RATES.items()
    }
    worst = max(deviations.values())
    ok = worst < REFERENCE_RATE_TOL
    note(
        ok,
        "reference confusion matrix reproduces the target table to 4 decimals",
        f"max deviation {worst:.2e}",
    )
    assert worst < REFERENCE_RATE_TOL


def test_train_evaluate_determinism(kdd_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    reports = []
    blobs = []
    for tag in ("a", "b"):
        model_path = tmp_path / f"{tag}.json"
        code = cli_main(
            ["train", "--data", kdd_path, "--preset", "step1", "--out", str(model_path)]
        )
        assert code == 0
        capsys.readouterr()
        code = cli_main(["evaluate", "--model", str(model_path), "--data", kdd_path])
        assert code == 0
        out, _ = capsys.readouterr()
        reports.append(out)
        blobs.append(model_path.read_bytes())
    ok = blobs[0] == blobs[1] and reports[0] == reports[1]
    note(ok, "two full train+evaluate runs are byte-identical")
    assert blobs[0] == blobs[1]
    assert reports[0] == reports[1]
