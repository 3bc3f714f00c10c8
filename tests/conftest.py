"""Shared fixtures: a synthetic NSL-KDD-format corpus plus discovery of the
real KDDTrain_20Percent file for the reproduction tests.

The synthetic corpus keeps the full pipeline testable without the real
dataset: normal rows follow one correlated model, attack rows deviate
hard on the features each category abuses.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from pca_ids import (
    BASIC6,
    TRAFFIC10,
    Dataset,
    TrainerConfig,
    categorize_attack,
    fit,
    parse_record,
)
from pca_ids.mvstats import _standardizer, fit_standardizer, standardized_correlation

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a CI run
# cannot fail on an example no earlier run has seen.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

DATA_ENV = "NSL_KDD_TRAIN20"
_DATA_CANDIDATES = (
    "data/KDDTrain+_20Percent.txt",
    "data/KDDTrain_20Percent.txt",
    "data/KDDTrain+_20Percent.csv",
)


def find_kdd_path() -> str | None:
    override = os.environ.get(DATA_ENV)
    if override:
        return override if Path(override).exists() else None
    root = Path(__file__).resolve().parent.parent
    for candidate in _DATA_CANDIDATES:
        path = root / candidate
        if path.exists():
            return str(path)
    return None


def _base_fields() -> list[str]:
    return ["0"] * 41


def _set(fields: list[str], position: int, value) -> None:
    fields[position - 1] = str(value)


def synth_row(rng: np.random.Generator, label: str) -> list[str]:
    """One 41-field row for the given label, as a list of field strings."""
    f = _base_fields()
    if label == "normal":
        _set(f, 1, int(rng.integers(0, 4)))
        _set(f, 2, rng.choice(["tcp", "tcp", "tcp", "udp", "icmp"]))
        _set(f, 3, rng.choice(["http", "http", "smtp", "ftp_data", "domain_u", "private"]))
        _set(f, 4, rng.choice(["SF", "SF", "SF", "SF", "S0", "REJ"]))
        src = int(rng.integers(150, 550))
        _set(f, 5, src)
        _set(f, 6, int(0.8 * src + rng.integers(0, 80)))
        count = int(1 + rng.poisson(4))
        _set(f, 23, count)
        _set(f, 24, max(1, count - int(rng.integers(0, 3))))
        dhc = int(rng.integers(20, 220))
        _set(f, 32, dhc)
        _set(f, 33, max(1, dhc - int(rng.integers(0, 15))))
    elif label == "neptune":  # flood: zero payload, extreme connection counts
        _set(f, 2, "tcp")
        _set(f, 3, "private")
        _set(f, 4, "S0")
        _set(f, 23, int(rng.integers(350, 520)))
        _set(f, 24, int(rng.integers(350, 520)))
        _set(f, 32, 255)
        _set(f, 33, 255)
    elif label in ("satan", "mscan"):  # scan: tiny payload, wide host fanout
        _set(f, 2, "icmp")
        _set(f, 3, "private")
        _set(f, 4, "REJ")
        _set(f, 5, 6)
        _set(f, 23, int(rng.integers(120, 200)))
        _set(f, 24, 1)
        _set(f, 32, 255)
        _set(f, 33, int(rng.integers(1, 4)))
    elif label == "guess_passwd":  # long interactive session, heavy upload
        _set(f, 1, int(rng.integers(200, 420)))
        _set(f, 2, "tcp")
        _set(f, 3, "ftp_data")
        _set(f, 4, "SF")
        _set(f, 5, int(rng.integers(3000, 6000)))
        _set(f, 6, int(rng.integers(200, 400)))
        _set(f, 23, 2)
        _set(f, 24, 2)
        _set(f, 32, 2)
        _set(f, 33, 2)
    elif label == "rootkit":
        _set(f, 1, int(rng.integers(60, 120)))
        _set(f, 2, "tcp")
        _set(f, 3, "smtp")
        _set(f, 4, "SF")
        _set(f, 5, int(rng.integers(8000, 12000)))
        _set(f, 6, int(rng.integers(4000, 7000)))
        _set(f, 23, 1)
        _set(f, 24, 1)
        _set(f, 32, 1)
        _set(f, 33, 1)
    else:
        raise ValueError(f"no synthetic template for label {label!r}")
    return f


CORPUS_COUNTS = {
    "normal": 400,
    "neptune": 60,
    "satan": 25,
    "guess_passwd": 12,
    "rootkit": 5,
    "mscan": 4,
}


def make_corpus(counts: dict[str, int] | None = None, seed: int = 7) -> list[str]:
    """Labeled corpus lines; roughly half carry the difficulty field."""
    counts = counts or CORPUS_COUNTS
    rng = np.random.default_rng(seed)
    lines = []
    for label, n in counts.items():
        for _ in range(n):
            fields = synth_row(rng, label)
            fields.append(label)
            if rng.integers(0, 2):
                fields.append(str(int(rng.integers(1, 22))))
            lines.append(",".join(fields))
    rng.shuffle(lines)
    return lines


@pytest.fixture(scope="session")
def corpus_lines() -> list[str]:
    return make_corpus()


@pytest.fixture(scope="session")
def corpus_file(corpus_lines, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("corpus") / "synthetic_train.txt"
    path.write_text("\n".join(corpus_lines) + "\n")
    return str(path)


def read_through(dataset: Dataset) -> Dataset:
    """``dataset`` after one pass that keeps nothing, its counts set."""
    for _ in dataset:
        pass
    return dataset


def compiled_standardize(params):
    """The standardize that ``fit`` compiles from a ``StandardizationParams``:
    ``mvstats._standardizer`` of its arrays as lists."""
    return _standardizer(params.mean.tolist(), params.std.tolist(), params.degenerate.tolist())


def correlation_of(data, params=None) -> np.ndarray:
    """The sample correlation matrix of an n x p matrix, built as ``fit``
    builds it: the compiled standardize on its columns (by ``params``, or by
    the matrix's own), stacked, then ``standardized_correlation``."""
    data = np.asarray(data, dtype=float)
    if params is None:
        params = fit_standardizer(data)
    columns = compiled_standardize(params)(data.T, np.zeros(len(data)))
    return standardized_correlation(np.column_stack(columns), params)


@pytest.fixture()
def corpus_dataset(corpus_file) -> Dataset:
    """A Dataset over the corpus file, not read yet: a Dataset is read once."""
    return Dataset(corpus_file)


@pytest.fixture(scope="session")
def corpus_counts(corpus_file) -> Dataset:
    """The corpus file's Dataset, read through: its counts."""
    return read_through(Dataset(corpus_file))


@pytest.fixture(scope="session")
def corpus_records(corpus_lines) -> list:
    return [parse_record(line) for line in corpus_lines]


@pytest.fixture(scope="session")
def corpus_labels(corpus_records) -> list:
    return [categorize_attack(record.label) for record in corpus_records]


@pytest.fixture(scope="session")
def corpus_normals(corpus_records, corpus_labels) -> list:
    return [record for record, label in zip(corpus_records, corpus_labels) if not label.is_attack]


@pytest.fixture(scope="session")
def basic6_model(corpus_file):
    return fit(Dataset(corpus_file), BASIC6)


@pytest.fixture(scope="session")
def traffic10_model(corpus_file):
    return fit(Dataset(corpus_file), TRAFFIC10, TrainerConfig(q_override=3, r_override=2))


@pytest.fixture(scope="session")
def kdd_path() -> str:
    path = find_kdd_path()
    if path is None:
        pytest.skip(
            f"KDDTrain_20Percent not found: set {DATA_ENV} or place the file "
            "under data/ (see README)"
        )
    return path


@pytest.fixture()
def kdd_dataset(kdd_path) -> Dataset:
    return Dataset(kdd_path)


@pytest.fixture(scope="session")
def kdd_records(kdd_path) -> list:
    """The valid records of the real file."""
    return [record for block, _ in Dataset(kdd_path) for record in block]
