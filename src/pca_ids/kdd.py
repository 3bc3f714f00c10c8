"""NSL-KDD connection-record parsing, labeling, and feature encoding.

Input format: one record per line, comma separated, with 41 features
followed by a label and an optional difficulty integer. Labels may carry
a KDD99-style trailing period. Three features (protocol_type, service,
flag) are token valued; every other feature is a non-negative decimal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from math import isfinite
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

N_RAW_FEATURES = 41

# Error handler for decoding record text, on files and stdin alike.
DECODE_ERRORS = "surrogateescape"

# How many malformed rows load_dataset keeps the line number and message of.
MAX_ERROR_DETAIL = 10

# 1-based positions of the token-valued features in the 41-column layout.
CATEGORICAL_POSITIONS = (2, 3, 4)

# The token fields and the 38 numeric fields of a 41-field list.
_token_fields = itemgetter(*(p - 1 for p in CATEGORICAL_POSITIONS))
_numeric_fields = itemgetter(
    *(p - 1 for p in range(1, N_RAW_FEATURES + 1) if p not in CATEGORICAL_POSITIONS)
)

FEATURE_NAMES = {
    1: "duration",
    2: "protocol_type",
    3: "service",
    4: "flag",
    5: "src_bytes",
    6: "dst_bytes",
    23: "count",
    24: "srv_count",
    32: "dst_host_count",
    33: "dst_host_srv_count",
}


class MalformedRow(ValueError):
    """A line that cannot be parsed into a 41-feature record."""

    def __init__(self, message: str, line_no: int = 0):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no


class EmptyDatasetError(ValueError):
    """A file (or filtered subset) produced zero usable records."""


class AttackCategory(Enum):
    NORMAL = "NORMAL"
    DOS = "DOS"
    PROBE = "PROBE"
    R2L = "R2L"
    U2R = "U2R"
    UNKNOWN = "UNKNOWN"


ATTACK_CATEGORIES = (
    AttackCategory.DOS,
    AttackCategory.PROBE,
    AttackCategory.R2L,
    AttackCategory.U2R,
    AttackCategory.UNKNOWN,
)

# Standard KDD99 four-category taxonomy for the 22 training attack names.
_TAXONOMY = {
    AttackCategory.DOS: ("back", "land", "neptune", "pod", "smurf", "teardrop"),
    AttackCategory.PROBE: ("satan", "ipsweep", "nmap", "portsweep"),
    AttackCategory.R2L: (
        "guess_passwd",
        "ftp_write",
        "imap",
        "phf",
        "multihop",
        "warezmaster",
        "warezclient",
        "spy",
    ),
    AttackCategory.U2R: ("buffer_overflow", "loadmodule", "rootkit", "perl"),
}

_NAME_TO_CATEGORY = {
    name: category for category, names in _TAXONOMY.items() for name in names
}


@dataclass(frozen=True)
class Label:
    """Ground-truth class of one record."""

    is_attack: bool
    category: AttackCategory
    raw_name: str


def normalize_label(raw_name: str) -> str:
    """Strip whitespace and the KDD99 trailing period from a label token."""
    return raw_name.strip().rstrip(".")


def categorize_attack(raw_name: str) -> Label:
    """Map a label token to the four-category attack taxonomy.

    "normal" maps to the NORMAL category; the 22 standard KDD99 attack
    names map to DOS/PROBE/R2L/U2R; anything else is still an attack but
    lands in UNKNOWN.
    """
    name = normalize_label(raw_name)
    if name.lower() == "normal":
        return Label(False, AttackCategory.NORMAL, name)
    category = _NAME_TO_CATEGORY.get(name.lower(), AttackCategory.UNKNOWN)
    return Label(True, category, name)


@dataclass(frozen=True)
class ConnectionRecord:
    """One parsed connection record: 41 raw fields plus optional label."""

    raw_features: tuple[str, ...]
    label: str | None
    difficulty: int | None = None

    def feature(self, position: int) -> str:
        """Raw field at a 1-based position."""
        return self.raw_features[position - 1]


def parse_record(
    line: str, line_no: int = 0, allow_unlabeled: bool = False
) -> ConnectionRecord:
    """Parse one comma-separated row into a ConnectionRecord.

    Accepts 42 fields (features + label) or 43 (+ difficulty). With
    ``allow_unlabeled`` a bare 41-field row is also accepted, for pure
    detection streams.

    Raises:
        MalformedRow: wrong field count, a numeric field that is not a
            finite non-negative decimal, or bytes that are not UTF-8 (which
            ``open_text`` decodes to lone surrogates).
    """
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedRow("line is not valid UTF-8", line_no)
    fields = list(map(str.strip, line.strip().split(",")))
    n = len(fields)
    label: str | None = None
    difficulty: int | None = None

    if n == N_RAW_FEATURES + 2:
        label = normalize_label(fields[N_RAW_FEATURES])
        raw_difficulty = fields[N_RAW_FEATURES + 1]
        try:
            difficulty = int(raw_difficulty)
        except ValueError:
            raise MalformedRow(f"bad difficulty field {raw_difficulty!r}", line_no)
    elif n == N_RAW_FEATURES + 1:
        label = normalize_label(fields[N_RAW_FEATURES])
    elif n == N_RAW_FEATURES and allow_unlabeled:
        pass
    else:
        raise MalformedRow(f"expected 42 or 43 fields, got {n}", line_no)

    features = fields[:N_RAW_FEATURES]
    # One pass over all numeric fields: every number >= 0 and a finite sum
    # means every number is finite. A line that fails this (or overflows
    # the sum with finite values) goes to the per-field check, which alone
    # decides and words the rejection.
    try:
        numbers = list(map(float, _numeric_fields(features)))
        valid = all(_token_fields(features)) and min(numbers) >= 0.0 and isfinite(sum(numbers))
    except ValueError:
        valid = False
    if not valid:
        _check_fields(features, line_no)
    return ConnectionRecord(tuple(features), label, difficulty)


def _check_fields(features: list[str], line_no: int) -> None:
    """Raise MalformedRow for the first bad field of a 41-field list, if any."""
    for position, value in enumerate(features, start=1):
        if position in CATEGORICAL_POSITIONS:
            if not value:
                raise MalformedRow(f"empty token at position {position}", line_no)
            continue
        try:
            number = float(value)
        except ValueError:
            raise MalformedRow(
                f"non-numeric value {value!r} at position {position}", line_no
            )
        if not isfinite(number) or number < 0:
            raise MalformedRow(
                f"numeric field at position {position} must be finite and >= 0, "
                f"got {value!r}",
                line_no,
            )


def open_text(path: str):
    """Open a record file for reading as UTF-8.

    Undecodable bytes become lone surrogates instead of aborting the read,
    so ``parse_record`` rejects just the line that holds them.
    """
    return open(path, "r", encoding="utf-8", errors=DECODE_ERRORS)


@dataclass(frozen=True)
class FeatureProfile:
    """An active subset of the 41 raw features, in column order."""

    name: str
    indices: tuple[int, ...]
    categorical_indices: tuple[int, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("profile indices must be strictly increasing")
        if any(i < 1 or i > N_RAW_FEATURES for i in self.indices):
            raise ValueError("profile indices must be within 1..41")
        if any(i not in self.indices for i in self.categorical_indices):
            raise ValueError("categorical indices must be a subset of indices")

    @property
    def p(self) -> int:
        return len(self.indices)

    def feature_names(self) -> list[str]:
        return [FEATURE_NAMES.get(i, f"f{i}") for i in self.indices]


BASIC6 = FeatureProfile("basic6", (1, 2, 3, 4, 5, 6), CATEGORICAL_POSITIONS)
TRAFFIC10 = FeatureProfile(
    "traffic10", (1, 2, 3, 4, 5, 6, 23, 24, 32, 33), CATEGORICAL_POSITIONS
)
PROFILES = {BASIC6.name: BASIC6, TRAFFIC10.name: TRAFFIC10}


@dataclass
class Dataset:
    """Parsed records with labels plus parse bookkeeping."""

    records: list[ConnectionRecord]
    labels: list[Label]
    source: str
    malformed_count: int = 0
    malformed_lines: list[tuple[int, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def n_normal(self) -> int:
        return sum(1 for lab in self.labels if not lab.is_attack)

    @property
    def n_attack(self) -> int:
        return len(self.labels) - self.n_normal

    def category_counts(self) -> dict[AttackCategory, int]:
        counts = Counter(lab.category for lab in self.labels)
        return {cat: counts.get(cat, 0) for cat in ATTACK_CATEGORIES}

    def normal_records(self) -> list[ConnectionRecord]:
        return [rec for rec, lab in zip(self.records, self.labels) if not lab.is_attack]

    def summary(self) -> str:
        cats = self.category_counts()
        lines = [
            f"dataset: {self.source}",
            f"records: {len(self)}  normal: {self.n_normal}  "
            f"attacks: {self.n_attack}  malformed: {self.malformed_count}",
            "  ".join(f"{cat.value}: {cats[cat]}" for cat in ATTACK_CATEGORIES),
        ]
        return "\n".join(lines)


def load_dataset(path: str) -> Dataset:
    """Load a labeled NSL-KDD text file.

    Malformed rows are skipped and counted (with the first
    MAX_ERROR_DETAIL line numbers and messages retained); only I/O failures
    or a fully unusable file abort the load.

    Raises:
        OSError: the file cannot be read.
        EmptyDatasetError: no valid rows at all.
    """
    records: list[ConnectionRecord] = []
    labels: list[Label] = []
    # Label is frozen, so records with the same label string share one.
    label_of: dict[str, Label] = {}
    malformed = 0
    detail: list[tuple[int, str]] = []

    with open_text(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = parse_record(line, line_no)
            except MalformedRow as err:
                malformed += 1
                if len(detail) < MAX_ERROR_DETAIL:
                    detail.append((line_no, str(err)))
                continue
            records.append(record)
            name = record.label or ""
            label = label_of.get(name)
            if label is None:
                label = label_of[name] = categorize_attack(name)
            labels.append(label)

    if not records:
        raise EmptyDatasetError(f"no valid records in {path}")
    return Dataset(records, labels, str(path), malformed, detail)


@dataclass(frozen=True)
class CategoricalEncoder:
    """Token-to-integer tables for the categorical features of a profile.

    Codes are dense 0..K-1 integers assigned in sorted token order, so a
    rebuild over the same data always yields the same mapping. Unknown
    tokens map to code K, one past the largest.
    """

    tables: dict[int, dict[str, int]]

    def positions(self) -> tuple[int, ...]:
        return tuple(sorted(self.tables))

    def size(self, position: int) -> int:
        return len(self.tables[position])

    def encode(self, position: int, token: str) -> tuple[int, bool]:
        """Return (code, known) for a token of the feature at `position`."""
        table = self.tables[position]
        code = table.get(token)
        if code is not None:
            return code, True
        return len(table), False


def build_encoder(
    dataset: Dataset | Sequence[ConnectionRecord],
    profile: FeatureProfile,
) -> CategoricalEncoder:
    """Build deterministic token tables from observed training records."""
    records = dataset.records if isinstance(dataset, Dataset) else dataset
    if not records:
        raise EmptyDatasetError("cannot build an encoder from zero records")

    tables: dict[int, dict[str, int]] = {}
    for position in profile.categorical_indices:
        tokens = {rec.feature(position) for rec in records}
        tables[position] = {tok: code for code, tok in enumerate(sorted(tokens))}
    return CategoricalEncoder(tables)


class FeatureVector(NamedTuple):
    """Encoded profile columns of one record, and whether a token was unseen."""

    values: list[float]
    unknown_token: bool


_new_tuple = tuple.__new__


def extract_features(
    record: ConnectionRecord,
    profile: FeatureProfile,
    encoder: CategoricalEncoder,
) -> FeatureVector:
    """Encode a record into its profile columns as floats, in index order.

    The one row encoder: ``encode_matrix`` fills each of its rows from it.
    """
    raw = record.raw_features
    categorical = profile.categorical_indices
    values = []
    unknown = False
    for position in profile.indices:
        if position in categorical:
            code, known = encoder.encode(position, raw[position - 1])
            values.append(float(code))
            unknown = unknown or not known
        else:
            values.append(float(raw[position - 1]))
    # tuple.__new__ skips FeatureVector's Python-level __new__, about
    # 0.15 us of a 3 us row (2 vCPU).
    return _new_tuple(FeatureVector, (values, unknown))


def encode_matrix(
    records: Sequence[ConnectionRecord],
    profile: FeatureProfile,
    encoder: CategoricalEncoder,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode many records; returns (n x p matrix, unknown-token flags)."""
    # Filled in place: a list of rows handed to np.array would hold every
    # row twice at the peak. Each row goes through the module-level name
    # extract_features, so a wrapper bound to that name (perfbench's tracer
    # counts unknown tokens that way) sees every record of every path.
    matrix = np.empty((len(records), profile.p), dtype=float)
    unknown = []
    for k, record in enumerate(records):
        matrix[k], flag = extract_features(record, profile, encoder)
        unknown.append(flag)
    return matrix, np.array(unknown, dtype=bool)
