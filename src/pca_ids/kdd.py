"""NSL-KDD connection-record parsing, labeling, and feature encoding.

Input format: one record per line, comma separated, with 41 features
followed by a label and an optional difficulty integer. Labels may carry
a KDD99-style trailing period. Three features (protocol_type, service,
flag) are token valued; every other feature is a number: any literal that
Python's ``float`` reads as a finite value >= 0, with whitespace around it
allowed (``-0``, ``+3``, ``1e5``, ``1_0`` and ``.5`` all count).

Most lines are canonical: plain ASCII digits with an optional fraction and
at most 300 integer digits, tokens and label of printable ASCII without
space or comma, a difficulty of at most 18 digits, and no whitespace but
around the line. ``parse_record`` accepts those with one pattern match and
no ``float`` call; every other line takes the per-field path, which alone
decides and words each rejection, and costs a few microseconds more.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from math import inf
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

N_RAW_FEATURES = 41

# Error handler for decoding record text, on files and stdin alike.
DECODE_ERRORS = "surrogateescape"

# How many malformed rows a Dataset keeps the line number and message of.
MAX_ERROR_DETAIL = 10

# Lines that train, evaluate and sweep read ahead and handle as one block;
# classify reads one line at a time.
CHUNK_LINES = 1024

# 1-based positions of the token-valued features in the 41-column layout.
CATEGORICAL_POSITIONS = (2, 3, 4)

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

    @property
    def is_attack(self) -> bool:
        return self is not AttackCategory.NORMAL


ATTACK_CATEGORIES = (
    AttackCategory.DOS,
    AttackCategory.PROBE,
    AttackCategory.R2L,
    AttackCategory.U2R,
    AttackCategory.UNKNOWN,
)

# A record's class code is its category's index here: NORMAL is 0, then
# the attack categories with UNKNOWN last.
CLASSES = (AttackCategory.NORMAL, *ATTACK_CATEGORIES)

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
    "normal": AttackCategory.NORMAL,
    **{name: category for category, names in _TAXONOMY.items() for name in names},
}


def normalize_label(raw_name: str) -> str:
    """Strip whitespace and the KDD99 trailing period from a label token."""
    return raw_name.strip().rstrip(".")


def categorize_attack(raw_name: str) -> AttackCategory:
    """Map a label token to its category in the four-category attack taxonomy.

    "normal" maps to NORMAL; the 22 standard KDD99 attack names map to
    DOS/PROBE/R2L/U2R; anything else is still an attack but lands in UNKNOWN.
    """
    return _NAME_TO_CATEGORY.get(normalize_label(raw_name).lower(), AttackCategory.UNKNOWN)


class ConnectionRecord(NamedTuple):
    """One parsed connection record: the text of its 41 fields, comma-joined
    and each stripped, plus optional label. One string holds a record in
    about a third of the memory of a tuple of 41; no field holds a comma."""

    text: str
    label: str | None
    difficulty: int | None = None


# Builds a NamedTuple from one tuple of fields, skipping its Python-level
# __new__: ConnectionRecord, FeatureVector, Verdict and StreamVerdict.
_new_tuple = tuple.__new__

# A canonical line, stripped: groups are the 41 features, the label and the
# difficulty. At most 300 integer digits keep every number, and the sum of
# all 38, finite. The fraction is spelled "(?:\.[0-9]*|)" for speed alone:
# with "(?:\.[0-9]*)?" a line matches about 40% slower.
_NUMBER = r"[0-9]{1,300}(?:\.[0-9]*|)"
_TOKEN = r"[\x21-\x2b\x2d-\x7e]+"  # printable ASCII but space and comma
_CANONICAL_LINE = re.compile(
    rf"({_NUMBER},{_TOKEN},{_TOKEN},{_TOKEN}(?:,{_NUMBER}){{37}})"
    rf"(?:,({_TOKEN})(?:,([0-9]{{1,18}}))?)?"
)


def parse_record(
    line: str, line_no: int = 0, allow_unlabeled: bool = False
) -> ConnectionRecord:
    """Parse one comma-separated row into a ConnectionRecord.

    Accepts 42 fields (features + label) or 43 (+ difficulty). With
    ``allow_unlabeled`` a bare 41-field row is also accepted, for pure
    detection streams. A numeric field is any literal that ``float`` reads
    as a finite value >= 0, with whitespace around it allowed.

    A canonical line (see the module docstring) is accepted by one match of
    ``_CANONICAL_LINE``, whose first group is the record's text, with no
    ``float`` call: each number is converted once, by ``extract_features``.
    Any other line goes to ``_parse_fields``, which gives the same record
    or the rejection.

    Raises:
        MalformedRow: wrong field count, a numeric field that is not a
            finite non-negative number, or bytes that are not UTF-8 (which
            ``open_text`` decodes to lone surrogates).
    """
    match = _CANONICAL_LINE.fullmatch(line.strip())
    if match is not None:
        features, label, difficulty = match.groups()
        if label is not None:
            difficulty = None if difficulty is None else int(difficulty)
            return _new_tuple(ConnectionRecord, (features, label.rstrip("."), difficulty))
        if allow_unlabeled:
            return _new_tuple(ConnectionRecord, (features, None, None))
    return _parse_fields(line, line_no, allow_unlabeled)


def _parse_fields(line: str, line_no: int, allow_unlabeled: bool) -> ConnectionRecord:
    """``parse_record`` for any line, one field at a time; the only code that
    words a MalformedRow."""
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
    _check_fields(features, line_no)
    return ConnectionRecord(",".join(features), label, difficulty)


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
        if not 0.0 <= number < inf:  # NaN compares false
            raise MalformedRow(
                f"numeric field at position {position} must be finite and >= 0, "
                f"got {value!r}",
                line_no,
            )


def _parse_lines(
    numbered: Iterable[tuple[int, str]], allow_unlabeled: bool = False
) -> Iterator[tuple[int, ConnectionRecord | None, str | None]]:
    """(line_no, record, None) per non-blank line, (line_no, None, error) if malformed.

    The one line loop: ``classify_stream`` reads its lines through it, and
    ``Dataset`` through ``_blocks``. Private, so a tracer that wraps
    public names adds no span per item.
    """
    for line_no, line in numbered:
        if not line.strip():
            continue
        try:
            record = parse_record(line, line_no, allow_unlabeled)
        except MalformedRow as err:
            yield line_no, None, str(err)
            continue
        yield line_no, record, None


def _blocks(
    lines: Iterable[str],
) -> Iterator[list[tuple[int, ConnectionRecord | None, str | None]]]:
    """The one block loop: the ``_parse_lines`` items of CHUNK_LINES labeled
    lines at a time, numbered from 1. ``Dataset`` reads its file through it,
    for ``train``, ``evaluate`` and ``sweep``, and each handles a block as
    one matrix; ``classify`` reads one line at a time."""
    numbered = enumerate(lines, start=1)
    while chunk := list(islice(numbered, CHUNK_LINES)):
        yield list(_parse_lines(chunk))


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
    # The indices at token fields, the columns that take an encoder code. A
    # plain attribute, not a property: the n=1 path reads it on every record.
    categorical_indices: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.indices:
            raise ValueError("a profile needs at least one index")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("profile indices must be strictly increasing")
        if any(i < 1 or i > N_RAW_FEATURES for i in self.indices):
            raise ValueError("profile indices must be within 1..41")
        tokens = tuple(i for i in self.indices if i in CATEGORICAL_POSITIONS)
        object.__setattr__(self, "categorical_indices", tokens)

    @property
    def p(self) -> int:
        return len(self.indices)

    def feature_names(self) -> list[str]:
        return [FEATURE_NAMES.get(i, f"f{i}") for i in self.indices]


BASIC6 = FeatureProfile("basic6", (1, 2, 3, 4, 5, 6))
TRAFFIC10 = FeatureProfile("traffic10", (1, 2, 3, 4, 5, 6, 23, 24, 32, 33))
PROFILES = {BASIC6.name: BASIC6, TRAFFIC10.name: TRAFFIC10}


class Dataset:
    """One pass over labeled records in blocks, and the counts it made.

    ``Dataset(path)`` reads the file at ``path`` CHUNK_LINES lines at a
    time and skips malformed rows; ``Dataset(source, blocks)`` takes lists
    of parsed records. Iterating yields each block's records with their
    class codes, indices into ``CLASSES``, and keeps neither: a Dataset is
    read once. Its counts are set when the pass ends.

    Raises (while iterating):
        OSError: the file cannot be read.
        EmptyDatasetError: no valid rows at all.
    """

    def __init__(self, source: str, blocks: Iterable[list[ConnectionRecord]] | None = None):
        self.source = str(source)
        self._blocks = self._read_file() if blocks is None else blocks
        self.class_counts = [0] * len(CLASSES)
        self.malformed_count = 0
        # (line number, message) of the first MAX_ERROR_DETAIL malformed rows
        self.malformed_lines: list[tuple[int, str]] = []

    def _read_file(self) -> Iterator[list[ConnectionRecord]]:
        malformed, detail = 0, []
        with open_text(self.source) as handle:
            for block in _blocks(handle):
                errors = [(line_no, error) for line_no, _, error in block if error is not None]
                malformed += len(errors)
                detail += errors[: MAX_ERROR_DETAIL - len(detail)]
                yield [record for _, record, _ in block if record is not None]
        self.malformed_count, self.malformed_lines = malformed, detail

    def __iter__(self) -> Iterator[tuple[list[ConnectionRecord], list[int]]]:
        blocks, self._blocks = self._blocks, None
        if blocks is None:
            raise ValueError(f"{self.source} was read already; a Dataset is read once")
        counts: Counter[int] = Counter()
        code_of: dict[str | None, int] = {}  # each distinct label, once per pass
        for records in blocks:
            codes = []
            for record in records:
                code = code_of.get(record.label)
                if code is None:  # a record with no label is UNKNOWN
                    code = code_of[record.label] = CLASSES.index(
                        categorize_attack(record.label or "")
                    )
                codes.append(code)
            counts.update(codes)
            yield records, codes
        self.class_counts = [counts[code] for code in range(len(CLASSES))]
        if not len(self):
            raise EmptyDatasetError(f"no valid records in {self.source}")

    def __len__(self) -> int:
        return sum(self.class_counts)

    @property
    def n_normal(self) -> int:
        return self.class_counts[0]

    @property
    def n_attack(self) -> int:
        return len(self) - self.n_normal

    def category_counts(self) -> dict[AttackCategory, int]:
        return dict(zip(ATTACK_CATEGORIES, self.class_counts[1:]))

    def summary(self) -> str:
        cats = self.category_counts()
        lines = [
            f"dataset: {self.source}",
            f"records: {len(self)}  normal: {self.n_normal}  "
            f"attacks: {self.n_attack}  malformed: {self.malformed_count}",
            "  ".join(f"{cat.value}: {cats[cat]}" for cat in ATTACK_CATEGORIES),
        ]
        return "\n".join(lines)


def encode_normals(
    dataset: Dataset, profile: FeatureProfile
) -> tuple[np.ndarray, dict[int, dict[str, int]]]:
    """The encoded rows of a dataset's normal records, in one pass, and the
    encoder learned from them: one token-to-code table per token field of
    the profile, keyed by its 1-based position.

    Codes are dense 0..K-1 integers in sorted token order, so the same
    records always give the same mapping; an unseen token maps to code K,
    one past the largest. A block's new tokens take the next codes as they
    first appear, so the block is encoded at once; at the end the codes,
    and the matrix's token columns, are renumbered into sorted order.

    Raises:
        EmptyDatasetError: no normal records, once the pass has ended.
    """
    import numpy as np

    encoder: dict[int, dict[str, int]] = {
        position: {} for position in profile.categorical_indices
    }
    last = max(encoder, default=0)
    # The rows go to one growing buffer, not to a list of block matrices:
    # joining those would hold every row twice, and the freed blocks would
    # stay in the process's heap.
    rows = bytearray()
    for records, codes in dataset:
        normals = [record for record, code in zip(records, codes) if not code]
        for record in normals:
            fields = record.text.split(",", last)
            for position, table in encoder.items():
                table.setdefault(fields[position - 1], len(table))
        rows += encode_matrix(normals, profile, encoder)[0].tobytes()
    if not dataset.n_normal:
        raise EmptyDatasetError(f"no normal records in {dataset.source}")
    matrix = np.frombuffer(rows, dtype=float).reshape(-1, profile.p)
    for position, table in encoder.items():
        order = sorted(table)
        new_code = np.empty(len(order))
        new_code[[table[token] for token in order]] = np.arange(len(order))
        column = profile.indices.index(position)
        matrix[:, column] = new_code[matrix[:, column].astype(np.intp)]
        encoder[position] = {token: code for code, token in enumerate(order)}
    return matrix, encoder


class FeatureVector(NamedTuple):
    """Encoded profile columns of one record, and whether a token was unseen."""

    values: list[float]
    unknown_token: bool


def extract_features(
    record: ConnectionRecord,
    profile: FeatureProfile,
    encoder: dict[int, dict[str, int]],
) -> FeatureVector:
    """Encode a record into its profile columns as floats, in index order.

    The one row encoder: ``encode_matrix`` fills each of its rows from it.
    The text is split only as far as the profile's last field.
    """
    raw = record.text.split(",", profile.indices[-1])
    categorical = profile.categorical_indices
    values = []
    unknown = False
    for position in profile.indices:
        if position in categorical:
            table = encoder[position]
            code = table.get(raw[position - 1])
            if code is None:  # unseen: code K, one past the largest
                code, unknown = len(table), True
            values.append(float(code))
        else:
            values.append(float(raw[position - 1]))
    return _new_tuple(FeatureVector, (values, unknown))


def encode_matrix(
    records: Sequence[ConnectionRecord],
    profile: FeatureProfile,
    encoder: dict[int, dict[str, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Encode many records; returns (n x p matrix, unknown-token flags)."""
    import numpy as np

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
