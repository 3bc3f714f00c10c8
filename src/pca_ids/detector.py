"""Online classification: map records into the eigenspace and threshold.

A record is an attack when its major-component score exceeds t_major or,
when minor components are in play, its minor-component score exceeds
t_minor. Both comparisons are strict, so a score equal to its threshold
stays normal. A NaN score exceeds every threshold: a record whose features
overflow the standardization is an attack, never a silent normal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .kdd import (
    ConnectionRecord,
    MalformedRow,
    encode_matrix,
    extract_features,
    parse_record,
)
from .mvstats import project, standardize

if TYPE_CHECKING:
    from .trainer import PcaModel


class Trigger(Enum):
    NONE = "none"
    MAJOR = "major"
    MINOR = "minor"
    BOTH = "both"


@dataclass(frozen=True)
class Verdict:
    """Classification of one record with both component scores."""

    is_attack: bool
    major_score: float
    minor_score: float
    trigger: Trigger
    unknown_token: bool = False

    def to_line(self) -> str:
        """One-line wire form: verdict=... majc=... minc=... trigger=..."""
        kind = "attack" if self.is_attack else "normal"
        line = (
            f"verdict={kind} majc={self.major_score!r} "
            f"minc={self.minor_score!r} trigger={self.trigger.value}"
        )
        if self.unknown_token:
            line += " unknown_token=true"
        return line


@dataclass(frozen=True)
class StreamVerdict:
    """One classify_stream output item: a verdict or a per-line error."""

    line_no: int
    verdict: Verdict | None = None
    error: str | None = None


def _score_sums(y: np.ndarray, floored: np.ndarray, q: int, r: int):
    """Sums of y_i^2 / lambda_i over the first q and over the last r components.

    ``floored`` holds ``EigenPairs.floored_values``. A p-vector gives
    floats, an n x p matrix one sum per row. This is the only scorer:
    ``train`` scores its training normals with it, and ``classify``,
    ``evaluate`` and ``sweep`` score records with it through ``_scores``.
    """
    terms = y * y / floored
    p = terms.shape[-1]
    major = terms[..., :q].sum(axis=-1)
    minor = terms[..., p - r :].sum(axis=-1)
    if major.ndim == 0:
        return float(major), float(minor)
    return major, minor


def _scores(model: "PcaModel", x: np.ndarray):
    """(major, minor) scores of one encoded p-vector or of an n x p matrix."""
    y = project(standardize(x, model.standardizer), model.eigen)
    return _score_sums(y, model.eigen.floored_values, model.q, model.r)


def _exceeds(score, threshold):
    """score > threshold, where a NaN score exceeds every threshold but NaN."""
    return (score > threshold) | ((score != score) & (threshold == threshold))


def over_thresholds(majc, minc, t_major: float, t_minor: float | None, r: int):
    """The strict two-threshold rule: (over_major, over_minor).

    Works on scalars and on score arrays alike; the minor test is False
    when no minor components are in play.
    """
    over_minor = r > 0 and t_minor is not None and _exceeds(minc, t_minor)
    return _exceeds(majc, t_major), over_minor


_TRIGGERS = {
    (False, False): Trigger.NONE,
    (True, False): Trigger.MAJOR,
    (False, True): Trigger.MINOR,
    (True, True): Trigger.BOTH,
}


def classify(model: "PcaModel", record: ConnectionRecord) -> Verdict:
    """Score one record against the model and apply the two-threshold rule."""
    fv = extract_features(record, model.profile, model.encoder)
    majc, minc = _scores(model, fv.values)
    trigger = _TRIGGERS[over_thresholds(majc, minc, model.t_major, model.t_minor, model.r)]
    return Verdict(trigger is not Trigger.NONE, majc, minc, trigger, fv.unknown_token)


def score_records(
    model: "PcaModel", records: Sequence[ConnectionRecord]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score many records as one matrix; returns (major, minor, unknown-flag).

    Each score is bit-identical to the one ``classify`` gives the record.
    """
    X, unknown = encode_matrix(records, model.profile, model.encoder)
    majc, minc = _scores(model, X)
    return majc, minc, unknown


def classify_stream(model: "PcaModel", lines: Iterable[str]) -> Iterator[StreamVerdict]:
    """Classify a stream of NSL-KDD text lines, one item per non-blank line.

    Unlabeled 41-field rows are accepted. Malformed lines yield an error
    item instead of stopping the stream; order follows the input.
    """
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = parse_record(line, line_no, allow_unlabeled=True)
        except MalformedRow as err:
            yield StreamVerdict(line_no, error=str(err))
            continue
        yield StreamVerdict(line_no, verdict=classify(model, record))
