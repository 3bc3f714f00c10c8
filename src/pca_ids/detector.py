"""Online classification: map records into the eigenspace and threshold.

A record is an attack when its major-component score exceeds t_major or,
when the model has a t_minor (exactly when r > 0), its minor-component
score exceeds t_minor. Both comparisons are strict, so a score equal to
its threshold stays normal. A NaN score exceeds every threshold: a record
whose features overflow the standardization is an attack, never a silent
normal.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .kdd import (
    ConnectionRecord,
    _blocks,
    _new_tuple,
    _parse_lines,
    encode_matrix,
    extract_features,
)
from .mvstats import EIGENVALUE_FLOOR, _fold, _standardize

if TYPE_CHECKING:
    import numpy as np

    from .trainer import PcaModel


class Trigger(Enum):
    NONE = "none"
    MAJOR = "major"
    MINOR = "minor"
    BOTH = "both"


class Verdict(NamedTuple):
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


class StreamVerdict(NamedTuple):
    """One classify_stream or classify_file item: a verdict or a per-line error."""

    line_no: int
    verdict: Verdict | None = None
    error: str | None = None


class _Scorer(NamedTuple):
    """A model's scoring constants as lists: the scored eigenvector columns
    and their floored eigenvalues, the q major ones first."""

    columns: list[list[float]]
    floored: list[float]
    q: int


def _scorer(eigenvalues, eigenvectors, q: int, r: int) -> _Scorer:
    """The constants ``PcaModel.scorer`` holds, and ``fit`` scores with, from
    a model's lists: row k of ``eigenvectors`` pairs with ``eigenvalues[k]``."""
    scored = [*range(q), *range(-r, 0)]  # the first q and the last r
    return _Scorer(
        [eigenvectors[k] for k in scored],
        [max(eigenvalues[k], EIGENVALUE_FLOOR) for k in scored],
        q,
    )


def _score_sums(z, scorer: _Scorer, zero=0.0):
    """The one scorer: sums of y_i^2 / lambda_i over the q major and the r minor
    components of ``mvstats._fold``, each added to ``zero`` in component order.
    ``z`` is p standardized floats, or a block's p columns with a zero column as
    ``zero``. Not ``y ** 2``: a float's raises OverflowError, not inf. A block's
    inf, or NaN from inf * 0 or inf - inf, is an attack as alone: callers
    ignore numpy's warnings of them.
    """
    terms = [y * y / f for y, f in zip(_fold(z, scorer.columns), scorer.floored)]
    return reduce(add, terms[: scorer.q], zero), reduce(add, terms[scorer.q :], zero)


def _exceeds(score: float, threshold: float) -> bool:
    """score > threshold, where a NaN score exceeds every threshold but NaN."""
    return score > threshold or (score != score and threshold == threshold)


_TRIGGERS = {
    (False, False): Trigger.NONE,
    (True, False): Trigger.MAJOR,
    (False, True): Trigger.MINOR,
    (True, True): Trigger.BOTH,
}


def _verdict(model: "PcaModel", majc: float, minc: float, unknown_token: bool) -> Verdict:
    """The one verdict rule, for ``classify`` and ``classify_file``: one
    record's two float scores, each strictly over its threshold or NaN. The
    minor test runs only when the model has a t_minor, so never at r = 0."""
    over_minor = model.t_minor is not None and _exceeds(minc, model.t_minor)
    trigger = _TRIGGERS[_exceeds(majc, model.t_major), over_minor]
    return _new_tuple(Verdict, (trigger is not Trigger.NONE, majc, minc, trigger, unknown_token))


def classify(model: "PcaModel", record: ConnectionRecord) -> Verdict:
    """Score one record against the model and apply the two-threshold rule."""
    values, unknown_token = extract_features(record, model.profile, model.encoder)
    return _verdict(model, *_score_sums(_standardize(values, model), model.scorer), unknown_token)


def score_records(
    model: "PcaModel", records: Sequence[ConnectionRecord]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score many records as one matrix; returns (major, minor, unknown-flag).

    Each score is bit-identical to the one ``classify`` gives the record.
    """
    import numpy as np

    X, unknown = encode_matrix(records, model.profile, model.encoder)
    zero = np.zeros(len(X))
    with np.errstate(over="ignore", invalid="ignore"):
        majc, minc = _score_sums(_standardize(X.T, model, zero), model.scorer, zero)
    return majc, minc, unknown


def classify_stream(model: "PcaModel", lines: Iterable[str]) -> Iterator[StreamVerdict]:
    """Classify a stream of NSL-KDD text lines, one item per non-blank line.

    Each line is scored as it arrives, so a live feed gets its verdict
    before the next line is read. Malformed lines yield an error item
    instead of stopping the stream; order follows the input.
    """
    for line_no, record, error in _parse_lines(enumerate(lines, start=1), allow_unlabeled=True):
        verdict = None if record is None else classify(model, record)
        yield _new_tuple(StreamVerdict, (line_no, verdict, error))


def classify_file(model: "PcaModel", lines: Iterable[str]) -> Iterator[StreamVerdict]:
    """``classify_stream`` for input that is all there: the same items, faster.

    Reads ahead ``kdd.CHUNK_LINES`` lines at a time and scores the valid
    records of each block as one matrix with ``score_records``; the scores
    are bit-identical to those of ``classify``, and ``_verdict`` thresholds
    them as it does there.
    """
    for parsed in _blocks(lines, allow_unlabeled=True):
        majc, minc, unknown = score_records(
            model, [record for _, record, _ in parsed if record is not None]
        )
        # .tolist(): _verdict takes the Python floats and bools that classify has
        scored = zip(majc.tolist(), minc.tolist(), unknown.tolist())
        for line_no, record, error in parsed:
            verdict = None if record is None else _verdict(model, *next(scored))
            yield _new_tuple(StreamVerdict, (line_no, verdict, error))
