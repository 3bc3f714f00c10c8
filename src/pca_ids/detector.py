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
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .kdd import ConnectionRecord, _new_tuple, _parse_lines, encode_matrix, extract_features
from .mvstats import EIGENVALUE_FLOOR, _literal

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
    """One classify_stream item: a verdict or a per-line error."""

    line_no: int
    verdict: Verdict | None = None
    error: str | None = None


def _scorer(eigenvalues, eigenvectors, q: int, r: int):
    """The one scorer of a model, compiled once from its lists (row k of
    ``eigenvectors`` pairs with ``eigenvalues[k]``): ``score(z, zero=0.0)``
    returns the sums of y_i^2 / lambda_i over the q major and the r minor
    components, with lambda_i floored at ``EIGENVALUE_FLOOR``.

    The body is the stated order written out, one IEEE operation per
    statement, with the model's numbers as literals: y_i = z_1*v_1i, then
    y_i = y_i + z_j*v_ji in profile order; each score is ``zero``, then adds
    y_i*y_i/lambda_i in component order. ``z`` is one record's p standardized
    floats, or a block's p columns with a zero column as ``zero``, so a record
    scores to the same bits alone and in any block. Not ``y ** 2``: a float's
    raises OverflowError, not inf. A block's inf, or NaN from inf * 0 or
    inf - inf, is an attack as alone: callers ignore numpy's warnings of them.
    One statement per term keeps even p = q + r = 41 within the compiler's
    nesting limits.

    Raises:
        ValueError: a scored constant is NaN or infinite, or a scored
            eigenvector does not have p entries.
    """
    p = len(eigenvalues)
    scored = [*range(q), *range(p - r, p)]  # the first q and the last r
    body = [", ".join(f"z{j}" for j in range(p)) + ", = z"]
    for i, k in enumerate(scored):
        row = eigenvectors[k]
        if len(row) != p:
            raise ValueError(f"eigenvectors[{k}] has {len(row)} entries, not {p}")
        terms = [f"z{j} * {_literal(v, f'eigenvectors[{k}][{j}]')}" for j, v in enumerate(row)]
        body.append(f"y{i} = {terms[0]}")
        body += [f"y{i} = y{i} + {term}" for term in terms[1:]]
    for total, components in (("major", range(q)), ("minor", range(q, len(scored)))):
        body.append(f"{total} = zero")
        for i in components:
            k = scored[i]
            floored = _literal(max(eigenvalues[k], EIGENVALUE_FLOOR), f"eigenvalues[{k}]")
            body.append(f"{total} = {total} + y{i} * y{i} / {floored}")
    body.append("return major, minor")
    source = "def score(z, zero=0.0):\n" + "".join(f"    {line}\n" for line in body)
    namespace: dict = {}
    exec(compile(source, "<pca_ids.detector._scorer>", "exec"), namespace)
    return namespace["score"]


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
    """The one verdict rule, which ``classify`` applies to every record, read
    from a file or a feed: one record's two float scores, each strictly over
    its threshold or NaN. The minor test runs only when the model has a
    t_minor, so never at r = 0."""
    over_minor = model.t_minor is not None and _exceeds(minc, model.t_minor)
    trigger = _TRIGGERS[_exceeds(majc, model.t_major), over_minor]
    return _new_tuple(Verdict, (trigger is not Trigger.NONE, majc, minc, trigger, unknown_token))


def classify(model: "PcaModel", record: ConnectionRecord) -> Verdict:
    """Score one record against the model and apply the two-threshold rule:
    the model's compiled standardize and scorer on its Python floats."""
    values, unknown_token = extract_features(record, model.profile, model.encoder)
    return _verdict(model, *model.scorer(model.standardize(values)), unknown_token)


def score_records(
    model: "PcaModel", records: Sequence[ConnectionRecord]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score many records as one matrix; returns (major, minor, unknown-flag).

    Each score is bit-identical to the one ``classify`` gives the record.
    ``evaluate`` and ``sweep`` score their blocks with it; ``classify`` never
    does, so it imports no numpy.
    """
    import numpy as np

    X, unknown = encode_matrix(records, model.profile, model.encoder)
    zero = np.zeros(len(X))
    with np.errstate(over="ignore", invalid="ignore"):
        majc, minc = model.scorer(model.standardize(X.T, zero), zero)
    return majc, minc, unknown


def classify_stream(model: "PcaModel", lines: Iterable[str]) -> Iterator[StreamVerdict]:
    """Classify a stream of NSL-KDD text lines, one item per non-blank line.

    Each line is scored as it arrives, so a live feed gets its verdict
    before the next line is read; a file is read the same way, one line at a
    time. Malformed lines yield an error item instead of stopping the
    stream; order follows the input.
    """
    for line_no, record, error in _parse_lines(enumerate(lines, start=1), allow_unlabeled=True):
        verdict = None if record is None else classify(model, record)
        yield _new_tuple(StreamVerdict, (line_no, verdict, error))
