"""Versioned on-disk model format.

Models persist as human-readable JSON with explicit sections (profile,
encoder, standardizer, eigen, selection, thresholds, provenance). Floats
go through Python's shortest round-trip repr, so load(save(model)) is
bit-exact. Loading re-verifies the eigenstructure and rejects non-finite
values, which catches both hand-edited files and serialization bugs.

Set SOURCE_DATE_EPOCH to pin the provenance timestamp when byte-identical
model files matter.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .kdd import FeatureProfile
from .mvstats import _fold
from .trainer import PcaModel

FORMAT_VERSION = 1

# Residual ceilings for the load-time integrity gate. Serialized values
# round-trip exactly, so honest models sit orders of magnitude below.
ORTHONORMALITY_TOL = 1e-8
EIGEN_SUM_TOL = 1e-9


class ModelFormatError(ValueError):
    """The file is not a readable model document of this format version."""


class ModelIntegrityError(ValueError):
    """The document parsed but its contents fail verification."""


def _created_at() -> str:
    # only here: the import is 1.5-2 ms of every command's start-up
    from datetime import datetime, timezone

    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return datetime.now(tz=timezone.utc).isoformat(timespec="seconds")
    try:
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    except (ValueError, OverflowError, OSError) as err:
        raise ValueError(
            f"SOURCE_DATE_EPOCH must be a whole number of seconds since 1970 "
            f"that this platform can date, got {epoch!r}"
        ) from err
    return moment.isoformat(timespec="seconds")


def model_to_document(model: PcaModel) -> dict:
    """Build the JSON document for a fitted model."""
    provenance = dict(model.metadata)
    provenance["created_at"] = _created_at()
    return {
        "format_version": FORMAT_VERSION,
        "profile": {
            "name": model.profile.name,
            "indices": list(model.profile.indices),
            "categorical_indices": list(model.profile.categorical_indices),
        },
        "encoder": {
            str(position): dict(sorted(table.items()))
            for position, table in model.encoder.items()
        },
        "standardizer": {
            "mean": model.mean,
            "std": model.std,
            "degenerate": model.degenerate,
        },
        "eigen": {
            "values": model.eigenvalues,
            # rows are eigenvectors, in descending-eigenvalue order
            "vectors": model.eigenvectors,
        },
        "selection": {"q": model.q, "r": model.r},
        "thresholds": {
            "t_major": model.t_major,
            "t_minor": model.t_minor,
            "alpha_major": model.metadata.get("config", {}).get("alpha_major"),
            "alpha_minor": model.metadata.get("config", {}).get("alpha_minor"),
        },
        "provenance": provenance,
    }


# JSON value kinds a model field may hold: the types that count as one, the
# word that names it, and the type the model keeps it as.
_NUMBER = ((int, float), "number", float)
_INTEGER = ((int,), "integer", int)
_BOOLEAN = ((bool,), "boolean", bool)
_OBJECT = ((dict,), "object", dict)
_STRING = ((str,), "string", str)


def _lookup(doc: dict, path: str):
    value = doc
    for key in path.split("."):
        value = value[key]
    return value


def _check(path: str, value, kind: tuple[tuple[type, ...], str, type]):
    """``value`` as the model keeps a JSON value of ``kind``, else a
    ModelFormatError naming ``path``. A bool is only a boolean, though Python
    counts it an int, and a number is one only if a float holds it: JSON
    integers are unbounded.
    """
    types, noun, keep = kind
    if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
        text = json.dumps(value, default=repr)
        raise ModelFormatError(f"malformed model document: {path}: {text} is not a JSON {noun}")
    try:
        return keep(value)
    except OverflowError:
        raise ModelFormatError(
            f"malformed model document: {path}: a number too large for a float"
        ) from None


def _scalar(doc: dict, path: str, kind, nullable: bool = False):
    """The value at dotted ``path`` of ``doc``, a JSON ``kind`` (or null when
    ``nullable``)."""
    value = _lookup(doc, path)
    return value if nullable and value is None else _check(path, value, kind)


def _array(doc: dict, path: str, kind):
    """The value at dotted ``path`` of ``doc``, nested lists whose every
    entry is a JSON ``kind``, copied with each entry as ``_check`` keeps it;
    its shape is checked by ``verify_model``."""
    value = _lookup(doc, path)
    if not isinstance(value, list):
        return _check(path, value, kind)
    copy: list = []
    pending = [(value, copy)]
    while pending:
        items, into = pending.pop()
        for item in items:
            if isinstance(item, list):
                into.append([])
                pending.append((item, into[-1]))
            else:
                into.append(_check(path, item, kind))
    return copy


def model_from_document(doc: dict) -> PcaModel:
    """Rebuild a PcaModel from a parsed document (no integrity checks).

    Every number must be a JSON number, every mask entry a JSON boolean and
    every count or index a JSON integer: a string, a bool read as a number
    or a float read as a count would silently change verdicts. Numbers are
    kept as floats, in the document's nested lists.
    """
    try:
        version = doc["format_version"]
        if version != FORMAT_VERSION:
            raise ModelFormatError(
                f"model format version {version} is not supported "
                f"(this build reads version {FORMAT_VERSION})"
            )
        name = _scalar(doc, "profile.name", _STRING)
        indices = tuple(_array(doc, "profile.indices", _INTEGER))
        declared = tuple(_array(doc, "profile.categorical_indices", _INTEGER))
        profile = FeatureProfile(name, indices)
        if declared != profile.categorical_indices:
            raise ModelFormatError(
                f"malformed model document: categorical indices {declared} must be "
                f"the indices at token fields, {profile.categorical_indices}"
            )
        encoder = {}
        for pos, table in _check("encoder", doc["encoder"], _OBJECT).items():
            path = f"encoder.{pos}"
            if not (pos.isdecimal() and str(int(pos)) == pos):  # "02" would alias "2"
                raise ModelFormatError(f"malformed model document: {path}: key is not a position")
            encoder[int(pos)] = {
                token: _check(path, code, _INTEGER)
                for token, code in _check(path, table, _OBJECT).items()
            }
        model = PcaModel(
            profile=profile,
            encoder=encoder,
            mean=_array(doc, "standardizer.mean", _NUMBER),
            std=_array(doc, "standardizer.std", _NUMBER),
            degenerate=_array(doc, "standardizer.degenerate", _BOOLEAN),
            eigenvalues=_array(doc, "eigen.values", _NUMBER),
            eigenvectors=_array(doc, "eigen.vectors", _NUMBER),
            q=_scalar(doc, "selection.q", _INTEGER),
            r=_scalar(doc, "selection.r", _INTEGER),
            t_major=_scalar(doc, "thresholds.t_major", _NUMBER),
            t_minor=_scalar(doc, "thresholds.t_minor", _NUMBER, nullable=True),
            metadata=_check("provenance", doc.get("provenance", {}), _OBJECT),
        )
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise ModelFormatError(f"malformed model document: {err}") from err
    return model


@dataclass(frozen=True)
class Residual:
    """One integrity residual and whether it is within its tolerance."""

    value: float
    ok: bool


def _has_shape(value, shape: tuple[int, ...]) -> bool:
    """Whether ``value`` is nested lists of ``shape``, the shape numpy would
    read from them: a list of the first length, each entry a list of the
    next, and no list below the last."""
    level = [value]
    for n in shape:
        if not all(isinstance(item, list) and len(item) == n for item in level):
            return False
        level = [entry for item in level for entry in item]
    return not any(isinstance(item, list) for item in level)


def eigen_residuals(model: PcaModel) -> tuple[Residual, Residual] | None:
    """(eigenvalue-sum, orthonormality) residuals against their tolerances.

    |sum(lambda) - p| must stay within EIGEN_SUM_TOL * p, and max |V'V - I|
    within ORTHONORMALITY_TOL; a NaN residual fails. The sum is ``math.fsum``'s,
    correctly rounded; each entry of V'V is the dot product of two
    eigenvectors in ``mvstats._fold``'s order. None when the eigen block is
    not p values and p rows of p.
    """
    p = model.profile.p
    values, rows = model.eigenvalues, model.eigenvectors
    if not (_has_shape(values, (p,)) and _has_shape(rows, (p, p))):
        return None
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):  # a sum past the float range, or inf - inf
        total = sum(values)
    sum_residual = abs(total - p)
    deviations = [
        abs(dot - (i == j)) for i, row in enumerate(rows) for j, dot in enumerate(_fold(row, rows))
    ]
    gram_residual = math.nan if any(d != d for d in deviations) else max(deviations)
    return (
        Residual(sum_residual, sum_residual <= EIGEN_SUM_TOL * p),
        Residual(gram_residual, gram_residual <= ORTHONORMALITY_TOL),
    )


def verify_model(model: PcaModel) -> list[str]:
    """Integrity findings for a model; empty list means it checks out."""
    issues: list[str] = []
    p = model.profile.p
    values = model.eigenvalues

    if not all(_has_shape(v, (p,)) for v in (model.mean, model.std, model.degenerate)):
        issues.append("standardizer dimensions do not match the profile")
    residuals = eigen_residuals(model)
    if residuals is None:
        issues.append("eigen dimensions do not match the profile")
    if issues:
        return issues

    checked = {
        "mean": model.mean,
        "std": model.std,
        "eigenvalues": values,
        "eigenvectors": [v for row in model.eigenvectors for v in row],
        "t_major": [model.t_major],
        "t_minor": [] if model.t_minor is None else [model.t_minor],
    }
    for name, numbers in checked.items():
        if not all(map(math.isfinite, numbers)):
            issues.append(f"non-finite value in {name}")
    if any(s <= 0 and not flag for s, flag in zip(model.std, model.degenerate)):
        issues.append("std is not positive on a feature not marked degenerate")
    if set(model.encoder) != set(model.profile.categorical_indices):
        issues.append("encoder positions do not match the profile's categorical features")
    for position, table in model.encoder.items():
        if sorted(table.values()) != list(range(len(table))):
            issues.append(f"encoder codes at position {position} are not dense 0..K-1")

    eigen_sum, orthonormality = residuals
    if not orthonormality.ok:
        issues.append(
            f"eigenvectors are not orthonormal (residual {orthonormality.value:.3e})"
        )
    if not eigen_sum.ok:
        issues.append(
            f"eigenvalue sum deviates from dimension (residual {eigen_sum.value:.3e})"
        )
    if any(b > a for a, b in zip(values, values[1:])):
        issues.append("eigenvalues are not sorted descending")
    if not 1 <= model.q <= p:
        issues.append(f"q={model.q} outside 1..{p}")
    if not 0 <= model.r <= p - model.q:
        issues.append(f"r={model.r} outside 0..{p - model.q}")
    if model.t_major < 0:
        issues.append("t_major is negative")
    # The minor test runs exactly when there is a t_minor.
    if model.r > 0 and (model.t_minor is None or model.t_minor < 0):
        issues.append("t_minor missing or negative while r > 0")
    if model.r == 0 and model.t_minor is not None:
        issues.append("t_minor set while r = 0")
    return issues


def save_model(model: PcaModel, path: str) -> None:
    """Write the model document to ``path`` as indented JSON.

    The text is built before the file is opened, so a model that cannot be
    serialized (a NaN or infinity) leaves any file at ``path`` untouched.
    """
    text = json.dumps(model_to_document(model), indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def load_model(path: str, verify: bool = True) -> PcaModel:
    """Read a model document back; verifies integrity unless told not to.

    Raises:
        ModelFormatError: unreadable document or unsupported version.
        ModelIntegrityError: contents fail verification (verify=True).
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        # bad JSON, bytes not UTF-8, an int past the digit limit, or lists
        # nested past the interpreter's recursion limit
        except (ValueError, RecursionError) as err:
            raise ModelFormatError(f"not a JSON model file: {err}") from err
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    model = model_from_document(doc)
    if verify:
        issues = verify_model(model)
        if issues:
            raise ModelIntegrityError("; ".join(issues))
    return model
