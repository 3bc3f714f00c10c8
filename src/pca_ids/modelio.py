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
import os
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .kdd import CategoricalEncoder, FeatureProfile
from .mvstats import EigenPairs, StandardizationParams
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
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        moment = datetime.now(tz=timezone.utc)
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
            for position, table in model.encoder.tables.items()
        },
        "standardizer": {
            "mean": model.standardizer.mean.tolist(),
            "std": model.standardizer.std.tolist(),
            "degenerate": model.standardizer.degenerate.tolist(),
        },
        "eigen": {
            "values": model.eigen.values.tolist(),
            # rows are eigenvectors, in descending-eigenvalue order
            "vectors": model.eigen.vectors.T.tolist(),
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


def model_from_document(doc: dict) -> PcaModel:
    """Rebuild a PcaModel from a parsed document (no integrity checks)."""
    try:
        version = doc["format_version"]
        if version != FORMAT_VERSION:
            raise ModelFormatError(
                f"model format version {version} is not supported "
                f"(this build reads version {FORMAT_VERSION})"
            )
        profile = FeatureProfile(
            doc["profile"]["name"],
            tuple(doc["profile"]["indices"]),
            tuple(doc["profile"]["categorical_indices"]),
        )
        encoder = CategoricalEncoder(
            {int(pos): dict(table) for pos, table in doc["encoder"].items()}
        )
        standardizer = StandardizationParams(
            np.asarray(doc["standardizer"]["mean"], dtype=float),
            np.asarray(doc["standardizer"]["std"], dtype=float),
            np.asarray(doc["standardizer"]["degenerate"], dtype=bool),
        )
        eigen = EigenPairs(
            np.asarray(doc["eigen"]["values"], dtype=float),
            np.asarray(doc["eigen"]["vectors"], dtype=float).T,
        )
        selection = doc["selection"]
        thresholds = doc["thresholds"]
        t_minor = thresholds["t_minor"]
        model = PcaModel(
            profile=profile,
            encoder=encoder,
            standardizer=standardizer,
            eigen=eigen,
            q=int(selection["q"]),
            r=int(selection["r"]),
            t_major=float(thresholds["t_major"]),
            t_minor=None if t_minor is None else float(t_minor),
            metadata=dict(doc.get("provenance", {})),
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


def eigen_residuals(model: PcaModel) -> tuple[Residual, Residual]:
    """(eigenvalue-sum, orthonormality) residuals against their tolerances.

    |sum(lambda) - p| must stay within EIGEN_SUM_TOL * p, and max |V'V - I|
    within ORTHONORMALITY_TOL; a NaN residual fails.
    """
    p = model.profile.p
    vectors = model.eigen.vectors
    sum_residual = abs(float(np.sum(model.eigen.values)) - p)
    gram_residual = float(np.max(np.abs(vectors.T @ vectors - np.eye(p))))
    return (
        Residual(sum_residual, sum_residual <= EIGEN_SUM_TOL * p),
        Residual(gram_residual, gram_residual <= ORTHONORMALITY_TOL),
    )


def verify_model(model: PcaModel) -> list[str]:
    """Integrity findings for a model; empty list means it checks out."""
    issues: list[str] = []
    p = model.profile.p
    std = model.standardizer
    values = model.eigen.values
    vectors = model.eigen.vectors

    if std.mean.shape != (p,) or std.std.shape != (p,) or std.degenerate.shape != (p,):
        issues.append("standardizer dimensions do not match the profile")
    if values.shape != (p,) or vectors.shape != (p, p):
        issues.append("eigen dimensions do not match the profile")
    if issues:
        return issues

    checked = {
        "mean": std.mean,
        "std": std.std,
        "eigenvalues": values,
        "eigenvectors": vectors,
        "t_major": model.t_major,
        "t_minor": model.t_minor,
    }
    for name, value in checked.items():
        if value is not None and not np.all(np.isfinite(value)):
            issues.append(f"non-finite value in {name}")
    if np.any((std.std <= 0) & ~std.degenerate):
        issues.append("std is not positive on a feature not marked degenerate")
    if set(model.encoder.tables) != set(model.profile.categorical_indices):
        issues.append("encoder positions do not match the profile's categorical features")
    for position, table in model.encoder.tables.items():
        codes = sorted(code for code in table.values() if isinstance(code, int))
        if codes != list(range(len(table))):
            issues.append(f"encoder codes at position {position} are not dense 0..K-1")

    eigen_sum, orthonormality = eigen_residuals(model)
    if not orthonormality.ok:
        issues.append(
            f"eigenvectors are not orthonormal (residual {orthonormality.value:.3e})"
        )
    if not eigen_sum.ok:
        issues.append(
            f"eigenvalue sum deviates from dimension (residual {eigen_sum.value:.3e})"
        )
    if np.any(np.diff(values) > 0):
        issues.append("eigenvalues are not sorted descending")
    if not 1 <= model.q <= p:
        issues.append(f"q={model.q} outside 1..{p}")
    if not 0 <= model.r <= p - model.q:
        issues.append(f"r={model.r} outside 0..{p - model.q}")
    if model.t_major < 0:
        issues.append("t_major is negative")
    if model.r > 0 and (model.t_minor is None or model.t_minor < 0):
        issues.append("t_minor missing or negative while r > 0")
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
        except json.JSONDecodeError as err:
            raise ModelFormatError(f"not a JSON model file: {err}") from err
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    model = model_from_document(doc)
    if verify:
        issues = verify_model(model)
        if issues:
            raise ModelIntegrityError("; ".join(issues))
    return model
