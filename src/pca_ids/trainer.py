"""Offline phase: fit standardization and correlation structure on normal
records, pick major/minor components, and calibrate detection thresholds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import detector
from .kdd import (
    CategoricalEncoder,
    Dataset,
    EmptyDatasetError,
    FeatureProfile,
    build_encoder,
    encode_matrix,
)
from .mvstats import (
    EigenPairs,
    StandardizationParams,
    correlation_matrix,
    eigen_sym,
    fit_standardizer,
    project,
    standardize,
)


class EmptyScores(ValueError):
    """Threshold calibration got an empty score list."""


@dataclass(frozen=True)
class TrainerConfig:
    """Knobs for component selection and threshold calibration.

    variance_target picks the smallest q whose leading eigenvalues explain
    that fraction of total variance; minor_cutoff counts eigenvalues below
    it as minor components; the alphas are target false-alarm fractions on
    training normals. Explicit q/r overrides win over the automatic rules.
    """

    variance_target: float = 0.60
    minor_cutoff: float = 0.20
    alpha_major: float = 0.08
    alpha_minor: float = 0.02
    q_override: int | None = None
    r_override: int | None = None

    def __post_init__(self):
        if not 0.0 < self.variance_target <= 1.0:
            raise ValueError("variance_target must be in (0, 1]")
        if self.minor_cutoff <= 0.0:
            raise ValueError("minor_cutoff must be positive")
        for name in ("alpha_major", "alpha_minor"):
            alpha = getattr(self, name)
            if not 0.0 < alpha < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        if self.q_override is not None and self.q_override < 1:
            raise ValueError("q_override must be >= 1")
        if self.r_override is not None and self.r_override < 0:
            raise ValueError("r_override must be >= 0")


# The two experiment setups shipped as one-flag presets.
PRESETS = {
    "step1": {"profile": "basic6", "q": 3, "r": 0},
    "step2": {"profile": "traffic10", "q": 3, "r": 2},
}


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Everything the online phase needs, immutable once fitted."""

    profile: FeatureProfile
    encoder: CategoricalEncoder
    standardizer: StandardizationParams
    eigen: EigenPairs
    q: int
    r: int
    t_major: float
    t_minor: float | None
    metadata: dict = field(default_factory=dict)

    @property
    def p(self) -> int:
        return self.profile.p


def select_major(eigenvalues: Sequence[float], variance_target: float) -> int:
    """Smallest q whose leading eigenvalues reach the variance target."""
    values = np.asarray(eigenvalues, dtype=float)
    p = values.shape[0]
    # slack absorbs float fuzz when the target lands exactly on a cumsum
    target = variance_target * p - 1e-12
    cumulative = np.cumsum(values)
    for k in range(p):
        if cumulative[k] >= target:
            return k + 1
    return p


def select_minor(eigenvalues: Sequence[float], minor_cutoff: float) -> int:
    """Count of eigenvalues below the minor-component cutoff."""
    values = np.asarray(eigenvalues, dtype=float)
    return int(np.sum(values < minor_cutoff))


def _nearest_rank(scores: np.ndarray, fraction: float) -> float:
    n = scores.shape[0]
    rank = math.ceil(fraction * n - 1e-12)
    rank = min(max(rank, 1), n)
    return float(np.sort(scores)[rank - 1])


def calibrate_thresholds(
    scores_major: Sequence[float],
    scores_minor: Sequence[float] | None,
    alpha_major: float,
    alpha_minor: float,
) -> tuple[float, float | None]:
    """Empirical nearest-rank (1 - alpha) quantiles of the training scores.

    Returns (t_major, t_minor); t_minor is None when no minor scores are
    supplied (the r = 0 configuration).
    """
    major = np.asarray(scores_major, dtype=float)
    if major.size == 0:
        raise EmptyScores("no major-component scores to calibrate on")
    t_major = _nearest_rank(major, 1.0 - alpha_major)

    t_minor: float | None = None
    if scores_minor is not None:
        minor = np.asarray(scores_minor, dtype=float)
        if minor.size == 0:
            raise EmptyScores("no minor-component scores to calibrate on")
        t_minor = _nearest_rank(minor, 1.0 - alpha_minor)
    return t_major, t_minor


def fit(
    training: Dataset,
    profile: FeatureProfile,
    config: TrainerConfig | None = None,
) -> PcaModel:
    """Run the full offline pipeline on the normal records of a dataset.

    Filters to normal-labeled records, builds the categorical encoder,
    standardizes, eigendecomposes the correlation matrix, selects q and r
    (honoring overrides, shrinking r if q + r would exceed p), scores the
    training normals, and calibrates both thresholds.

    Raises:
        EmptyDatasetError: no normal records to train on.
        ValueError: a feature's mean or std over the training normals is
            not finite (its values or their squares overflow a float), or
            q exceeds p.
        NoConvergence: propagated from the eigensolver.
    """
    config = config or TrainerConfig()
    normals = training.normal_records()
    if not normals:
        raise EmptyDatasetError(f"no normal records in {training.source}")

    encoder = build_encoder(normals, profile)
    X, _ = encode_matrix(normals, profile, encoder)
    standardizer = fit_standardizer(X)
    finite = np.isfinite(standardizer.mean) & np.isfinite(standardizer.std)
    if not finite.all():
        names = [name for name, ok in zip(profile.feature_names(), finite) if not ok]
        raise ValueError(
            f"non-finite mean or std of {', '.join(names)} over the training "
            "normals: values too large to standardize"
        )
    R = correlation_matrix(X, standardizer)
    eigen = eigen_sym(R)
    p = profile.p

    auto_q = select_major(eigen.values, config.variance_target)
    auto_r = select_minor(eigen.values, config.minor_cutoff)
    q = config.q_override if config.q_override is not None else auto_q
    r = config.r_override if config.r_override is not None else auto_r
    if q > p:
        raise ValueError(f"q={q} exceeds dimension p={p}")
    if q + r > p:
        shrunk = p - q
        import logging  # only here: its import is ~5 ms of every command's start-up

        logging.getLogger(__name__).warning(
            "q + r = %d exceeds p = %d; r shrunk from %d to %d", q + r, p, r, shrunk
        )
        r = shrunk

    Y = project(standardize(X, standardizer), eigen)
    majc, minc = detector._score_sums(Y, eigen.floored_values, q, r)
    t_major, t_minor = calibrate_thresholds(
        majc, minc if r > 0 else None, config.alpha_major, config.alpha_minor
    )

    metadata = {
        "training_file": training.source,
        "n_records": len(training),
        "n_normal": len(normals),
        "n_malformed": training.malformed_count,
        "auto_q": auto_q,
        "auto_r": auto_r,
        "config": asdict(config),
    }
    return PcaModel(
        profile=profile,
        encoder=encoder,
        standardizer=standardizer,
        eigen=eigen,
        q=q,
        r=r,
        t_major=t_major,
        t_minor=t_minor,
        metadata=metadata,
    )
