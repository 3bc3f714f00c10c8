"""Offline phase: fit standardization and correlation structure on normal
records, pick major/minor components, and calibrate detection thresholds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from . import detector
from .kdd import Dataset, FeatureProfile, encode_normals
from .mvstats import _standardizer, eigen_sym, fit_standardizer, standardized_correlation

if TYPE_CHECKING:
    import numpy as np


class EmptyScores(ValueError):
    """Threshold calibration got an empty score list."""


# Each setting's range as (test, wording): TrainerConfig refuses a value
# outside it, and the CLI refuses the setting's flag outside it as usage.
SETTING_RANGES = {
    "variance_target": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "minor_cutoff": (lambda v: 0.0 < v < math.inf, "finite and positive"),  # NaN fails
    "alpha_major": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "alpha_minor": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "q_override": (lambda v: v is None or v >= 1, ">= 1"),
    "r_override": (lambda v: v is None or v >= 0, ">= 0"),
}


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
        for name, (ok, wording) in SETTING_RANGES.items():
            if not ok(getattr(self, name)):
                raise ValueError(f"{name} must be {wording}")


# The two experiment setups shipped as one-flag presets.
PRESETS = {
    "step1": {"profile": "basic6", "q": 3, "r": 0},
    "step2": {"profile": "traffic10", "q": 3, "r": 2},
}


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Everything the online phase needs, immutable once fitted.

    The numbers are Python lists laid out as the model document holds them,
    so loading, verifying and scoring one record need no numpy. A record and
    a block both go through the functions compiled from them once per model,
    ``standardize`` and ``scorer``; ``fit`` hands its own to the model.
    """

    profile: FeatureProfile
    encoder: dict[int, dict[str, int]]  # token tables, from kdd.encode_normals
    mean: list[float]
    std: list[float]
    degenerate: list[bool]
    eigenvalues: list[float]  # descending
    eigenvectors: list[list[float]]  # row k pairs with eigenvalues[k]
    q: int
    r: int
    t_major: float
    t_minor: float | None
    metadata: dict = field(default_factory=dict)

    @cached_property
    def standardize(self):
        """This model's compiled ``mvstats._standardizer``, built once per
        model: ``standardize(x, zero=0.0) -> z``."""
        return _standardizer(self.mean, self.std, self.degenerate)

    @cached_property
    def scorer(self):
        """This model's compiled ``detector._scorer``, built once per model:
        ``scorer(z, zero=0.0) -> (major, minor)``."""
        return detector._scorer(self.eigenvalues, self.eigenvectors, self.q, self.r)


def select_major(eigenvalues: Sequence[float], variance_target: float) -> int:
    """Smallest q whose leading eigenvalues reach the variance target."""
    import numpy as np

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
    import numpy as np

    values = np.asarray(eigenvalues, dtype=float)
    return int(np.sum(values < minor_cutoff))


def _nearest_rank(scores: np.ndarray, fraction: float) -> float:
    import numpy as np

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
    import numpy as np

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

    Reads the dataset once, keeping only the encoded normals and the
    encoder learned from them (``kdd.encode_normals``); standardizes them
    once, eigendecomposes their correlation matrix, selects q and r
    (honoring overrides, shrinking r if q + r would exceed p), scores the
    training normals, and calibrates both thresholds.

    Raises:
        EmptyDatasetError: no valid records, or no normal records to train on.
        ValueError: a feature's mean or std over the training normals is
            not finite (its values or their squares overflow a float), or
            q exceeds p.
        NoConvergence: propagated from the eigensolver.
    """
    import numpy as np

    config = config or TrainerConfig()
    X, encoder = encode_normals(training, profile)
    standardizer = fit_standardizer(X)
    finite = np.isfinite(standardizer.mean) & np.isfinite(standardizer.std)
    if not finite.all():
        names = [name for name, ok in zip(profile.feature_names(), finite) if not ok]
        raise ValueError(
            f"non-finite mean or std of {', '.join(names)} over the training "
            "normals: values too large to standardize"
        )
    # The model's numbers, in the layout a loaded model has: the training
    # normals are standardized and scored by the functions that a load of
    # this model builds, and the model is handed them.
    numbers = {
        "mean": standardizer.mean.tolist(),
        "std": standardizer.std.tolist(),
        "degenerate": standardizer.degenerate.tolist(),
    }
    standardize = _standardizer(**numbers)
    zero = np.zeros(len(X))
    with np.errstate(over="ignore"):  # an overflow becomes inf, which eigen_sym refuses
        columns = standardize(X.T, zero)
    del X  # the one n x p copy kept from here on; stacked only for the correlation
    eigen = eigen_sym(standardized_correlation(np.column_stack(columns), standardizer))
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

    numbers["eigenvalues"] = eigen.values.tolist()
    numbers["eigenvectors"] = eigen.vectors.T.tolist()
    scorer = detector._scorer(numbers["eigenvalues"], numbers["eigenvectors"], q, r)
    with np.errstate(over="ignore", invalid="ignore"):  # see detector._scorer
        majc, minc = scorer(columns, zero)
    t_major, t_minor = calibrate_thresholds(
        majc, minc if r > 0 else None, config.alpha_major, config.alpha_minor
    )

    metadata = {
        "training_file": training.source,
        "n_records": len(training),
        "n_normal": training.n_normal,
        "n_malformed": training.malformed_count,
        "auto_q": auto_q,
        "auto_r": auto_r,
        "config": asdict(config),
    }
    model = PcaModel(
        profile=profile,
        encoder=encoder,
        **numbers,
        q=q,
        r=r,
        t_major=t_major,
        t_minor=t_minor,
        metadata=metadata,
    )
    # the cached_property slots: the model compiles neither function again
    model.__dict__.update(standardize=standardize, scorer=scorer)
    return model
