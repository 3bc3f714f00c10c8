"""Independent reference for checking the program's outputs.

Everything here is derived from the model JSON and the input text alone,
in plain numpy. Nothing from ``pca_ids`` is imported, so a defect in the
program's parse, encode, standardize, project, score or threshold code
cannot hide itself by being shared with the check.

Scores must agree within ``REL_TOL`` (relative). A verdict may differ
only where the reference score lies within that tolerance of a
threshold; such records are counted as ties, not as failures.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9
# Eigenvalues are clipped here before dividing, as the model format states.
EIGENVALUE_FLOOR = 1e-12
N_FEATURES = 41
CATEGORICAL = (2, 3, 4)

VERDICT_RE = re.compile(
    r"verdict=(attack|normal) majc=(\S+) minc=(\S+) "
    r"trigger=(none|major|minor|both)( unknown_token=true)?"
)
ERROR_RE = re.compile(r'error="(.*)" line=(\d+)')


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


@dataclass
class Model:
    """The fields of a model document that scoring depends on."""

    indices: list[int]
    tables: dict[int, dict[str, int]]
    mean: np.ndarray
    std: np.ndarray
    degenerate: np.ndarray
    values: np.ndarray
    vectors: np.ndarray  # columns are eigenvectors
    q: int
    r: int
    t_major: float
    t_minor: float | None
    alpha_major: float
    alpha_minor: float

    @classmethod
    def load(cls, path: str) -> "Model":
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        thresholds = doc["thresholds"]
        return cls(
            indices=list(doc["profile"]["indices"]),
            tables={int(k): dict(v) for k, v in doc["encoder"].items()},
            mean=np.asarray(doc["standardizer"]["mean"], dtype=float),
            std=np.asarray(doc["standardizer"]["std"], dtype=float),
            degenerate=np.asarray(doc["standardizer"]["degenerate"], dtype=bool),
            values=np.asarray(doc["eigen"]["values"], dtype=float),
            vectors=np.asarray(doc["eigen"]["vectors"], dtype=float).T,
            q=int(doc["selection"]["q"]),
            r=int(doc["selection"]["r"]),
            t_major=float(thresholds["t_major"]),
            t_minor=None if thresholds["t_minor"] is None else float(thresholds["t_minor"]),
            alpha_major=float(thresholds["alpha_major"]),
            alpha_minor=float(thresholds["alpha_minor"]),
        )

    @property
    def minor_active(self) -> bool:
        return self.r > 0 and self.t_minor is not None


@dataclass
class Parsed:
    """Input lines split into well-formed rows and malformed line numbers."""

    fields: list[list[str]]  # the 41 features of each well-formed row
    line_nos: list[int]  # 1-based line number of each well-formed row
    attack: np.ndarray  # label is not "normal" (labeled input only)
    malformed: list[int]
    n_lines: int


def _valid(fields: list[str], labeled: bool) -> bool:
    n = len(fields)
    if n not in ((42, 43) if labeled else (41, 42, 43)):
        return False
    if n == 43:
        try:
            int(fields[42])
        except ValueError:
            return False
    for position, value in enumerate(fields[:N_FEATURES], start=1):
        if position in CATEGORICAL:
            if not value:
                return False
            continue
        try:
            number = float(value)
        except ValueError:
            return False
        if not math.isfinite(number) or number < 0:
            return False
    return True


def parse(path: str, labeled: bool) -> Parsed:
    """Split a file the way the format defines it (labeled: 42/43 fields)."""
    fields, line_nos, attack, malformed = [], [], [], []
    n_lines = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            n_lines += 1
            parts = [p.strip() for p in line.split(",")]
            if not _valid(parts, labeled):
                malformed.append(line_no)
                continue
            fields.append(parts[:N_FEATURES])
            line_nos.append(line_no)
            label = parts[N_FEATURES] if len(parts) > N_FEATURES else None
            attack.append(label is not None and label.rstrip(".").lower() != "normal")
    return Parsed(fields, line_nos, np.asarray(attack, dtype=bool), malformed, n_lines)


@dataclass
class Scores:
    majc: np.ndarray
    minc: np.ndarray
    unknown: np.ndarray
    attack: np.ndarray  # predicted
    trigger: list[str]
    tie: np.ndarray  # a score lies within REL_TOL of its threshold


def encode(model: Model, rows: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    """Rows to an n x p matrix; an unseen token becomes K (the table size)."""
    X = np.empty((len(rows), len(model.indices)))
    unknown = np.zeros(len(rows), dtype=bool)
    for j, position in enumerate(model.indices):
        column = [row[position - 1] for row in rows]
        table = model.tables.get(position)
        if table is None:
            X[:, j] = np.asarray(column, dtype=float)
            continue
        codes = [table.get(token, -1) for token in column]
        missing = np.asarray(codes) < 0
        unknown |= missing
        X[:, j] = np.where(missing, len(table), codes)
    return X, unknown


def score_matrix(model: Model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    safe_std = np.where(model.degenerate, 1.0, model.std)
    Z = np.where(model.degenerate, 0.0, (X - model.mean) / safe_std)
    Y = Z @ model.vectors
    lam = np.maximum(model.values, EIGENVALUE_FLOOR)
    p = lam.shape[0]
    majc = np.sum(Y[:, : model.q] ** 2 / lam[: model.q], axis=1)
    if model.r > 0:
        minc = np.sum(Y[:, p - model.r :] ** 2 / lam[p - model.r :], axis=1)
    else:
        minc = np.zeros(X.shape[0])
    return majc, minc


def _near(scores: np.ndarray, threshold: float) -> np.ndarray:
    return np.abs(scores - threshold) <= REL_TOL * np.maximum(np.abs(scores), abs(threshold))


def score(model: Model, rows: list[list[str]]) -> Scores:
    X, unknown = encode(model, rows)
    majc, minc = score_matrix(model, X)
    over_major = majc > model.t_major
    tie = _near(majc, model.t_major)
    if model.minor_active:
        over_minor = minc > model.t_minor
        tie |= _near(minc, model.t_minor)
    else:
        over_minor = np.zeros_like(over_major)
    names = np.array(["none", "major", "minor", "both"])
    trigger = names[over_major.astype(int) + 2 * over_minor.astype(int)].tolist()
    return Scores(majc, minc, unknown, over_major | over_minor, trigger, tie)


@dataclass
class Check:
    """Items checked, items wrong or missing, and threshold ties seen."""

    attempted: int = 0
    failed: int = 0
    ties: int = 0

    def add(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.ties += other.ties


def check_verdicts(model: Model, parsed: Parsed, output_lines: list[str]) -> Check:
    """One output line per input line, in order: a verdict or a per-line error."""
    scores = score(model, parsed.fields)
    expected: dict[int, int | None] = {n: k for k, n in enumerate(parsed.line_nos)}
    expected.update({n: None for n in parsed.malformed})
    result = Check(attempted=parsed.n_lines)
    result.failed += max(0, len(output_lines) - parsed.n_lines)
    for line_no, text in zip(range(1, parsed.n_lines + 1), output_lines):
        k = expected[line_no]
        if k is None:
            match = ERROR_RE.fullmatch(text)
            if not match or int(match.group(2)) != line_no:
                result.failed += 1
            continue
        match = VERDICT_RE.fullmatch(text)
        if not match:
            result.failed += 1
            continue
        kind, majc, minc, trigger, unknown = match.groups()
        if (
            not close(float(majc), scores.majc[k])
            or not close(float(minc), scores.minc[k])
            or bool(unknown) != bool(scores.unknown[k])
        ):
            result.failed += 1
        elif (kind == "attack") != bool(scores.attack[k]) or trigger != scores.trigger[k]:
            if scores.tie[k]:
                result.ties += 1
            else:
                result.failed += 1
    result.failed += max(0, parsed.n_lines - len(output_lines))
    return result


def confusion(pred: np.ndarray, actual: np.ndarray) -> dict[str, int]:
    return {
        "tp": int(np.sum(pred & actual)),
        "fn": int(np.sum(~pred & actual)),
        "fp": int(np.sum(pred & ~actual)),
        "tn": int(np.sum(~pred & ~actual)),
    }


def check_evaluate(model: Model, parsed: Parsed, report: dict) -> Check:
    """The machine report's confusion counts; ties may move a count."""
    scores = score(model, parsed.fields)
    expected = confusion(scores.attack, parsed.attack)
    ties = int(scores.tie.sum())
    off = max(abs(report.get(key, -1) - value) for key, value in expected.items())
    return Check(attempted=1, failed=int(off > ties), ties=ties)


def grid(spec: str) -> list[float]:
    """The lo:hi:steps grid as the command line defines it."""
    lo, hi, steps = spec.split(":")
    return [float(v) for v in np.unique(np.linspace(float(lo), float(hi), int(steps)))]


def check_sweep(
    model: Model, parsed: Parsed, tm_spec: str, tmm_spec: str | None, output: list[str]
) -> Check:
    """Every row of the sweep table: recall, fpr and success to 4 decimals."""
    scores = score(model, parsed.fields)
    tms = grid(tm_spec)
    if tmm_spec:
        tmms: list[float | None] = grid(tmm_spec)
    elif model.minor_active:
        tmms = [model.t_minor]
    else:
        tmms = [None]
    rows = [line.split() for line in output[1 : 1 + len(tms) * len(tmms)]]
    result = Check(attempted=len(tms) * len(tmms))
    result.failed += len(tms) * len(tmms) - len(rows)
    actual = parsed.attack
    k = 0
    for tm in tms:
        over_major = scores.majc > tm
        major_tie = _near(scores.majc, tm)
        for tmm in tmms:
            if k >= len(rows):
                return result
            row = rows[k]
            k += 1
            tie = major_tie
            pred = over_major
            if model.r > 0 and tmm is not None:
                pred = over_major | (scores.minc > tmm)
                tie = major_tie | _near(scores.minc, tmm)
            cm = confusion(pred, actual)
            recall = cm["tp"] / (cm["tp"] + cm["fn"])
            fpr = cm["fp"] / (cm["fp"] + cm["tn"])
            success = (cm["tp"] + cm["tn"]) / len(actual)
            want = [f"{tm:.6g}", "n/a" if tmm is None else f"{tmm:.6g}"]
            want += [f"{recall:.4f}", f"{fpr:.4f}", f"{success:.4f}"]
            if row != want:
                if tie.any():
                    result.ties += 1
                else:
                    result.failed += 1
    return result


def _nearest_rank(scores: np.ndarray, fraction: float) -> float:
    n = scores.shape[0]
    rank = min(max(math.ceil(fraction * n - 1e-12), 1), n)
    return float(np.sort(scores)[rank - 1])


def check_model(model: Model, train: Parsed) -> Check:
    """The fitted model against statistics recomputed from the training normals.

    Mean and sample std of the encoded normals, the eigenvalues of their
    correlation matrix (numpy's LAPACK solver), and the nearest-rank
    thresholds of the reference scores must all agree within REL_TOL
    (eigenvalues: absolute 1e-9, as they are O(1) and may be near 0).
    """
    normals = [row for row, attack in zip(train.fields, train.attack) if not attack]
    X, _ = encode(model, normals)
    ok = np.allclose(X.mean(axis=0), model.mean, rtol=REL_TOL, atol=0.0)
    ok &= np.allclose(X.std(axis=0, ddof=1), model.std, rtol=REL_TOL, atol=0.0)
    active = ~model.degenerate
    Z = (X[:, active] - model.mean[active]) / model.std[active]
    corr = np.eye(len(model.indices))
    corr[np.ix_(active, active)] = (Z.T @ Z) / (X.shape[0] - 1)
    np.fill_diagonal(corr, 1.0)
    reference = np.sort(np.linalg.eigvalsh(corr))[::-1]
    ok &= bool(np.max(np.abs(reference - model.values)) <= 1e-9)
    majc, minc = score_matrix(model, X)
    ok &= close(_nearest_rank(majc, 1.0 - model.alpha_major), model.t_major)
    if model.r > 0:
        ok &= model.t_minor is not None and close(
            _nearest_rank(minc, 1.0 - model.alpha_minor), model.t_minor
        )
    return Check(attempted=1, failed=int(not ok))
