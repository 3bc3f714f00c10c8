"""Tests of the benchmark itself: input determinism, the reference check, spans.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gen
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent


def _cli(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PCA_IDS_THREADS", None)
    done = subprocess.run(
        [sys.executable, "-m", "pca_ids.cli", *args],
        capture_output=True, text=True, env=env, check=True,
    )
    return done.stdout


def test_same_seed_same_digests(tmp_path):
    first = gen.generate(str(tmp_path / "a"), seed=5, units=1, stream_lines=300)
    again = gen.generate(str(tmp_path / "b"), seed=5, units=1, stream_lines=300)
    other = gen.generate(str(tmp_path / "c"), seed=6, units=1, stream_lines=300)
    digests = lambda m: {name: entry["sha256"] for name, entry in m["files"].items()}
    assert digests(first) == digests(again)
    assert digests(first)["train"] != digests(other)["train"]
    assert first["damage"] == again["damage"]


def test_injected_damage_is_what_the_reference_sees(tmp_path):
    manifest = gen.generate(str(tmp_path), seed=3, units=2, stream_lines=500)
    for name in ("test", "stream"):
        parsed = reference.parse(str(tmp_path / f"{name}.txt"), labeled=False)
        injected = sorted(int(k) for k in manifest["damage"][name]["malformed_lines"])
        assert parsed.malformed == injected
        assert len(injected) >= len(gen.MALFORMED_KINDS)
        assert manifest["damage"][name]["unknown_lines"]


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """Small inputs, a step2 model, and the program's outputs for them."""
    d = tmp_path_factory.mktemp("fitted")
    gen.generate(str(d), seed=9, units=2, stream_lines=300)
    model = d / "model.json"
    _cli("train", "--data", str(d / "train.txt"), "--preset", "step2", "--out", str(model))
    return {
        "dir": d,
        "model": model,
        "test_rows": reference.parse(str(d / "test.txt"), labeled=True),
        "test_lines": reference.parse(str(d / "test.txt"), labeled=False),
        "train_rows": reference.parse(str(d / "train.txt"), labeled=True),
    }


def _nudged(fitted, factor: float) -> Path:
    doc = json.loads(fitted["model"].read_text())
    doc["thresholds"]["t_major"] *= factor
    path = fitted["dir"] / f"nudged-{factor}.json"
    path.write_text(json.dumps(doc))
    return path


def _classify(fitted, model: Path) -> list[str]:
    return _cli("classify", "--model", str(model), "--input", str(fitted["dir"] / "test.txt")).splitlines()


def _evaluate(fitted, model: Path) -> dict:
    return json.loads(
        _cli("evaluate", "--model", str(model), "--data", str(fitted["dir"] / "test.txt"), "--format", "machine")
    )


def test_reference_accepts_the_program(fitted):
    model = reference.Model.load(str(fitted["model"]))
    verdicts = reference.check_verdicts(model, fitted["test_lines"], _classify(fitted, fitted["model"]))
    assert verdicts.failed == 0 and verdicts.attempted == fitted["test_lines"].n_lines
    assert reference.check_evaluate(model, fitted["test_rows"], _evaluate(fitted, fitted["model"])).failed == 0
    assert reference.check_model(model, fitted["train_rows"]).failed == 0


def test_reference_flags_a_lowered_major_threshold(fitted):
    """Verdicts made with t_major nudged down disagree with the model's own."""
    model = reference.Model.load(str(fitted["model"]))
    nudged = _nudged(fitted, 0.5)
    verdicts = reference.check_verdicts(model, fitted["test_lines"], _classify(fitted, nudged))
    assert verdicts.failed > 0
    assert reference.check_evaluate(model, fitted["test_rows"], _evaluate(fitted, nudged)).failed == 1
    assert reference.check_model(reference.Model.load(str(nudged)), fitted["train_rows"]).failed == 1


def test_reference_flags_a_dropped_line(fitted):
    model = reference.Model.load(str(fitted["model"]))
    lines = _classify(fitted, fitted["model"])
    del lines[len(lines) // 2]
    verdicts = reference.check_verdicts(model, fitted["test_lines"], lines)
    assert verdicts.failed > 0


def test_reference_counts_ties_not_failures(fitted):
    """A verdict that flips on a score within tolerance of t_major is a tie."""
    model = reference.Model.load(str(fitted["model"]))
    lines = _classify(fitted, fitted["model"])
    scores = reference.score(model, fitted["test_lines"].fields)
    lowest_over = float(np.min(scores.majc[scores.majc > model.t_major]))
    # Just above the lowest flagged score: that record flips, within tolerance.
    model.t_major = lowest_over * (1 + 1e-12)
    check = reference.check_verdicts(model, fitted["test_lines"], lines)
    assert check.failed == 0
    assert check.ties >= 1


def test_self_times_on_a_hand_built_tree():
    # root 0..100 has children a 10..40 and b 50..90; a has child c 15..25.
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 90])
    assert tracing.self_times(parent, start, end).tolist() == [30, 20, 10, 40]


def test_totals_group_by_run_and_name():
    spans = {
        "name": np.array([0, 1, 1, 0, 1]),
        "start": np.array([0, 1, 5, 0, 2]),
        "end": np.array([10, 3, 8, 6, 3]),
        "parent": np.array([-1, 0, 0, -1, 3]),
        "run": np.array([0, 0, 0, 1, 1]),
    }
    result = tracing.totals(spans, ["cli.main", "kdd.parse_record"])
    assert result == {
        (0, "cli.main"): (5.0, 1),
        (0, "kdd.parse_record"): (5.0, 2),
        (1, "cli.main"): (5.0, 1),
        (1, "kdd.parse_record"): (1.0, 1),
    }


def test_generator_steps_are_spans():
    tracer = tracing.Tracer()

    def numbers():
        yield 1
        yield 2

    wrapped = tracer.wrap("detector.classify_stream", numbers)
    assert list(wrapped()) == [1, 2]
    # two items and the final step that ends the generator
    assert len(tracer.start) == 3
    assert all(p == tracing.NO_PARENT for p in tracer.parent)
