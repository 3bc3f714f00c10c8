"""Scoring, the two-threshold decision rule, and stream classification."""

import collections
import dataclasses
import functools
import inspect
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pca_ids import detector, mvstats, trainer
from pca_ids.detector import (
    StreamVerdict,
    Trigger,
    Verdict,
    _scorer,
    classify,
    classify_stream,
    score_records,
)
from pca_ids.evaluation import evaluate
from pca_ids.kdd import BASIC6, PROFILES, Dataset, encode_matrix, extract_features, parse_record
from pca_ids.trainer import PRESETS, TrainerConfig, fit

from .conftest import correlation_of
from .oracles import loop_scores, mahalanobis_sq
from .test_kdd import fields_for, line_for

MAX_FLOAT = sys.float_info.max


@pytest.fixture(scope="module", params=sorted(PRESETS))
def preset_model(request, corpus_file):
    preset = PRESETS[request.param]
    config = TrainerConfig(q_override=preset["q"], r_override=preset["r"])
    return fit(Dataset(corpus_file), PROFILES[preset["profile"]], config)


@pytest.fixture()
def score_setup():
    rng = np.random.default_rng(71)
    eigenvalues = np.sort(rng.uniform(0.1, 3.0, size=8))[::-1]
    y = rng.normal(size=8).tolist()
    return y, eigenvalues


def axes_scorer(eigenvalues, q, r):
    """A scorer whose eigenvectors are the axes, so the fold gives y = z."""
    p = len(eigenvalues)
    values = np.asarray(eigenvalues, dtype=float).tolist()
    return _scorer(values, np.eye(p).tolist(), q, r)


def same_scores(a, b) -> bool:
    """Equal floats pairwise, where NaN equals NaN."""
    return all(x == y or (x != x and y != y) for x, y in zip(a, b, strict=True))


class TestScores:
    # the eigenvalues of score_setup are all above the floor, so they are
    # their own floored values
    def test_zero_vector_scores_zero(self, score_setup):
        _, eigenvalues = score_setup
        assert axes_scorer(eigenvalues, 3, 2)([0.0] * 8) == (0.0, 0.0)

    def test_unit_contribution_on_leading_axis(self, score_setup):
        _, eigenvalues = score_setup
        y = [float(np.sqrt(eigenvalues[0]))] + [0.0] * 7
        assert axes_scorer(eigenvalues, 1, 0)(y)[0] == pytest.approx(1.0, rel=1e-12)

    def test_r_zero_is_always_zero(self, score_setup):
        y, eigenvalues = score_setup
        assert axes_scorer(eigenvalues, 3, 0)(y)[1] == 0.0

    def test_full_major_score_is_mahalanobis(self, basic6_model, corpus_normals):
        # with q = p the score is the full quadratic form z' R^-1 z
        model = basic6_model
        normals = corpus_normals
        X, _ = encode_matrix(normals, model.profile, model.encoder)
        from pca_ids.mvstats import StandardizationParams

        params = StandardizationParams(
            *(np.asarray(v) for v in (model.mean, model.std, model.degenerate))
        )
        R = correlation_of(X, params)
        r_inv = np.linalg.inv(R)
        score = _scorer(model.eigenvalues, model.eigenvectors, model.profile.p, 0)
        rng = np.random.default_rng(73)
        for idx in rng.integers(0, len(normals), size=10):
            z = model.standardize(X[idx].tolist())
            full, _ = score(z)
            oracle = mahalanobis_sq(np.array(z), np.zeros(model.profile.p), r_inv)
            assert full == pytest.approx(oracle, rel=1e-8)

    def test_partition_identity(self, score_setup):
        y, eigenvalues = score_setup
        q, r = 3, 2
        middle = float(
            np.sum(np.square(y[q : 8 - r]) / eigenvalues[q : 8 - r])
        )
        total, _ = axes_scorer(eigenvalues, 8, 0)(y)
        major, minor = axes_scorer(eigenvalues, q, r)(y)
        assert total == pytest.approx(major + middle + minor, rel=1e-12)


class TestCompiledScorer:
    """``_scorer`` writes a model's scores out as straight-line source with the
    model's numbers as literals, and compiles it once."""

    @pytest.mark.parametrize("q, r", [(41, 0), (20, 21), (1, 40)])
    def test_largest_profile_equals_loop_oracle(self, q, r):
        # p = q + r = 41, every field of a record: 1,681 terms, one statement
        # each, so no expression nests past the compiler's limits
        p = 41
        rng = np.random.default_rng(41)
        vectors, _ = np.linalg.qr(rng.normal(size=(p, p)))  # orthonormal columns
        values = np.sort(rng.uniform(0.0, 3.0, size=p))[::-1]
        values[-1] = 1e-300  # compiled as the floor, 1e-12, not refused
        X = rng.normal(size=(9, p)) * 10.0
        score = _scorer(values.tolist(), vectors.T.tolist(), q, r)
        block = score(list(X.T), np.zeros(len(X)))
        # mean 0 and std 1 leave each x_j as its own z_j, bit for bit
        constants = ([0.0] * p, [1.0] * p, [False] * p, vectors.tolist(), values.tolist())
        for i, x in enumerate(X.tolist()):
            oracle = loop_scores(x, *constants, q, r)
            assert score(x) == oracle
            assert (block[0][i], block[1][i]) == oracle

    @pytest.mark.parametrize(
        "field, index, value, name",
        [
            ("eigenvectors", (2, 5), math.inf, "eigenvectors[2][5]"),
            ("eigenvectors", (9, 0), math.nan, "eigenvectors[9][0]"),
            ("eigenvectors", (0, 9), -math.inf, "eigenvectors[0][9]"),
            ("eigenvalues", (8,), math.nan, "eigenvalues[8]"),
            ("eigenvalues", (1,), math.inf, "eigenvalues[1]"),
        ],
    )
    def test_non_finite_constant_is_refused_by_name(self, traffic10_model, field, index, value, name):
        # only load_model(verify=False) holds such a model; its repr, inf or
        # nan, would reach the source as an unknown name
        eigenvalues = list(traffic10_model.eigenvalues)
        eigenvectors = [list(row) for row in traffic10_model.eigenvectors]
        numbers = eigenvectors[index[0]] if field == "eigenvectors" else eigenvalues
        numbers[index[-1]] = value
        model = dataclasses.replace(
            traffic10_model, eigenvalues=eigenvalues, eigenvectors=eigenvectors
        )
        with pytest.raises(ValueError, match=re.escape(name)):
            model.scorer


class TestClassify:
    def test_record_equal_to_training_mean_is_normal(self):
        # a constant training set puts the mean exactly on the record
        line = ",".join(["3", "tcp", "http", "SF"] + ["7"] * 37 + ["normal"])
        records = [parse_record(line) for _ in range(10)]
        model = fit(Dataset("constant", [records]), BASIC6)

        verdict = classify(model, records[0])
        assert verdict.major_score == 0.0
        assert verdict.minor_score == 0.0
        assert not verdict.is_attack
        pinned = dataclasses.replace(model, t_major=0.5)
        assert not classify(pinned, records[0]).is_attack

    def test_score_equal_to_threshold_stays_normal(self, basic6_model, corpus_records):
        record = corpus_records[0]
        baseline = classify(basic6_model, record)
        pinned = dataclasses.replace(basic6_model, t_major=baseline.major_score)
        verdict = classify(pinned, record)
        assert not verdict.is_attack
        assert verdict.trigger is Trigger.NONE

        just_below = dataclasses.replace(
            basic6_model, t_major=np.nextafter(baseline.major_score, -np.inf)
        )
        assert classify(just_below, record).is_attack

    def test_raising_threshold_never_creates_attacks(self, basic6_model, corpus_records):
        low = basic6_model
        high = dataclasses.replace(basic6_model, t_major=basic6_model.t_major * 4.0)
        for record in corpus_records[:100]:
            if classify(high, record).is_attack:
                assert classify(low, record).is_attack

    def test_unknown_token_flagged_but_not_auto_attack(self, basic6_model):
        line = line_for(label=None, p3="nntp", p5=300, p6=240)
        record = parse_record(line, allow_unlabeled=True)
        verdict = classify(basic6_model, record)
        assert verdict.unknown_token
        # the flag alone must not force an attack verdict
        relaxed = dataclasses.replace(basic6_model, t_major=1e18)
        assert not classify(relaxed, record).is_attack

    def test_classify_is_pure(self, basic6_model, corpus_records):
        record = corpus_records[5]
        first = classify(basic6_model, record)
        second = classify(basic6_model, record)
        assert first == second

    def test_trigger_labels(self, traffic10_model, corpus_records):
        majc, minc, _ = score_records(traffic10_model, corpus_records)
        seen = set()
        for record in corpus_records:
            seen.add(classify(traffic10_model, record).trigger)
        assert Trigger.NONE in seen
        assert seen - {Trigger.NONE}  # at least one attack trigger on this corpus

    def test_detects_planted_attacks(self, traffic10_model, corpus_records, corpus_labels):
        verdicts = [classify(traffic10_model, r) for r in corpus_records]
        attacks = [
            v.is_attack
            for v, lab in zip(verdicts, corpus_labels)
            if lab.is_attack
        ]
        assert np.mean(attacks) >= 0.95
        normals = [
            v.is_attack
            for v, lab in zip(verdicts, corpus_labels)
            if not lab.is_attack
        ]
        assert np.mean(normals) <= 0.15


class TestScoreRecords:
    def test_matches_classify_exactly(self, basic6_model, corpus_records):
        majc, minc, unknown = score_records(basic6_model, corpus_records)
        for i in (0, 17, 101, len(corpus_records) - 1):
            verdict = classify(basic6_model, corpus_records[i])
            assert majc[i] == verdict.major_score
            assert minc[i] == verdict.minor_score

    def test_classify_equals_score_records_bitwise(self, preset_model, corpus_records):
        # both equal the literal loops of the stated summation order
        model = preset_model
        columns = [list(row) for row in zip(*model.eigenvectors)]  # vectors[j][k]
        constants = (model.mean, model.std, model.degenerate, columns, model.eigenvalues)
        majc, minc, unknown = score_records(model, corpus_records)
        for i, record in enumerate(corpus_records):
            verdict = classify(model, record)
            x, _ = extract_features(record, model.profile, model.encoder)
            oracle = loop_scores(x, *constants, model.q, model.r)
            assert (verdict.major_score, verdict.minor_score) == oracle
            assert verdict.major_score == majc[i]
            assert verdict.minor_score == minc[i]
            assert verdict.unknown_token == unknown[i]

    def test_fit_thresholds_are_nearest_rank_quantiles(self, preset_model, corpus_normals):
        model = preset_model
        majc, minc, _ = score_records(model, corpus_normals)
        config = model.metadata["config"]

        def nearest_rank(scores, alpha):
            return np.sort(scores)[math.ceil((1.0 - alpha) * len(scores)) - 1]

        assert model.t_major == nearest_rank(majc, config["alpha_major"])
        if model.r > 0:
            assert model.t_minor == nearest_rank(minc, config["alpha_minor"])
        else:
            assert model.t_minor is None

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_float_scores_equal_block_scores(self, preset_model, data):
        # A record scored alone as Python floats (classify) must give its row
        # of a block (score_records, fit) for every (q, r) split and every
        # degenerate mask, overflowing values and their inf or NaN scores
        # included. The preset models have no degenerate column, so flipped
        # flags, a list as in a loaded model, reach the compiled standardize on
        # floats and on columns.
        p = preset_model.profile.p
        flips = data.draw(st.lists(st.booleans(), min_size=p, max_size=p), label="flips")
        degenerate = [flag != flip for flag, flip in zip(preset_model.degenerate, flips)]
        model = dataclasses.replace(preset_model, degenerate=degenerate)
        q = data.draw(st.integers(0, p), label="q")
        r = data.draw(st.integers(0, p - q), label="r")
        X = data.draw(
            hnp.arrays(
                float,
                st.tuples(st.integers(1, 12), st.just(p)),
                elements=st.sampled_from([0.0, 1e308, -MAX_FLOAT, MAX_FLOAT])
                | st.floats(-1e6, 1e6)
                | st.floats(-MAX_FLOAT, MAX_FLOAT),
            )
        )
        score = _scorer(model.eigenvalues, model.eigenvectors, q, r)
        zero = np.zeros(len(X))
        with np.errstate(over="ignore", invalid="ignore"):
            block = score(model.standardize(X.T, zero), zero)
        for i, row in enumerate(X.tolist()):
            alone = score(model.standardize(row))
            assert same_scores(alone, (block[0][i], block[1][i]))

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        t_major=st.floats(0.0, 50.0),
        t_minor=st.floats(0.0, 50.0),
        raise_major=st.floats(0.0, 50.0),
        raise_minor=st.floats(0.0, 50.0),
    )
    def test_raising_thresholds_never_creates_attacks(
        self, traffic10_model, corpus_records, data, t_major, t_minor, raise_major, raise_minor
    ):
        record = data.draw(st.sampled_from(corpus_records))
        low = dataclasses.replace(traffic10_model, t_major=t_major, t_minor=t_minor)
        high = dataclasses.replace(
            traffic10_model, t_major=t_major + raise_major, t_minor=t_minor + raise_minor
        )
        if not classify(low, record).is_attack:
            assert not classify(high, record).is_attack


TOKENS = {2: ("tcp", "udp", "icmp"), 3: ("http", "smtp", "private"), 4: ("SF", "REJ")}
UNSEEN = "telnet"


def profile_line(profile, row) -> str:
    """A 41-field unlabeled line with ``row`` at the profile's positions."""
    fields = fields_for()
    for position, value in zip(profile.indices, row):
        fields[position - 1] = value if isinstance(value, str) else repr(value)
    return ",".join(fields)


@st.composite
def fitted_cases(draw):
    """(profile name, q, r, training rows, probe rows) over the accepted domain.

    Training counters drawn from {0, 1} give features with std below 1, as
    sparse traffic counters have; probes reach the largest float.
    """
    name = draw(st.sampled_from(sorted(PROFILES)))
    profile = PROFILES[name]

    def rows(numbers, extra_token, min_size):
        fields = [
            st.sampled_from(TOKENS[pos] + extra_token) if pos in TOKENS else numbers
            for pos in profile.indices
        ]
        return st.lists(st.tuples(*fields), min_size=min_size, max_size=min_size + 16)

    train = draw(rows(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e3), (), 3))
    probes = draw(
        rows(st.sampled_from([0.0, 1e308, MAX_FLOAT]) | st.floats(0.0, MAX_FLOAT), (UNSEEN,), 1)
    )
    q = draw(st.integers(1, profile.p))
    return name, q, draw(st.integers(0, profile.p - q)), train, probes[:4]


# basic6, q=3, r=0, trained on 20 normals where duration and src_bytes have
# std 0.31 and 0.41; a record with both at the largest float projects to
# inf - inf = NaN on a major component.
NAN_REPRODUCTION = (
    "basic6",
    3,
    0,
    list(
        zip(
            [1.0] * 2 + [0.0] * 18,  # duration, std 0.31
            ["tcp", "udp", "tcp", "tcp"] * 5,
            ["http", "smtp", "http", "private", "http"] * 4,
            ["SF"] * 15 + ["REJ"] * 5,
            [1.0, 0.0, 1.0, 1.0, 1.0] + [0.0] * 15,  # src_bytes, std 0.41
            [float(i % 5) for i in range(20)],
        )
    ),
    [(MAX_FLOAT, "tcp", "http", "SF", MAX_FLOAT, 0.0)],
)


class TestNonFiniteScores:
    @settings(max_examples=100, deadline=None)
    @example(case=NAN_REPRODUCTION)
    @given(case=fitted_cases())
    def test_every_accepted_line_scores_finite_or_is_an_attack(self, case):
        name, q, r, train, probes = case
        profile = PROFILES[name]
        records = [parse_record(profile_line(profile, row) + ",normal") for row in train]
        model = fit(Dataset("train", [records]), profile, TrainerConfig(q_override=q, r_override=r))
        with np.errstate(over="ignore"):
            for row in probes:
                record = parse_record(profile_line(profile, row), allow_unlabeled=True)
                verdict = classify(model, record)
                finite = math.isfinite(verdict.major_score) and math.isfinite(verdict.minor_score)
                assert finite or verdict.is_attack
                # the matrix path (score_records and the tally) flags the same record
                probe = record._replace(label="normal")
                report = evaluate(model, Dataset("probe", [[probe]]))
                assert report.cm.fp == int(verdict.is_attack)


class TestClassifyStream:
    def test_empty_input(self, basic6_model):
        assert list(classify_stream(basic6_model, [])) == []

    def test_order_and_count_preserved(self, basic6_model, corpus_lines):
        lines = corpus_lines[:50]
        items = list(classify_stream(basic6_model, lines))
        assert len(items) == 50
        assert [item.line_no for item in items] == list(range(1, 51))
        assert all(item.verdict is not None for item in items)

    def test_malformed_line_embedded_as_error(self, basic6_model, corpus_lines):
        lines = [corpus_lines[0], "bogus,row", corpus_lines[1]]
        items = list(classify_stream(basic6_model, lines))
        assert len(items) == 3
        assert items[1].error is not None
        assert items[1].verdict is None
        assert items[0].verdict is not None and items[2].verdict is not None

    def test_unlabeled_lines_accepted(self, basic6_model, corpus_lines):
        unlabeled = ",".join(corpus_lines[0].split(",")[:41])
        items = list(classify_stream(basic6_model, [unlabeled]))
        assert items[0].verdict is not None

    def test_verdict_line_format(self, basic6_model, corpus_records):
        verdict = classify(basic6_model, corpus_records[0])
        line = verdict.to_line()
        assert line.startswith(("verdict=normal ", "verdict=attack "))
        assert " majc=" in line and " minc=" in line and " trigger=" in line


class TestVerdictTypes:
    def test_field_names_order_and_defaults(self):
        assert Verdict._fields == (
            "is_attack",
            "major_score",
            "minor_score",
            "trigger",
            "unknown_token",
        )
        assert StreamVerdict._fields == ("line_no", "verdict", "error")
        assert Verdict(True, 2.0, 0.0, Trigger.MAJOR).unknown_token is False
        assert StreamVerdict(5) == (5, None, None)

    def test_error_item_has_no_verdict(self):
        item = StreamVerdict(3, error="line 3: bad")
        assert item.verdict is None
        assert (item.line_no, item.error) == (3, "line 3: bad")

    def test_every_path_builds_the_declared_types(self, basic6_model, corpus_lines):
        lines = [corpus_lines[0], "bogus,row", corpus_lines[1]]
        items = list(classify_stream(basic6_model, lines))
        assert [type(item) for item in items] == [StreamVerdict] * 3
        assert [type(item.verdict) for item in items] == [Verdict, type(None), Verdict]
        assert [item.error is None for item in items] == [True, False, True]


def count_public_calls(monkeypatch) -> collections.Counter:
    """Wrap every public module-level function of ``detector`` and ``mvstats``
    with a call counter, rebound in each ``pca_ids`` namespace that holds it,
    as perfbench's tracer rebinds its span wrappers."""
    counts = collections.Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {
        id(fn): counted(f"{module.__name__}.{name}", fn)
        for module in (detector, mvstats)
        for name, fn in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    }
    for module_name, namespace in list(sys.modules.items()):
        if module_name.split(".")[0] == "pca_ids":
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(namespace, attr, wrappers[id(value)])
    return counts


def count_builds(monkeypatch) -> dict:
    """Count the compiles of a model's standardize and scorer, at the names
    that ``fit`` and ``PcaModel`` call them by."""
    builds = {"standardize": 0, "scorer": 0}

    def counted(key, build):
        def wrapper(*args, **kwargs):
            builds[key] += 1
            return build(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(trainer, "_standardizer", counted("standardize", trainer._standardizer))
    monkeypatch.setattr(detector, "_scorer", counted("scorer", detector._scorer))
    return builds


class TestPublicCalls:
    """A public function is one span per call when perfbench traces, so the
    per-record work of classify_stream calls none but classify, and a block
    of evaluate none but score_records."""

    def test_no_hidden_per_record_public_call(self, traffic10_model, corpus_lines, monkeypatch):
        lines = corpus_lines[:50]
        model = dataclasses.replace(traffic10_model)  # a copy with nothing compiled yet
        # this module's names stay the originals, so the entry calls go uncounted
        counts = count_public_calls(monkeypatch)
        # the compiles are private, so counted apart: PcaModel caches them,
        # and without the cache they would run once per record
        builds = count_builds(monkeypatch)
        assert len(list(classify_stream(model, lines))) == 50
        assert set(counts) == {"pca_ids.detector.classify"}, counts
        assert builds == {"standardize": 1, "scorer": 1}

    def test_one_score_records_call_per_block(self, traffic10_model, corpus_records, monkeypatch):
        model = dataclasses.replace(traffic10_model)
        counts = count_public_calls(monkeypatch)
        builds = count_builds(monkeypatch)
        blocks = [corpus_records[:17], corpus_records[17:34], corpus_records[34:50]]
        cm = evaluate(model, Dataset("three blocks", blocks)).cm
        assert cm.tp + cm.fn + cm.fp + cm.tn == 50
        assert counts == {"pca_ids.detector.score_records": 3}, counts
        assert builds == {"standardize": 1, "scorer": 1}

    def test_fit_hands_its_compiled_functions_to_the_model(
        self, corpus_records, corpus_lines, monkeypatch
    ):
        builds = count_builds(monkeypatch)
        model = fit(Dataset("train", [corpus_records]), BASIC6)
        assert len(list(classify_stream(model, corpus_lines[:20]))) == 20
        assert builds == {"standardize": 1, "scorer": 1}
