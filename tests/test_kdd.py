"""Parsing, labeling, encoding, and dataset loading."""

import pytest
from hypothesis import example, given, settings, strategies as st

from pca_ids.kdd import (
    BASIC6,
    TRAFFIC10,
    AttackCategory,
    EmptyDatasetError,
    FeatureProfile,
    MalformedRow,
    build_encoder,
    categorize_attack,
    extract_features,
    load_dataset,
    parse_record,
)

from . import oracles


def fields_for(**positions) -> list[str]:
    """41 zero fields with selected 1-based positions overridden."""
    fields = ["0"] * 41
    fields[1] = "tcp"
    fields[2] = "http"
    fields[3] = "SF"
    for pos, value in positions.items():
        fields[int(pos.lstrip("p")) - 1] = str(value)
    return fields


def line_for(label=None, difficulty=None, **positions) -> str:
    parts = fields_for(**positions)
    if label is not None:
        parts.append(label)
    if difficulty is not None:
        parts.append(str(difficulty))
    return ",".join(parts)


class TestParseRecord:
    def test_labeled_with_difficulty(self):
        rec = parse_record(line_for(label="normal", difficulty=21))
        assert len(rec.raw_features) == 41
        assert rec.label == "normal"
        assert rec.difficulty == 21

    def test_labeled_without_difficulty(self):
        rec = parse_record(line_for(label="neptune"))
        assert rec.label == "neptune"
        assert rec.difficulty is None

    def test_short_row_rejected(self):
        line = ",".join(["0"] * 40)
        with pytest.raises(MalformedRow):
            parse_record(line, line_no=7)
        try:
            parse_record(line, line_no=7)
        except MalformedRow as err:
            assert err.line_no == 7
            assert "line 7" in str(err)

    def test_non_numeric_field_rejected(self):
        with pytest.raises(MalformedRow, match="position 5"):
            parse_record(line_for(label="normal", p5="oops"))

    @pytest.mark.parametrize("bad", ["-3", "inf", "nan"])
    def test_numeric_fields_must_be_finite_non_negative(self, bad):
        with pytest.raises(MalformedRow):
            parse_record(line_for(label="normal", p6=bad))

    def test_bad_difficulty_rejected(self):
        with pytest.raises(MalformedRow, match="difficulty"):
            parse_record(line_for(label="normal") + ",x")

    def test_kdd99_trailing_period_stripped(self):
        rec = parse_record(line_for(label="smurf."))
        assert rec.label == "smurf"

    def test_unlabeled_requires_flag(self):
        line = ",".join(fields_for())
        with pytest.raises(MalformedRow):
            parse_record(line)
        rec = parse_record(line, allow_unlabeled=True)
        assert rec.label is None

    def test_roundtrip_preserves_features(self):
        line = line_for(label="normal", difficulty=15, p5=491, p23=9)
        rec = parse_record(line)
        assert ",".join(rec.raw_features) == ",".join(line.split(",")[:41])
        assert (rec.label, rec.difficulty) == ("normal", 15)

    def test_roundtrip_over_whole_corpus(self, corpus_lines):
        for line in corpus_lines:
            rec = parse_record(line)
            fields = line.split(",")
            assert ",".join(rec.raw_features) == ",".join(fields[:41])
            difficulty = int(fields[42]) if len(fields) == 43 else None
            assert (rec.label, rec.difficulty) == (fields[41], difficulty)

    def test_undecodable_byte_in_token_rejected(self):
        # how open_text decodes a 0xFF byte inside the service token
        line = line_for(label="normal", p3="ht\udcfftp")
        with pytest.raises(MalformedRow, match="UTF-8"):
            parse_record(line, allow_unlabeled=True)

    @settings(max_examples=300, deadline=None)
    @example(overrides={5: "1e308", 6: "1e308"})  # finite fields, overflowing sum
    @example(overrides={6: "-0"})
    @given(
        overrides=st.dictionaries(
            st.integers(1, 41),
            st.sampled_from(
                ["0", "1.5", "1_0", " 7 ", "-0", "+3", "1e308", "1e309",
                 "nan", "-inf", "0x10", "", "tcp"]
            ),
            max_size=5,
        )
    )
    def test_accepts_exactly_the_valid_lines(self, overrides):
        fields = fields_for(**{f"p{k}": v for k, v in overrides.items()})
        try:
            parse_record(",".join(fields) + ",normal")
            accepted = True
        except MalformedRow:
            accepted = False
        assert accepted == oracles.fields_acceptable(fields)

    @settings(max_examples=300, deadline=None)
    @given(
        line=st.one_of(
            st.text(st.characters(blacklist_categories=())),
            st.lists(
                st.one_of(
                    st.sampled_from(["0", "1.5", "-1", "nan", "inf", "1e400", "tcp", ""]),
                    st.text(st.characters(blacklist_categories=()), max_size=4),
                ),
                min_size=40,
                max_size=44,
            ).map(",".join),
        ),
        allow_unlabeled=st.booleans(),
    )
    def test_arbitrary_text_raises_only_malformed_row(self, line, allow_unlabeled):
        try:
            parse_record(line, allow_unlabeled=allow_unlabeled)
        except MalformedRow:
            pass


class TestCategorize:
    @pytest.mark.parametrize(
        "name,category",
        [
            ("neptune", AttackCategory.DOS),
            ("smurf", AttackCategory.DOS),
            ("satan", AttackCategory.PROBE),
            ("warezmaster", AttackCategory.R2L),
            ("buffer_overflow", AttackCategory.U2R),
        ],
    )
    def test_standard_taxonomy(self, name, category):
        label = categorize_attack(name)
        assert label.is_attack
        assert label.category is category

    def test_normal_is_not_attack(self):
        label = categorize_attack("normal")
        assert not label.is_attack
        assert label.category is AttackCategory.NORMAL

    def test_unrecognized_name_is_unknown_attack(self):
        label = categorize_attack("mscan")
        assert label.is_attack
        assert label.category is AttackCategory.UNKNOWN

    def test_trailing_period_normalized(self):
        assert categorize_attack("neptune.").category is AttackCategory.DOS


class TestLoadDataset:
    def test_counts_match_generator(self, corpus_dataset):
        from .conftest import CORPUS_COUNTS

        assert len(corpus_dataset) == sum(CORPUS_COUNTS.values())
        assert corpus_dataset.n_normal == CORPUS_COUNTS["normal"]
        cats = corpus_dataset.category_counts()
        assert cats[AttackCategory.DOS] == CORPUS_COUNTS["neptune"]
        assert cats[AttackCategory.PROBE] == CORPUS_COUNTS["satan"]
        assert cats[AttackCategory.R2L] == CORPUS_COUNTS["guess_passwd"]
        assert cats[AttackCategory.U2R] == CORPUS_COUNTS["rootkit"]
        assert cats[AttackCategory.UNKNOWN] == CORPUS_COUNTS["mscan"]
        assert corpus_dataset.malformed_count == 0

    def test_category_sum_invariant(self, corpus_dataset):
        cats = corpus_dataset.category_counts()
        assert corpus_dataset.n_normal + sum(cats.values()) == len(corpus_dataset)

    def test_malformed_rows_skipped_and_counted(self, tmp_path):
        path = tmp_path / "mixed.txt"
        good = line_for(label="normal")
        path.write_text(good + "\n" + "1,2,3\n")
        ds = load_dataset(str(path))
        assert len(ds) == 1
        assert ds.malformed_count == 1
        assert ds.malformed_lines[0][0] == 2

    def test_undecodable_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "bytes.txt"
        good = line_for(label="normal").encode()
        bad = line_for(label="normal", p3="http").replace("http", "ht\xfftp", 1)
        path.write_bytes(good + b"\n" + bad.encode("latin-1") + b"\n" + good + b"\n")
        ds = load_dataset(str(path))
        assert len(ds) == 2
        assert ds.malformed_count == 1
        assert ds.malformed_lines[0][0] == 2
        assert "UTF-8" in ds.malformed_lines[0][1]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(EmptyDatasetError):
            load_dataset(str(path))

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(str(tmp_path / "nope.txt"))

    def test_summary_mentions_counts(self, corpus_dataset):
        text = corpus_dataset.summary()
        assert f"records: {len(corpus_dataset)}" in text
        assert "malformed: 0" in text
        assert "DOS" in text


class TestEncoder:
    def _records(self, tokens, position=2):
        out = []
        for tok in tokens:
            key = f"p{position}"
            out.append(parse_record(line_for(label="normal", **{key: tok})))
        return out

    def test_lexicographic_codes(self):
        records = self._records(["tcp", "udp", "icmp", "tcp"])
        enc = build_encoder(records, BASIC6)
        assert enc.tables[2] == {"icmp": 0, "tcp": 1, "udp": 2}

    def test_single_token_feature(self):
        records = self._records(["tcp", "tcp"])
        enc = build_encoder(records, BASIC6)
        assert enc.tables[2] == {"tcp": 0}

    def test_rebuild_is_identical(self, corpus_dataset):
        first = build_encoder(corpus_dataset, BASIC6)
        second = build_encoder(corpus_dataset, BASIC6)
        assert first.tables == second.tables

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDatasetError):
            build_encoder([], BASIC6)


class TestExtractFeatures:
    @pytest.fixture()
    def encoder(self):
        lines = [
            line_for(label="normal", p2="tcp", p3="http", p4="SF"),
            line_for(label="normal", p2="udp", p3="smtp", p4="REJ"),
            line_for(label="normal", p2="icmp", p3="ftp", p4="S0"),
        ]
        records = [parse_record(line) for line in lines]
        return build_encoder(records, BASIC6)

    def test_basic6_vector(self, encoder):
        rec = parse_record(
            line_for(label="normal", p1=0, p2="tcp", p3="http", p4="SF", p5=491, p6=0)
        )
        fv = extract_features(rec, BASIC6, encoder)
        expected = [
            0.0,
            float(encoder.tables[2]["tcp"]),
            float(encoder.tables[3]["http"]),
            float(encoder.tables[4]["SF"]),
            491.0,
            0.0,
        ]
        assert fv.values == expected
        assert not fv.unknown_token

    def test_traffic10_appends_counts(self, encoder):
        rec = parse_record(
            line_for(
                label="normal", p5=491, p23=12, p24=9, p32=100, p33=90
            )
        )
        fv = extract_features(rec, TRAFFIC10, encoder)
        assert len(fv.values) == 10
        assert fv.values[6:] == [12.0, 9.0, 100.0, 90.0]

    def test_unknown_token_gets_overflow_code(self, encoder):
        rec = parse_record(line_for(label="normal", p3="irc"))
        fv = extract_features(rec, BASIC6, encoder)
        assert fv.unknown_token
        assert len(fv.values) == 6
        assert fv.values[2] == float(encoder.size(3))


class TestFeatureProfile:
    def test_builtin_profiles(self):
        assert BASIC6.indices == (1, 2, 3, 4, 5, 6)
        assert TRAFFIC10.indices == (1, 2, 3, 4, 5, 6, 23, 24, 32, 33)
        assert BASIC6.categorical_indices == (2, 3, 4)

    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            FeatureProfile("bad", (3, 2), ())

    def test_categoricals_must_be_subset(self):
        with pytest.raises(ValueError):
            FeatureProfile("bad", (1, 2), (4,))
