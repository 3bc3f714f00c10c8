"""Parsing, labeling, encoding, and dataset loading."""

import gc
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from pca_ids import kdd
from pca_ids.kdd import (
    BASIC6,
    TRAFFIC10,
    AttackCategory,
    ConnectionRecord,
    Dataset,
    EmptyDatasetError,
    FeatureProfile,
    MalformedRow,
    categorize_attack,
    encode_matrix,
    encode_normals,
    extract_features,
    parse_record,
)

from . import oracles
from .conftest import make_corpus, read_through


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
        assert len(rec.text.split(",")) == 41
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
        assert rec.text == ",".join(line.split(",")[:41])
        assert (rec.label, rec.difficulty) == ("normal", 15)

    def test_roundtrip_over_whole_corpus(self, corpus_lines):
        for line in corpus_lines:
            rec = parse_record(line)
            fields = line.split(",")
            assert rec.text == ",".join(fields[:41])
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
                 "nan", "-inf", "0x10", "", "tcp", ".5", "5.", "1" + "0" * 300,
                 "9" * 309]
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


def outcome(parse, line, allow_unlabeled):
    """The record ``parse`` gives as a plain tuple, or the message it raises."""
    try:
        record = parse(line, 7, allow_unlabeled)
    except MalformedRow as err:
        return "raised", str(err)
    assert type(record) is ConnectionRecord
    return tuple(record)


# Whitespace that str.strip and float() both drop; \x1c-\x1f are among it.
WHITESPACE = ["\t", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", " "]


def _insert(text):
    return lambda value, pad: value[:1] + text + value[1:]


# Edits that take a field off the canonical form; (value, whitespace) -> value.
FIELD_MUTATIONS = {
    "pad around": lambda value, pad: pad + value + pad,
    "pad inside": lambda value, pad: value[:1] + pad + value[1:],
    "plus sign": lambda value, pad: "+" + value,
    "minus sign": lambda value, pad: "-" + value,
    "exponent": lambda value, pad: value + "e5",
    "huge exponent": lambda value, pad: value + "e400",
    "negative exponent": lambda value, pad: value + "E-3",
    "underscore": _insert("_"),
    "leading dot": lambda value, pad: ".5",
    "trailing dot": lambda value, pad: "5.",
    "300 digits": lambda value, pad: "9" * 300,
    "301 digits": lambda value, pad: "1" + "0" * 300,
    "309 digits": lambda value, pad: "9" * 309,
    "DEL": _insert("\x7f"),
    "Arabic-Indic digit": _insert("\u0665"),
    "fullwidth digit": lambda value, pad: "\uff17",
    "accented letter": _insert("\u00e9"),
    "empty": lambda value, pad: "",
}

canonical_number = st.one_of(
    st.integers(0, 10**12).map(str),
    st.integers(1, 999).map(str),  # not 0, which takes a sign and stays valid
    st.builds("{}.{}".format, st.integers(0, 10**6), st.sampled_from(["", "0", "5", "0625"])),
)
canonical_token = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E, blacklist_characters=","),
    min_size=1,
    max_size=8,
)
labels = st.one_of(
    st.sampled_from(["normal", "neptune.", "smurf..", ".", ""]), canonical_token
)
difficulties = st.one_of(
    st.integers(0, 10**18 - 1).map(str),
    st.sampled_from(["007", "9" * 19, "+3", "-1", "1_0", "x", "", "\u0665"]),
)


@st.composite
def canonical_rows(draw):
    """41 canonical fields, then nothing, a label, or a label and a difficulty."""
    fields = draw(st.lists(canonical_number, min_size=41, max_size=41))
    fields[1:4] = draw(st.lists(canonical_token, min_size=3, max_size=3))
    tail = draw(st.integers(0, 2))
    if tail >= 1:
        fields.append(draw(labels))
    if tail == 2:
        fields.append(draw(difficulties))
    return fields


CANONICAL = fields_for(p5=491) + ["normal", "21"]


class TestCanonicalFastPath:
    """parse_record's one-match path for canonical lines changes no outcome."""

    @settings(max_examples=600, deadline=None)
    @example(  # the token class must not hold whitespace that strip drops
        fields=CANONICAL, mutations=[("pad around", 2, "\x1c")], n_fields=None, around="",
        allow_unlabeled=False,
    )
    @example(  # nor may a number carry a sign
        fields=CANONICAL, mutations=[("minus sign", 4, "")], n_fields=None, around="",
        allow_unlabeled=False,
    )
    @example(  # and 309 digits overflow a float
        fields=CANONICAL, mutations=[("309 digits", 5, "")], n_fields=None, around="",
        allow_unlabeled=True,
    )
    @given(
        fields=canonical_rows(),
        mutations=st.lists(
            st.tuples(
                st.sampled_from(sorted(FIELD_MUTATIONS)),
                # a token (fields 2-4) half the time
                st.one_of(st.integers(1, 3), st.integers(0, 42)),
                st.sampled_from(WHITESPACE),
            ),
            min_size=1,
            max_size=2,
        ),
        n_fields=st.sampled_from([None, None, None, 40, 41, 42, 43, 44]),  # None: as built
        around=st.sampled_from(["", "\n", "\r\n", " ", "\t", "\x1f"]),
        allow_unlabeled=st.booleans(),
    )
    def test_same_outcome_as_the_per_field_path(
        self, fields, mutations, n_fields, around, allow_unlabeled
    ):
        fields = list(fields)
        for kind, index, pad in mutations:
            index %= len(fields)
            fields[index] = FIELD_MUTATIONS[kind](fields[index], pad)
        if n_fields is not None:
            fields = (fields + ["0"] * 5)[:n_fields]
        line = around + ",".join(fields) + around
        fast = outcome(parse_record, line, allow_unlabeled)
        per_field = outcome(kdd._parse_fields, line, allow_unlabeled)
        assert fast == per_field
        if fast[0] != "raised":  # both give the text of the 41 stripped fields
            stripped = ",".join(field.strip() for field in line.strip().split(",")[:41])
            assert fast[0] == per_field[0] == stripped

    def test_canonical_lines_skip_the_per_field_path(self, corpus_lines, monkeypatch):
        def per_field(line, line_no, allow_unlabeled):
            raise AssertionError(f"per-field path taken for {line!r}")

        monkeypatch.setattr(kdd, "_parse_fields", per_field)
        extremes = fields_for(p1="9" * 300, p5="5.", p6="0.0625", p41="0" * 300)
        lines = [
            *corpus_lines,
            ",".join(extremes) + ",smurf.," + "9" * 18 + "\n",
            " " + ",".join(extremes) + "\t",
        ]
        for line in lines:
            parse_record(line, allow_unlabeled=True)


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
        assert categorize_attack(name) is category
        assert category.is_attack

    def test_normal_is_not_attack(self):
        label = categorize_attack("normal")
        assert label is AttackCategory.NORMAL
        assert not label.is_attack

    def test_unrecognized_name_is_unknown_attack(self):
        label = categorize_attack("mscan")
        assert label is AttackCategory.UNKNOWN
        assert label.is_attack

    def test_trailing_period_normalized(self):
        assert categorize_attack("neptune.") is AttackCategory.DOS

    @pytest.mark.parametrize("category", list(AttackCategory), ids=lambda c: c.value)
    def test_every_category_is_its_own_label(self, category):
        name = {
            AttackCategory.NORMAL: "normal",
            AttackCategory.DOS: "smurf",
            AttackCategory.PROBE: "nmap",
            AttackCategory.R2L: "imap",
            AttackCategory.U2R: "perl",
            AttackCategory.UNKNOWN: "mscan",
        }[category]
        assert categorize_attack(name) is category
        assert category.is_attack is (category is not AttackCategory.NORMAL)


class TestLoadDataset:
    def test_counts_match_generator(self, corpus_counts):
        from .conftest import CORPUS_COUNTS

        assert len(corpus_counts) == sum(CORPUS_COUNTS.values())
        assert corpus_counts.n_normal == CORPUS_COUNTS["normal"]
        cats = corpus_counts.category_counts()
        assert cats[AttackCategory.DOS] == CORPUS_COUNTS["neptune"]
        assert cats[AttackCategory.PROBE] == CORPUS_COUNTS["satan"]
        assert cats[AttackCategory.R2L] == CORPUS_COUNTS["guess_passwd"]
        assert cats[AttackCategory.U2R] == CORPUS_COUNTS["rootkit"]
        assert cats[AttackCategory.UNKNOWN] == CORPUS_COUNTS["mscan"]
        assert corpus_counts.malformed_count == 0

    def test_category_sum_invariant(self, corpus_counts):
        cats = corpus_counts.category_counts()
        assert corpus_counts.n_normal + sum(cats.values()) == len(corpus_counts)

    def test_malformed_rows_skipped_and_counted(self, tmp_path):
        path = tmp_path / "mixed.txt"
        good = line_for(label="normal")
        path.write_text(good + "\n" + "1,2,3\n")
        ds = read_through(Dataset(str(path)))
        assert len(ds) == 1
        assert ds.malformed_count == 1
        assert ds.malformed_lines[0][0] == 2

    def test_undecodable_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "bytes.txt"
        good = line_for(label="normal").encode()
        bad = line_for(label="normal", p3="http").replace("http", "ht\xfftp", 1)
        path.write_bytes(good + b"\n" + bad.encode("latin-1") + b"\n" + good + b"\n")
        ds = read_through(Dataset(str(path)))
        assert len(ds) == 2
        assert ds.malformed_count == 1
        assert ds.malformed_lines[0][0] == 2
        assert "UTF-8" in ds.malformed_lines[0][1]

    def test_blocks_carry_records_and_class_codes(
        self, corpus_file, corpus_records, corpus_labels, monkeypatch
    ):
        monkeypatch.setattr(kdd, "CHUNK_LINES", 100)
        blocks = list(Dataset(corpus_file))
        assert [len(records) for records, _ in blocks] == [100] * 5 + [6]
        assert [r for records, _ in blocks for r in records] == corpus_records
        codes = [code for _, block_codes in blocks for code in block_codes]
        assert [kdd.CLASSES[code] for code in codes] == corpus_labels

    def test_class_code_of_any_label_is_its_category(self):
        labels = ["normal", "Neptune.", "mscan", "smurf", None, "NORMAL", "mscan", None]
        records = [ConnectionRecord(",".join(fields_for()), label) for label in labels]
        dataset = Dataset("labels", [records[:4], records[4:]])
        codes = [code for _, block_codes in dataset for code in block_codes]
        expected = [categorize_attack(label or "") for label in labels]
        assert [kdd.CLASSES[code] for code in codes] == expected
        assert expected[4] is AttackCategory.UNKNOWN
        assert dataset.n_normal == 2

    def test_counts_are_set_when_the_pass_ends(self, corpus_file):
        dataset = Dataset(corpus_file)
        blocks = iter(dataset)
        next(blocks)
        assert len(dataset) == 0
        for _ in blocks:
            pass
        assert len(dataset) == len(make_corpus())

    def test_a_dataset_is_read_once(self, corpus_dataset):
        read_through(corpus_dataset)
        with pytest.raises(ValueError, match="read once"):
            read_through(corpus_dataset)

    @pytest.mark.parametrize(
        "command, bound", [("evaluate", 64), ("sweep", 64), ("train", 200)]
    )
    def test_a_pass_holds_only_the_results_it_keeps(
        self, command, bound, traffic10_model, tmp_path
    ):
        # The growth of the tracemalloc peak from n to 4n lines, per line:
        # evaluate and sweep keep two scores and a class code per record,
        # train the normals' traffic10 rows. Holding the records took
        # about 540 B per line.
        from pca_ids.evaluation import evaluate, sweep
        from pca_ids.trainer import fit

        from .conftest import CORPUS_COUNTS

        grid = [(t, u) for t in (1.0, 5.0, 25.0) for u in (0.5, 5.0)]
        run = {
            "evaluate": lambda path: evaluate(traffic10_model, Dataset(path)),
            "sweep": lambda path: sweep(traffic10_model, Dataset(path), grid),
            "train": lambda path: fit(Dataset(path), TRAFFIC10),
        }[command]

        def peak(units: int) -> tuple[int, int]:
            counts = {label: n * units for label, n in CORPUS_COUNTS.items()}
            lines = make_corpus(counts, seed=units)
            path = tmp_path / f"{units}.txt"
            path.write_text("\n".join(lines) + "\n")
            gc.collect()
            tracemalloc.start()
            try:
                run(str(path))
                return len(lines), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-use allocations
        (n, small), (n4, large) = peak(4), peak(16)
        assert (large - small) / (n4 - n) <= bound

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(EmptyDatasetError):
            read_through(Dataset(str(path)))

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            read_through(Dataset(str(tmp_path / "nope.txt")))

    def test_summary_mentions_counts(self, corpus_counts):
        text = corpus_counts.summary()
        assert f"records: {len(corpus_counts)}" in text
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
        X, enc = encode_normals(Dataset("tokens", [records]), BASIC6)
        assert enc[2] == {"icmp": 0, "tcp": 1, "udp": 2}
        assert X[:, 1].tolist() == [1.0, 2.0, 0.0, 1.0]

    def test_single_token_feature(self):
        records = self._records(["tcp", "tcp"])
        _, enc = encode_normals(Dataset("tokens", [records]), BASIC6)
        assert enc[2] == {"tcp": 0}

    def test_rebuild_is_identical(self, corpus_file):
        first = encode_normals(Dataset(corpus_file), BASIC6)
        second = encode_normals(Dataset(corpus_file), BASIC6)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1] == second[1]

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDatasetError):
            encode_normals(Dataset("none", [[]]), BASIC6)

    @pytest.mark.parametrize("profile", [BASIC6, TRAFFIC10], ids=lambda p: p.name)
    def test_renumbered_codes_are_the_sorted_codes_of_one_pass(self, profile, corpus_normals):
        # Tokens first seen out of sorted order and in later blocks, down to
        # the last, an attack block whose tokens stay out, and an empty block.
        late = parse_record(line_for(label="normal", p2="zzz", p3="aaa", p4="S1", p23=3))
        attack = parse_record(line_for(label="neptune", p2="attack-only", p3="private"))
        blocks = [corpus_normals[:7], [], [attack], corpus_normals[7:300], [*corpus_normals[300:], late]]
        X, encoder = encode_normals(Dataset("blocks", blocks), profile)

        normals = [record for block in blocks for record in block if record.label == "normal"]
        services = [record.text.split(",")[2] for record in normals]
        first_seen = list(dict.fromkeys(services))
        assert first_seen != sorted(first_seen) and first_seen.index("aaa") == len(first_seen) - 1
        # the encoder of one pass over all normals: dense codes in sorted token order
        expected = {
            position: {
                token: code
                for code, token in enumerate(
                    sorted({record.text.split(",")[position - 1] for record in normals})
                )
            }
            for position in profile.categorical_indices
        }
        assert encoder == expected
        assert all(list(table) == sorted(table) for table in encoder.values())
        reference, unknown = encode_matrix(normals, profile, expected)
        assert not unknown.any()
        assert X.tobytes() == reference.tobytes()

    def test_no_normal_record_rejected_after_the_pass(self):
        attack = parse_record(line_for(label="neptune"))
        dataset = Dataset("attacks", [[attack]])
        with pytest.raises(EmptyDatasetError, match="no normal records in attacks"):
            encode_normals(dataset, BASIC6)
        assert len(dataset) == 1


class TestExtractFeatures:
    @pytest.fixture()
    def encoder(self):
        lines = [
            line_for(label="normal", p2="tcp", p3="http", p4="SF"),
            line_for(label="normal", p2="udp", p3="smtp", p4="REJ"),
            line_for(label="normal", p2="icmp", p3="ftp", p4="S0"),
        ]
        records = [parse_record(line) for line in lines]
        return encode_normals(Dataset("tokens", [records]), BASIC6)[1]

    def test_basic6_vector(self, encoder):
        rec = parse_record(
            line_for(label="normal", p1=0, p2="tcp", p3="http", p4="SF", p5=491, p6=0)
        )
        fv = extract_features(rec, BASIC6, encoder)
        expected = [
            0.0,
            float(encoder[2]["tcp"]),
            float(encoder[3]["http"]),
            float(encoder[4]["SF"]),
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
        assert fv.values[2] == float(len(encoder[3]))


class TestFeatureProfile:
    def test_builtin_profiles(self):
        assert BASIC6.indices == (1, 2, 3, 4, 5, 6)
        assert TRAFFIC10.indices == (1, 2, 3, 4, 5, 6, 23, 24, 32, 33)
        assert BASIC6.categorical_indices == (2, 3, 4)

    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            FeatureProfile("bad", (3, 2))

    def test_a_profile_has_an_index(self):
        with pytest.raises(ValueError, match="at least one index"):
            FeatureProfile("empty", ())

    @pytest.mark.parametrize(
        "indices, tokens",
        [
            pytest.param((1, 5), (), id="none"),
            pytest.param((3, 5), (3,), id="one"),
            pytest.param((1, 2, 3, 4, 7), (2, 3, 4), id="all"),
        ],
    )
    def test_categorical_indices_are_the_token_fields(self, indices, tokens):
        profile = FeatureProfile("derived", indices)
        assert profile.categorical_indices == tokens
        assert profile.p == len(indices)
