"""End-to-end command-line behavior, including the exit-code contract."""

import io
import json
import os
import re
import select
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import pca_ids
from pca_ids import detector, kdd
from pca_ids.cli import grid_spec, main
from pca_ids.kdd import MalformedRow, parse_record
from pca_ids.modelio import load_model

from .conftest import read_through
from .test_kdd import line_for


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_cli_without_warnings(argv, capsys):
    """run_cli, asserting that no warning was raised and none reached stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in err and "overflow" not in err, err
    return code, out, err


def subprocess_env() -> dict:
    """The environment for a child interpreter that imports this checkout's pca_ids."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(pca_ids.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def with_src_bytes(lines, value, count):
    """``lines`` with src_bytes set to ``value`` on the first ``count`` normal rows."""
    lines = list(lines)
    changed = 0
    for k, line in enumerate(lines):
        fields = line.split(",")
        if fields[41] == "normal" and changed < count:
            fields[4] = value
            lines[k] = ",".join(fields)
            changed += 1
    return lines


@pytest.fixture()
def trained(corpus_file, tmp_path, capsys):
    path = tmp_path / "model.json"
    code, out, err = run_cli(
        ["train", "--data", corpus_file, "--profile", "basic6", "--out", str(path)],
        capsys,
    )
    assert code == 0, err
    return str(path)


class TestTrain:
    def test_train_writes_model_and_summary(self, corpus_file, tmp_path, capsys):
        path = tmp_path / "m.json"
        code, out, err = run_cli(
            ["train", "--data", corpus_file, "--profile", "basic6", "--out", str(path)],
            capsys,
        )
        assert code == 0
        assert path.exists()
        assert "eigenvalues" in out
        assert "thresholds" in out

    def test_preset_pins_selection(self, corpus_file, tmp_path, capsys):
        path = tmp_path / "m.json"
        code, _, _ = run_cli(
            ["train", "--data", corpus_file, "--preset", "step1", "--out", str(path)],
            capsys,
        )
        assert code == 0
        model = load_model(str(path))
        assert model.profile.name == "basic6"
        assert (model.q, model.r) == (3, 0)

    def test_step2_preset(self, corpus_file, tmp_path, capsys):
        path = tmp_path / "m.json"
        code, _, _ = run_cli(
            ["train", "--data", corpus_file, "--preset", "step2", "--out", str(path)],
            capsys,
        )
        assert code == 0
        model = load_model(str(path))
        assert model.profile.name == "traffic10"
        assert (model.q, model.r) == (3, 2)
        assert model.t_minor is not None

    def test_missing_data_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(["train", "--out", "x.json"], capsys)
        assert code == 2

    def test_profile_preset_conflict_is_usage_error(self, corpus_file, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "train",
                "--data",
                corpus_file,
                "--preset",
                "step1",
                "--profile",
                "traffic10",
                "--out",
                str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 2

    def test_oversized_r_is_shrunk(self, corpus_file, tmp_path, capsys):
        path = tmp_path / "m.json"
        code, _, _ = run_cli(
            [
                "train",
                "--data",
                corpus_file,
                "--profile",
                "traffic10",
                "--q",
                "3",
                "--r",
                "9",
                "--out",
                str(path),
            ],
            capsys,
        )
        assert code == 0
        model = load_model(str(path))
        assert (model.q, model.r) == (3, 7)

    @pytest.mark.parametrize("huge", ["1e200", "1e308"])
    def test_overflowing_feature_is_runtime_error(self, corpus_lines, tmp_path, capsys, huge):
        # 1e200 overflows the squares (std = inf); 1e308 overflows the sum too
        data = tmp_path / "huge.txt"
        data.write_text("\n".join(with_src_bytes(corpus_lines, huge, 2)) + "\n")
        out_path = tmp_path / "m.json"
        code, _, err = run_cli_without_warnings(
            ["train", "--data", str(data), "--preset", "step1", "--out", str(out_path)],
            capsys,
        )
        assert code == 1
        assert re.fullmatch(r"error: .*src_bytes.*\n", err), err
        assert not out_path.exists()

    @pytest.mark.parametrize("cutoff", ["nan", "inf"])
    def test_non_finite_minor_cutoff_is_refused_before_loading(
        self, corpus_file, tmp_path, capsys, cutoff
    ):
        out_path = tmp_path / "m.json"
        code, out, err = run_cli(
            ["train", "--data", corpus_file, "--profile", "basic6",
             "--minor-cutoff", cutoff, "--out", str(out_path)],
            capsys,
        )
        assert code == 2
        assert f"error: argument --minor-cutoff: must be finite and positive, got '{cutoff}'" in err
        assert out == ""  # no dataset summary: the data was never read
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "flag, value, wording",
        [
            ("--q", "0", ">= 1"),
            ("--q", "7", "<= 6, the p of basic6"),
            ("--r", "-1", ">= 0"),
            ("--alpha-major", "1.5", "in (0, 1)"),
            ("--alpha-minor", "0", "in (0, 1)"),
            ("--variance-target", "0", "in (0, 1]"),
            ("--minor-cutoff", "nan", "finite and positive"),
        ],
    )
    def test_setting_out_of_range_is_usage_error(self, tmp_path, capsys, flag, value, wording):
        # --data does not exist: the refusal comes before the file is read
        out_path = tmp_path / "m.json"
        code, out, err = run_cli(
            ["train", "--data", str(tmp_path / "nope.txt"), "--profile", "basic6",
             flag, value, "--out", str(out_path)],
            capsys,
        )
        assert code == 2
        assert err.endswith(f"error: argument {flag}: must be {wording}, got '{value}'\n"), err
        assert out == ""
        assert not out_path.exists()

    def test_unreadable_data_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["train", "--data", str(tmp_path / "nope.txt"), "--profile", "basic6",
             "--out", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 1
        assert "error" in err.lower()


class TestEvaluate:
    def test_text_report(self, trained, corpus_file, capsys):
        code, out, _ = run_cli(
            ["evaluate", "--model", trained, "--data", corpus_file], capsys
        )
        assert code == 0
        assert "confusion matrix" in out
        assert "overall success" in out

    def test_machine_report_parses(self, trained, corpus_file, capsys):
        code, out, _ = run_cli(
            ["evaluate", "--model", trained, "--data", corpus_file, "--format", "machine"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert {"tp", "fn", "fp", "tn", "overall_success"} <= set(doc)

    def test_report_written_to_file(self, trained, corpus_file, tmp_path, capsys):
        report = tmp_path / "report.txt"
        code, out, _ = run_cli(
            ["evaluate", "--model", trained, "--data", corpus_file, "--report", str(report)],
            capsys,
        )
        assert code == 0
        assert report.read_text().strip() == out.strip()

    def test_empty_dataset_is_runtime_error(self, trained, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, _, err = run_cli(
            ["evaluate", "--model", trained, "--data", str(empty)], capsys
        )
        assert code == 1
        assert "no valid records" in err

    def test_bad_model_path_is_runtime_error(self, corpus_file, tmp_path, capsys):
        code, _, _ = run_cli(
            ["evaluate", "--model", str(tmp_path / "m.json"), "--data", corpus_file],
            capsys,
        )
        assert code == 1

    def test_evaluate_and_classify_never_import_logging(self, trained, corpus_file):
        # logging costs about 5 ms of start-up; only fit's q + r > p warning uses it
        evaluate = ["evaluate", "--model", trained, "--data", corpus_file]
        classify = ["classify", "--model", trained, "--input", corpus_file]
        code = (
            "import sys; from pca_ids.cli import main; "
            f"assert main({evaluate!r}) == 0; assert main({classify!r}) == 0; "
            "sys.exit('logging' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command", ["classify --input", "classify stdin", "inspect"])
    def test_classify_and_inspect_never_import_numpy(
        self, command, trained, corpus_lines, tmp_path
    ):
        # numpy's import is most of a command's start-up, and a one-record
        # input, a live feed and inspect build no matrix
        one = tmp_path / "one.txt"
        one.write_text(corpus_lines[0] + "\n")
        argv, stdin, printed = {
            "classify --input": (
                ["classify", "--model", trained, "--input", str(one)], None, b"verdict="
            ),
            "classify stdin": (["classify", "--model", trained], one.read_bytes(), b"verdict="),
            "inspect": (["inspect", "--model", trained], None, b"profile: "),
        }[command]
        code = (
            "import sys; from pca_ids.cli import main; "
            f"assert main({argv!r}) == 0; sys.exit('numpy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            input=stdin,
            env=subprocess_env(),
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(printed)

    def test_every_layer_module_imports_without_numpy(self):
        # perfbench's tracer looks the seven layers up in sys.modules. The
        # package loads six; cli, the entry point, is not imported by the
        # package, or `python -m pca_ids.cli` would run it twice.
        layers = ["kdd", "mvstats", "trainer", "detector", "evaluation", "modelio", "cli"]
        code = (
            "import sys, pca_ids, pca_ids.cli; "
            f"assert all('pca_ids.' + name in sys.modules for name in {layers!r}); "
            "sys.exit('numpy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr


class TestClassify:
    def test_file_replay_matches_evaluate(self, trained, corpus_file, capsys):
        code, out, err = run_cli(
            ["classify", "--model", trained, "--input", corpus_file], capsys
        )
        assert code == 0
        verdicts = [line for line in out.splitlines() if line.startswith("verdict=")]
        attacks = sum(1 for line in verdicts if line.startswith("verdict=attack"))

        code, out, _ = run_cli(
            ["evaluate", "--model", trained, "--data", corpus_file, "--format", "machine"],
            capsys,
        )
        doc = json.loads(out)
        assert attacks == doc["tp"] + doc["fp"]
        assert len(verdicts) == doc["tp"] + doc["fp"] + doc["fn"] + doc["tn"]

    def test_empty_stdin(self, trained, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, out, err = run_cli(["classify", "--model", trained], capsys)
        assert code == 0
        assert out == ""
        assert "processed=0" in err

    def test_unlabeled_line_accepted(self, trained, corpus_lines, capsys, monkeypatch):
        unlabeled = ",".join(corpus_lines[0].split(",")[:41]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(unlabeled))
        code, out, _ = run_cli(["classify", "--model", trained], capsys)
        assert code == 0
        assert out.startswith("verdict=")

    def test_malformed_line_reported_inline(self, trained, corpus_lines, capsys, monkeypatch):
        payload = corpus_lines[0] + "\n" + "garbage,line\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, err = run_cli(["classify", "--model", trained], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("verdict=")
        assert lines[1].startswith("error=")
        assert "errors=1" in err

    def test_error_message_escaped(self, trained, tmp_path, capsys):
        line = line_for(label="normal", p5='4\\"96')
        with pytest.raises(MalformedRow) as caught:
            parse_record(line, 1, allow_unlabeled=True)
        path = tmp_path / "quote.txt"
        path.write_text(line + "\n")
        code, out, _ = run_cli(["classify", "--model", trained, "--input", str(path)], capsys)
        assert code == 0
        text = out.splitlines()[0]
        match = re.fullmatch(r'error="((?:[^"\\]|\\.)*)" line=(\d+)', text)
        assert match, text
        assert re.sub(r"\\(.)", r"\1", match.group(1)) == str(caught.value)
        assert match.group(2) == "1"
        assert re.fullmatch(r'error="(.*)" line=(\d+)', text)

    def test_stdin_verdicts_flushed_while_input_stays_open(self, trained, corpus_lines):
        proc = subprocess.Popen(
            [sys.executable, "-m", "pca_ids.cli", "classify", "--model", trained],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=subprocess_env(),
        )
        fd = proc.stdout.fileno()

        def next_line(timeout: float) -> bytes:
            deadline = time.monotonic() + timeout
            received = b""
            while not received.endswith(b"\n"):
                ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
                assert ready, f"no output line within {timeout} s"
                chunk = os.read(fd, 1)
                assert chunk, "classify exited early"
                received += chunk
            return received

        try:
            for line in [*corpus_lines[:3], "garbage,line"]:
                proc.stdin.write(line.encode() + b"\n")
                proc.stdin.flush()
                assert next_line(30.0).startswith((b"verdict=", b"error="))
            proc.stdin.close()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    @pytest.fixture()
    def undecodable(self, corpus_lines):
        """Six lines, the fourth with a 0xFF byte inside its service token."""
        lines = [line.encode() for line in corpus_lines[:6]]
        fields = lines[3].split(b",")
        fields[2] = b"\xff" + fields[2]
        lines[3] = b",".join(fields)
        return b"\n".join(lines) + b"\n"

    def check_one_error(self, code, out, err):
        assert code == 0
        lines = out.splitlines()
        assert sum(line.startswith("verdict=") for line in lines) == 5
        assert lines[3].startswith('error="line 4: line is not valid UTF-8"')
        assert "errors=1" in err

    @pytest.mark.parametrize("huge", ["1e160", "1e308"])
    def test_overflowing_record_prints_no_warning(
        self, trained, corpus_lines, tmp_path, capsys, huge
    ):
        path = tmp_path / "huge.txt"
        normal = next(line for line in corpus_lines if line.split(",")[41] == "normal")
        path.write_text(with_src_bytes([normal], huge, 1)[0] + "\n")
        code, out, err = run_cli_without_warnings(
            ["classify", "--model", trained, "--input", str(path)], capsys
        )
        assert code == 0
        assert out.startswith("verdict=attack majc=inf "), out
        assert err == "processed=1 attacks=1 normals=0 errors=0\n"

    def test_undecodable_input_file_is_one_line_error(self, trained, undecodable, tmp_path, capsys):
        path = tmp_path / "bytes.txt"
        path.write_bytes(undecodable)
        self.check_one_error(*run_cli(["classify", "--model", trained, "--input", str(path)], capsys))

    def test_undecodable_stdin_is_one_line_error(self, trained, undecodable, capsys, monkeypatch):
        # a strict ASCII stdin stands in for an interpreter outside UTF-8 mode
        stdin = io.TextIOWrapper(io.BytesIO(undecodable), encoding="ascii", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        self.check_one_error(*run_cli(["classify", "--model", trained], capsys))

    @pytest.fixture()
    def awkward(self, corpus_lines, tmp_path):
        """A file of 17 lines: 7 records, 4 malformed lines and 6 blank ones.

        In blocks of 3 lines, blank lines end the first block and start the
        second, and fill the third. Two records carry an unseen service and
        one an overflowing src_bytes; the last line has no newline.
        """
        normals = [line for line in corpus_lines if line.split(",")[41] == "normal"]
        attack = next(line for line in corpus_lines if line.split(",")[41] != "normal")

        def edit(line, position, value):
            fields = line.split(",")
            fields[position - 1] = value
            return ",".join(fields)

        lines = [
            normals[0],
            edit(normals[1], 3, "zz_unseen"),
            "",
            "   ",
            ",".join(normals[2].split(",")[:30]),
            edit(normals[3], 5, "1.7976931348623157e308"),
            "",
            "",
            "",
            edit(normals[4], 8, "abc"),
            edit(normals[5], 9, "-1"),
            edit(normals[6], 3, "\udcff" + normals[6].split(",")[2]),
            normals[7],
            edit(attack, 3, "zz_unseen"),
            "",
            attack,
            normals[8],
        ]
        path = tmp_path / "awkward.txt"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
        return path

    @pytest.fixture(params=["step1", "step2"])
    def preset_model(self, request, corpus_file, tmp_path, capsys):
        path = tmp_path / f"{request.param}.json"
        argv = ["train", "--data", corpus_file, "--preset", request.param, "--out", str(path)]
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        return str(path)

    def test_file_blocks_match_stdin_byte_for_byte(
        self, preset_model, awkward, capsys, monkeypatch
    ):
        monkeypatch.setattr(kdd, "CHUNK_LINES", 3)
        from_file = run_cli_without_warnings(
            ["classify", "--model", preset_model, "--input", str(awkward)], capsys
        )
        stdin = io.TextIOWrapper(io.BytesIO(awkward.read_bytes()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        from_stdin = run_cli_without_warnings(["classify", "--model", preset_model], capsys)
        assert from_file == from_stdin
        code, out, err = from_file
        assert code == 0
        lines = out.splitlines()
        assert [line.split("=")[0] for line in lines] == (
            ["verdict"] * 2 + ["error", "verdict"] + ["error"] * 3 + ["verdict"] * 4
        )
        errors = [line.rsplit(" line=", 1)[1] for line in lines if line.startswith("error=")]
        assert errors == ["5", "10", "11", "12"]
        assert "line is not valid UTF-8" in lines[6]
        assert lines[3].startswith("verdict=attack majc=")
        assert out.count(" unknown_token=true") == 2
        assert re.fullmatch(r"processed=11 attacks=\d+ normals=\d+ errors=4\n", err), err

    @pytest.mark.parametrize("extra", [0, 1], ids=["one-block", "two-blocks"])
    def test_first_block_boundary_matches_stdin_byte_for_byte(
        self, extra, preset_model, corpus_lines, tmp_path, capsys, monkeypatch
    ):
        # An input that ends within its first block is classified one record
        # at a time, as stdin is; one line more and it is scored as matrices.
        n = kdd.CHUNK_LINES + extra
        lines = [corpus_lines[k % len(corpus_lines)].split(",") for k in range(n)]
        lines[1] = ["1", "2", "3"]
        lines[2][2] = "zz_unseen"
        lines[-1][4] = "1.7976931348623157e308"
        path = tmp_path / "boundary.txt"
        path.write_text("".join(",".join(fields) + "\n" for fields in lines))

        blocks = []
        score_records = detector.score_records

        def counted(model, records):
            blocks.append(len(records))
            return score_records(model, records)

        monkeypatch.setattr(detector, "score_records", counted)
        from_file = run_cli_without_warnings(
            ["classify", "--model", preset_model, "--input", str(path)], capsys
        )
        assert len(blocks) == 2 * extra
        stdin = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        from_stdin = run_cli_without_warnings(["classify", "--model", preset_model], capsys)
        assert from_file == from_stdin
        code, out, err = from_file
        assert code == 0
        out_lines = out.splitlines()
        assert len(out_lines) == n
        assert out_lines[1].startswith("error=")
        assert out_lines[2].endswith(" unknown_token=true")
        assert out_lines[-1].startswith("verdict=attack majc=inf ")
        attacks = out.count("verdict=attack")
        assert err == f"processed={n} attacks={attacks} normals={n - 1 - attacks} errors=1\n"

    def test_file_path_encodes_each_record_with_extract_features(
        self, trained, awkward, capsys, monkeypatch
    ):
        # perfbench's tracer counts unknown tokens by rebinding extract_features
        # in every pca_ids namespace that holds it, as done here; blocks of 3
        # lines put this file on the block path, as the tracer's file is.
        monkeypatch.setattr(kdd, "CHUNK_LINES", 3)
        original = kdd.extract_features
        results = []

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            results.append(result)
            return result

        for name, module in list(sys.modules.items()):
            if name == "pca_ids" or name.startswith("pca_ids."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        code, out, _ = run_cli(["classify", "--model", trained, "--input", str(awkward)], capsys)
        assert code == 0
        assert len(results) == 7
        assert sum(result.unknown_token for result in results) == 2
        assert out.count(" unknown_token=true") == 2

    def test_to_line_rebound_on_the_class_is_what_both_paths_print(
        self, trained, corpus_lines, tmp_path, capsys, monkeypatch
    ):
        # perfbench's tracer wraps Verdict.to_line on the class, as done here;
        # blocks of 2 lines put the 3-line file on the block path.
        monkeypatch.setattr(kdd, "CHUNK_LINES", 2)
        original = detector.Verdict.to_line
        monkeypatch.setattr(detector.Verdict, "to_line", lambda self: "seen " + original(self))
        path = tmp_path / "three.txt"
        path.write_text("\n".join(corpus_lines[:3]) + "\n")
        from_file = run_cli(["classify", "--model", trained, "--input", str(path)], capsys)
        stdin = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        from_stdin = run_cli(["classify", "--model", trained], capsys)
        assert from_file == from_stdin
        lines = from_file[1].splitlines()
        assert len(lines) == 3
        assert all(line.startswith("seen verdict=") for line in lines), lines

    @staticmethod
    def cr_input(kind, lines):
        if kind == "cr":
            return "\r".join(lines) + "\r"
        if kind == "crlf":
            return "\r\n".join(lines) + "\r\n"
        fields = lines[1].split(",")
        fields[5] = fields[5][:1] + "\r" + fields[5][1:]  # inside dst_bytes
        return "\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n"

    @pytest.mark.parametrize("kind, verdicts, errors", [("cr", 4, 0), ("crlf", 4, 0), ("mid", 3, 2)])
    def test_stdin_splits_lines_as_input_file_does(
        self, trained, corpus_lines, tmp_path, kind, verdicts, errors
    ):
        # A real stdin: an in-process TextIOWrapper already has universal newlines.
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(self.cr_input(kind, corpus_lines[:4]).encode())
        argv = [sys.executable, "-m", "pca_ids.cli", "classify", "--model", trained]

        def run(extra, stdin):
            proc = subprocess.run(
                argv + extra, input=stdin, capture_output=True, env=subprocess_env(), timeout=60
            )
            return proc.returncode, proc.stdout, proc.stderr

        from_file = run(["--input", str(path)], b"")
        from_stdin = run([], path.read_bytes())
        assert from_stdin == from_file
        code, out, err = from_file
        assert code == 0, err
        kinds = [line.split(b"=")[0] for line in out.splitlines()]
        assert (kinds.count(b"verdict"), kinds.count(b"error")) == (verdicts, errors)
        assert err.rstrip().endswith(b"errors=%d" % errors)


class TestSweep:
    def test_single_point_matches_evaluate(self, trained, corpus_file, capsys):
        model = load_model(trained)
        t = model.t_major
        code, out, _ = run_cli(
            ["sweep", "--model", trained, "--data", corpus_file,
             "--tm-grid", f"{t}:{t}:1"],
            capsys,
        )
        assert code == 0
        code, ev_out, _ = run_cli(
            ["evaluate", "--model", trained, "--data", corpus_file, "--format", "machine"],
            capsys,
        )
        doc = json.loads(ev_out)
        assert f"{doc['overall_success']:.4f}" in out

    def test_degenerate_grid_is_one_point(self, trained, corpus_file, capsys):
        code, out, _ = run_cli(
            ["sweep", "--model", trained, "--data", corpus_file, "--tm-grid", "5:5:7"],
            capsys,
        )
        assert code == 0
        # header + a single collapsed point + best line
        assert len(out.strip().splitlines()) == 3

    def test_no_attacks_in_data(self, trained, corpus_lines, tmp_path, capsys):
        normals = [line for line in corpus_lines if ",normal" in line][:200]
        path = tmp_path / "normal.txt"
        path.write_text("\n".join(normals) + "\n")
        code, out, err = run_cli(
            ["sweep", "--model", trained, "--data", str(path), "--tm-grid", "1:5:2"],
            capsys,
        )
        assert code == 0, err
        *rows, best = out.splitlines()[1:]
        assert rows and all(row.split()[2] == "nan" for row in rows)
        assert best.endswith(" recall=n/a")

    def test_only_attacks_in_data(self, trained, corpus_lines, tmp_path, capsys):
        attacks = [line for line in corpus_lines if ",normal" not in line][:200]
        path = tmp_path / "attack.txt"
        path.write_text("\n".join(attacks) + "\n")
        code, out, err = run_cli(
            ["sweep", "--model", trained, "--data", str(path), "--tm-grid", "0:1e9:3"],
            capsys,
        )
        assert code == 0, err
        _, *rows, best = out.splitlines()
        table = [row.split() for row in rows]
        # with no normals, FPR is undefined and success equals recall
        assert [(fpr, recall == success) for _, _, recall, fpr, success in table] == [
            ("nan", True)
        ] * 3
        recalls = [float(recall) for _, _, recall, _, _ in table]
        assert recalls[0] == 1.0 and recalls == sorted(recalls, reverse=True)
        assert best.startswith("best: t_major=0 ")
        assert best.endswith(" success=1.0000 recall=1.0000")

    def test_minor_grid_without_minor_components_is_usage_error(
        self, corpus_file, tmp_path, capsys
    ):
        path = tmp_path / "step1.json"
        code, _, err = run_cli(
            ["train", "--data", corpus_file, "--preset", "step1", "--out", str(path)],
            capsys,
        )
        assert code == 0, err
        code, out, err = run_cli(
            ["sweep", "--model", str(path), "--data", corpus_file,
             "--tm-grid", "1:5:2", "--tmm-grid", "1:3:3"],
            capsys,
        )
        assert code == 2
        assert "--tmm-grid" in err and "r=0" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--tm-grid", "--tmm-grid"])
    @pytest.mark.parametrize(
        "spec", ["1:inf:3", "nan:nan:1", "-inf:1:2", "1:nan:2", "-1e308:1e308:3"]
    )
    def test_non_finite_grid_is_usage_error(self, trained, corpus_file, capsys, flag, spec):
        argv = ["sweep", "--model", trained, "--data", corpus_file, "--tm-grid", "1:5:2"]
        code, out, err = run_cli([*argv, f"{flag}={spec}"], capsys)
        assert code == 2
        assert f"argument {flag}: grid bounds" in err and spec in err, err
        assert out == ""

    def test_malformed_grid_is_usage_error(self, trained, corpus_file, capsys):
        code, _, _ = run_cli(
            ["sweep", "--model", trained, "--data", corpus_file, "--tm-grid", "a:b:c"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "spec", ["5:5:7", "1:5:2", "1:3:3", "0:50:25", "1:60:60", "0.5:30:60", "2.75:2.75:1"]
    )
    def test_grid_is_the_distinct_linspace_values(self, spec):
        lo, hi, steps = spec.split(":")
        expected = np.unique(np.linspace(float(lo), float(hi), int(steps))).tolist()
        assert grid_spec(spec) == expected

    def test_sweep_never_imports_numpy_ma(self, trained, corpus_file):
        # numpy.ma costs 10-25 ms of start-up, and sweep has no use for it
        argv = ["sweep", "--model", trained, "--data", corpus_file, "--tm-grid", "1:60:60"]
        code = (
            "import sys; from pca_ids.cli import main; "
            f"assert main({argv!r}) == 0; sys.exit('numpy.ma' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr


class TestMalformedLinesNote:
    """train, evaluate and sweep name the lines their pass skipped, on stderr."""

    COMMANDS = ("train", "evaluate", "sweep")

    @staticmethod
    def argv(command, model, data, tmp_path):
        return {
            "train": ["train", "--data", data, "--profile", "basic6",
                      "--out", str(tmp_path / "new.json")],
            "evaluate": ["evaluate", "--model", model, "--data", data],
            "sweep": ["sweep", "--model", model, "--data", data, "--tm-grid", "1:5:3"],
        }[command]

    @pytest.mark.parametrize("n_bad", [1, 12])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_skipped_lines_are_counted_and_the_first_named(
        self, command, n_bad, trained, corpus_lines, tmp_path, capsys
    ):
        lines = list(corpus_lines)
        for k in range(n_bad):
            lines.insert(2 + k, "1,2,3")  # lines 3, 4, ...
        data = tmp_path / "damaged.txt"
        data.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(self.argv(command, trained, str(data), tmp_path), capsys)
        assert code == 0
        noun = "line" if n_bad == 1 else "lines"
        assert err == (
            f"skipped {n_bad} malformed {noun}; first: line 3: expected 42 or 43 fields, got 3\n"
        )
        assert "first: line" not in out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_clean_file_leaves_stderr_empty(self, command, trained, corpus_file, tmp_path, capsys):
        code, _, err = run_cli(self.argv(command, trained, corpus_file, tmp_path), capsys)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_valid_record_is_the_error_alone(self, command, trained, tmp_path, capsys):
        data = tmp_path / "damaged.txt"
        data.write_text("1,2,3\n\nx\n")
        code, out, err = run_cli(self.argv(command, trained, str(data), tmp_path), capsys)
        assert (code, out, err) == (1, "", f"error: no valid records in {data}\n")

    def test_no_normal_record_names_the_skipped_lines_first(
        self, trained, corpus_lines, tmp_path, capsys
    ):
        attacks = [line for line in corpus_lines if ",normal" not in line]
        data = tmp_path / "attacks.txt"
        data.write_text(attacks[0] + "\n1,2,3\n" + "\n".join(attacks[1:]) + "\n")
        code, out, err = run_cli(self.argv("train", trained, str(data), tmp_path), capsys)
        assert (code, out) == (1, "")
        assert err == (
            "skipped 1 malformed line; first: line 2: expected 42 or 43 fields, got 3\n"
            f"error: no normal records in {data}\n"
        )


class TestBlocks:
    """Every file command reads its file kdd.CHUNK_LINES lines at a time;
    the block size changes no byte of any output."""

    @pytest.fixture()
    def files(self, corpus_lines, tmp_path):
        # Tokens first appear out of sorted order; a normal row in the last
        # block brings a service that sorts first, so every code of that
        # field is renumbered; lines 14 and 15 are malformed, the last and
        # the first line of a block of 1, 2 and 7 lines.
        late = corpus_lines[0].split(",")
        late[2], late[41:] = "aaa_late", ["normal"]
        train = [*corpus_lines[:300], ",".join(late)]
        test = list(corpus_lines[300:])
        for lines in (train, test):
            lines[13:13] = ["1,2,3", "x"]
        paths = []
        for name, lines in (("train", train), ("test", test)):
            path = tmp_path / f"{name}.txt"
            path.write_text("\n".join(lines) + "\n")
            paths.append(str(path))
        return paths

    def outputs(self, files, tmp_path, capsys) -> list:
        train, test = files
        model = str(tmp_path / "model.json")
        sweep = ["sweep", "--model", model, "--data", test, "--tm-grid", "1:40:9"]
        train_argv = ["train", "--data", train, "--preset", "step2", "--out", model]
        results = [run_cli(train_argv, capsys)]
        results.append(Path(model).read_bytes())
        for argv in (
            ["evaluate", "--model", model, "--data", test],
            ["evaluate", "--model", model, "--data", test, "--format", "machine"],
            sweep,
            [*sweep, "--tmm-grid", "0.5:20:5"],
            ["classify", "--model", model, "--input", test],
        ):
            results.append(run_cli(argv, capsys))
        return results

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_block_size_changes_no_output(self, block, files, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        expected = self.outputs(files, tmp_path, capsys)
        train, model_bytes, evaluate = expected[:3]
        assert train[0] == 0
        assert train[2].startswith("skipped 2 malformed lines; first: line 14: ")
        assert evaluate[2].startswith("skipped 2 malformed lines; first: line 14: ")
        assert json.loads(model_bytes)["encoder"]["3"]["aaa_late"] == 0

        monkeypatch.setattr(kdd, "CHUNK_LINES", block)
        assert self.outputs(files, tmp_path, capsys) == expected


def test_load_and_classify_name_the_same_malformed_lines(
    trained, corpus_lines, tmp_path, capsys
):
    """A Dataset and classify --input read lines through one block loop, so
    they skip the same blank lines and number the same damaged ones."""
    lines = [line.split(",") for line in corpus_lines[:20]]
    lines[2] = [""]
    lines[4] = ["1", "2", "3"]
    lines[7] = ["   "]
    lines[9][1] = ""  # an empty token
    lines[12][4] = "abc"
    lines[15][5] = "-1"
    data = tmp_path / "damaged.txt"
    data.write_text("".join(",".join(fields) + "\n" for fields in lines))

    skipped = [line_no for line_no, _ in read_through(kdd.Dataset(str(data))).malformed_lines]
    code, out, _ = run_cli(["classify", "--model", trained, "--input", str(data)], capsys)
    assert code == 0
    reported = [
        int(line.split(" line=")[1]) for line in out.splitlines() if line.startswith("error=")
    ]
    assert skipped == reported == [5, 10, 13, 16]


class TestInspect:
    def test_healthy_model_passes(self, trained, capsys):
        code, out, _ = run_cli(["inspect", "--model", trained], capsys)
        assert code == 0
        assert "integrity: PASS" in out
        assert out.count("\n") > 8  # spectrum rows listed
        assert "eigenvalue-sum residual" in out

    def test_tampered_model_fails(self, trained, tmp_path, capsys):
        doc = json.loads(Path(trained).read_text())
        doc["eigen"]["vectors"][0] = [v * 2.0 for v in doc["eigen"]["vectors"][0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(["inspect", "--model", str(bad)], capsys)
        assert code == 1
        assert "FAIL" in out + err

    def test_misshaped_eigenvectors_name_the_finding(self, trained, corpus_file, tmp_path, capsys):
        doc = json.loads(Path(trained).read_text())
        del doc["eigen"]["vectors"][-1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        finding = "eigen dimensions do not match the profile"
        code, _, err = run_cli(["inspect", "--model", str(bad)], capsys)
        assert code == 1
        assert err == f"integrity: FAIL {finding}\n"
        code, _, err = run_cli(["classify", "--model", str(bad), "--input", corpus_file], capsys)
        assert code == 1
        assert finding in err

    @pytest.mark.parametrize(
        "misshape",
        [
            pytest.param(lambda values: 1.23, id="number"),
            pytest.param(lambda values: [values], id="nested"),
        ],
    )
    def test_misshaped_eigenvalues_name_the_finding(
        self, trained, corpus_file, tmp_path, capsys, misshape
    ):
        doc = json.loads(Path(trained).read_text())
        doc["eigen"]["values"] = misshape(doc["eigen"]["values"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        finding = "eigen dimensions do not match the profile"
        code, out, err = run_cli(["inspect", "--model", str(bad)], capsys)
        assert code == 1
        assert err == f"integrity: FAIL {finding}\n"
        assert "eigenvalue" not in out
        code, _, err = run_cli(["classify", "--model", str(bad), "--input", corpus_file], capsys)
        assert code == 1
        assert finding in err

    @pytest.mark.parametrize(
        "edit, finding",
        [
            pytest.param(
                lambda doc: doc["standardizer"].update(degenerate=["no"] * 6),
                'standardizer.degenerate: "no" is not a JSON boolean',
                id="mask-strings",
            ),
            pytest.param(
                lambda doc: doc["standardizer"]["degenerate"].__setitem__(5, 7),
                "standardizer.degenerate: 7 is not a JSON boolean",
                id="mask-integer",
            ),
            pytest.param(
                lambda doc: doc["selection"].update(q=2.9),
                "selection.q: 2.9 is not a JSON integer",
                id="q-float",
            ),
            pytest.param(
                lambda doc: doc["thresholds"].update(t_major=True),
                "thresholds.t_major: true is not a JSON number",
                id="t_major-bool",
            ),
            pytest.param(
                lambda doc: doc["standardizer"]["mean"].__setitem__(0, "1.5"),
                'standardizer.mean: "1.5" is not a JSON number',
                id="mean-string",
            ),
            pytest.param(
                lambda doc: (
                    doc["profile"].update(categorical_indices=[2, 3]),
                    doc["encoder"].pop("4"),
                ),
                "categorical indices (2, 3) must be the indices at token fields, (2, 3, 4)",
                id="token-field-numeric",
            ),
            pytest.param(
                lambda doc: doc["encoder"].update({"2": {"icmp": False, "tcp": True, "udp": 2}}),
                "encoder.2: false is not a JSON integer",
                id="codes-bool",
            ),
            pytest.param(
                lambda doc: doc["encoder"].update({"2": [["icmp", 0], ["tcp", 1], ["udp", 2]]}),
                'encoder.2: [["icmp", 0], ["tcp", 1], ["udp", 2]] is not a JSON object',
                id="table-pairs",
            ),
            pytest.param(
                lambda doc: doc.update(encoder=[]),
                "encoder: [] is not a JSON object",
                id="encoder-list",
            ),
            pytest.param(
                lambda doc: doc["thresholds"].update(t_major=10**400),
                "thresholds.t_major: a number too large for a float",
                id="t_major-huge",
            ),
            pytest.param(
                lambda doc: doc["standardizer"]["mean"].__setitem__(0, -(10**400)),
                "standardizer.mean: a number too large for a float",
                id="mean-huge",
            ),
            pytest.param(
                lambda doc: doc.update(provenance=[["n_records", 1]]),
                'provenance: [["n_records", 1]] is not a JSON object',
                id="provenance-list",
            ),
        ],
    )
    def test_wrongly_typed_model_is_one_error_line(
        self, trained, corpus_file, tmp_path, capsys, edit, finding
    ):
        doc = json.loads(Path(trained).read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        expected = f"error: malformed model document: {finding}\n"
        for argv in (["inspect"], ["classify", "--input", corpus_file]):
            code, out, err = run_cli([*argv, "--model", str(bad)], capsys)
            assert (code, out, err) == (1, "", expected)

    @pytest.mark.parametrize(
        "preset, t_minor, finding",
        [
            pytest.param("step1", 5.0, "t_minor set while r = 0", id="step1-positive"),
            pytest.param("step1", -1.0, "t_minor set while r = 0", id="step1-negative"),
            pytest.param(
                "step2", None, "t_minor missing or negative while r > 0", id="step2-null"
            ),
        ],
    )
    def test_t_minor_is_set_exactly_when_r_is_positive(
        self, corpus_file, tmp_path, capsys, preset, t_minor, finding
    ):
        # a t_minor on an r = 0 model would be printed by inspect but never applied
        path = tmp_path / f"{preset}.json"
        code, _, err = run_cli(
            ["train", "--data", corpus_file, "--preset", preset, "--out", str(path)], capsys
        )
        assert code == 0, err
        doc = json.loads(path.read_text())
        doc["thresholds"]["t_minor"] = t_minor
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["inspect", "--model", str(path)], capsys)
        assert (code, err) == (1, f"integrity: FAIL {finding}\n")
        code, out, err = run_cli(["classify", "--model", str(path), "--input", corpus_file], capsys)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and finding in err

    @pytest.mark.parametrize(
        "edit, finding",
        [
            pytest.param(
                lambda doc, key=key: doc["encoder"].update({key: {"zzz": 0}}),
                f"encoder.{key}: key is not a position",
                id=f"encoder-key-{kind}",
            )
            for kind, key in [
                ("zero", "02"), ("plus", "+2"), ("space", " 2"), ("fraction", "2.0"),
                ("arabic-indic", "\u0662"),
            ]
        ]
        + [
            pytest.param(
                lambda doc: doc["profile"].update(name=5),
                "profile.name: 5 is not a JSON string",
                id="name-integer",
            )
        ],
    )
    def test_edited_step1_model_fails_not_passes(
        self, corpus_file, tmp_path, capsys, edit, finding
    ):
        # an alias of position 2 would replace its table, and every protocol
        # token would then encode as unseen
        path = tmp_path / "step1.json"
        code, _, err = run_cli(
            ["train", "--data", corpus_file, "--preset", "step1", "--out", str(path)], capsys
        )
        assert code == 0, err
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        expected = f"error: malformed model document: {finding}\n"
        for argv in (["inspect"], ["classify", "--input", corpus_file]):
            code, out, err = run_cli([*argv, "--model", str(path)], capsys)
            assert (code, out, err) == (1, "", expected)

    def test_missing_model_is_runtime_error(self, tmp_path, capsys):
        code, _, _ = run_cli(["inspect", "--model", str(tmp_path / "x.json")], capsys)
        assert code == 1


class TestDeterminism:
    def test_two_runs_byte_identical(self, corpus_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        outputs = []
        blobs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{tag}.json"
            code, _, _ = run_cli(
                ["train", "--data", corpus_file, "--preset", "step1", "--out", str(path)],
                capsys,
            )
            assert code == 0
            code, out, _ = run_cli(
                ["evaluate", "--model", str(path), "--data", corpus_file], capsys
            )
            assert code == 0
            outputs.append(out)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("epoch", ["", "abc", "1.5e9", "99999999999999999"])
    def test_malformed_source_date_epoch_is_named(
        self, corpus_file, tmp_path, capsys, monkeypatch, epoch
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        path = tmp_path / "m.json"
        code, out, err = run_cli(
            ["train", "--data", corpus_file, "--preset", "step1", "--out", str(path)], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: SOURCE_DATE_EPOCH ") and err.count("\n") == 1
        assert repr(epoch) in err
        assert not path.exists()
