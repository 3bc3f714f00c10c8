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
from pca_ids.cli import grid_spec, main
from pca_ids.kdd import MalformedRow, parse_record
from pca_ids.modelio import load_model

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
        assert out.splitlines()[-1].endswith(" recall=n/a")

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
