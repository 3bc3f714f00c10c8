"""pca-ids benchmark: end-to-end metrics, output checks and per-layer spans.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Inputs come from ``gen.py`` in their own process. Every command runs as
the real CLI in a fresh process with a pinned environment, and every
output is checked against ``reference.py``.

``--trace 0`` repeats rounds of the workload (train, a set-up probe,
evaluate, classify, sweep, one open-loop stream pass) while the next
round is expected to end within ``--seconds``. Each rate is the work of
all rounds over their summed wall time; ``setup_s`` is the median probe.
``--trace 1`` runs the same commands in one process, untraced and then
traced, and reports per-layer self times and counts.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A readable table of the same numbers, with the provenance of
the run, goes to stderr. Each run's record, with the sha256 of its
inputs, is kept under ``.perfbench_runs/``, named by workload, seed,
trace mode and the first characters of the program's sha256;
``compare.py`` compares two.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import tracing
import worker

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "batch": {
        "preset": "step2",
        "units": 16,
        "stream_lines": 6400,
        "tm_grid": "1:60:60",
        "tmm_grid": "0.5:30:60",
    },
    "stream": {
        "preset": "step1",
        "units": 12,
        "stream_lines": 8000,
        "tm_grid": "1:60:50",
        "tmm_grid": None,
    },
}

# Stream items left out of latency statistics: the first burst, while
# the process is still warming up. Stream line counts are whole bursts.
WARMUP_ITEMS = worker.PER_BURST
# stream_latency_p50_us is the per-burst p50 that this share of the
# run's bursts meet. Per-record speed on a shared host flips between a
# fast and a slow state lasting about a second; the median of all
# latencies jumps between the two, while this quantile stays in the
# slow state. The p90 lies in the slow state already and is taken over
# all latencies of the run.
BURST_QUANTILE = 90

PROBES_PER_ROUND = 1
IMPORT_PROBES = 5
HELD_LINES = 50
HELD_WAIT_S = 1.0
RUN_DEADLINE_S = 170.0
CHILD_TIMEOUT_S = 90.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (as opposed to a wrong output)."""


def pinned_env() -> dict[str, str]:
    """The children's whole environment, built rather than inherited.

    PYTHONUNBUFFERED and PCA_IDS_THREADS are absent on purpose: the first
    would hide how ``classify`` buffers its output, the second changes
    the scoring path.
    """
    env = {
        "PATH": os.environ.get("PATH", os.defpath),
        "HOME": str(ROOT),
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "SOURCE_DATE_EPOCH": "1700000000",
    }
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    return env


class Runner:
    """Runs children one at a time through ``spawn.py``, with a deadline for the whole run."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = pinned_env()
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawn.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=self.env,
            cwd=ROOT,
            text=True,
        )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()

    def timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline passed")
        return min(CHILD_TIMEOUT_S, left)

    def run(self, argv: list[str], stdout: Path) -> tuple[float, int, float]:
        """Run to completion; returns (wall s, exit code, peak RSS MB)."""
        request = {"argv": argv, "stdout": str(stdout), "timeout": self.timeout()}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise BenchError("the spawn helper exited")
        reply = json.loads(reply)
        return reply["wall"], reply["code"], reply["maxrss_kb"] / 1024.0

    def cli(self, args: list[str], stdout: Path) -> tuple[float, int, float]:
        return self.run([sys.executable, "-m", "pca_ids.cli", *args], stdout)

    def held_at_idle(self, model: Path, lines: list[str]) -> int:
        """Verdict lines not readable within HELD_WAIT_S of input going idle.

        Starts the real ``classify`` over pipes, writes the lines, keeps
        stdin open and counts what arrives. Then closes stdin, drains the
        rest, and requires one output line per input line.
        """
        proc = subprocess.Popen(
            [sys.executable, "-m", "pca_ids.cli", "classify", "--model", str(model)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self.env,
            cwd=ROOT,
        )
        try:
            proc.stdin.write(("\n".join(lines) + "\n").encode())
            proc.stdin.flush()
            idle_until = time.monotonic() + HELD_WAIT_S
            fd = proc.stdout.fileno()
            received = b""
            while (left := idle_until - time.monotonic()) > 0:
                ready, _, _ = select.select([fd], [], [], left)
                if not ready:
                    break
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                received += chunk
            seen = received.count(b"\n")
            rest, _ = proc.communicate(timeout=self.timeout())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or seen + rest.count(b"\n") != len(lines):
            raise BenchError("classify over pipes did not answer every line")
        return len(lines) - seen


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def program_digest() -> str:
    """sha256 over the program's source files, in path order."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "pca_ids").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Inputs:
    """Generated files, the model path, and the reference's parse of each."""

    def __init__(self, run_dir: Path, manifest: dict):
        self.dir = run_dir
        self.manifest = manifest
        self.train = run_dir / "train.txt"
        self.test = run_dir / "test.txt"
        self.stream = run_dir / "stream.txt"
        self.one = run_dir / "one.txt"
        self.train_rows = reference.parse(str(self.train), labeled=True)
        self.test_rows = reference.parse(str(self.test), labeled=True)
        self.test_lines = reference.parse(str(self.test), labeled=False)
        self.stream_lines = reference.parse(str(self.stream), labeled=False)
        for name, parsed in (("test", self.test_lines), ("stream", self.stream_lines)):
            injected = sorted(int(k) for k in manifest["damage"][name]["malformed_lines"])
            if parsed.malformed != injected:
                raise BenchError(f"reference parse of {name}.txt disagrees with the generator")

    def stream_head(self) -> list[str]:
        """The lines written to ``classify`` over pipes before input goes idle."""
        return read_lines(self.stream)[:HELD_LINES]

    def lines(self, name: str) -> int:
        return self.manifest["files"][name]["lines"]

    def injected(self, name: str, kind: str) -> int:
        return len(self.manifest["damage"][name][kind])


def generate(runner: Runner, spec: dict, seed: int) -> Inputs:
    argv = [
        sys.executable, str(BENCH_DIR / "gen.py"),
        "--seed", str(seed),
        "--units", str(spec["units"]),
        "--stream-lines", str(spec["stream_lines"]),
        "--out", str(runner.run_dir),
    ]
    _, code, _ = runner.run(argv, runner.run_dir / "gen.out")
    if code != 0:
        raise BenchError("input generation failed")
    manifest = json.loads((runner.run_dir / "manifest.json").read_text())
    for name, entry in manifest["files"].items():
        if sha256_file(runner.run_dir / f"{name}.txt") != entry["sha256"]:
            raise BenchError(f"{name}.txt does not match its manifest digest")
    return Inputs(runner.run_dir, manifest)


def command_args(spec: dict, inputs: Inputs, model: Path) -> dict[str, list[str]]:
    sweep = ["sweep", "--model", str(model), "--data", str(inputs.test), "--tm-grid", spec["tm_grid"]]
    if spec["tmm_grid"]:
        sweep += ["--tmm-grid", spec["tmm_grid"]]
    return {
        "train": ["train", "--data", str(inputs.train), "--preset", spec["preset"], "--out", str(model)],
        "evaluate": ["evaluate", "--model", str(model), "--data", str(inputs.test), "--format", "machine"],
        "classify": ["classify", "--model", str(model), "--input", str(inputs.test)],
        "sweep": sweep,
        "setup": ["classify", "--model", str(model), "--input", str(inputs.one)],
    }


def grid_points(spec: dict) -> int:
    points = len(reference.grid(spec["tm_grid"]))
    return points * (len(reference.grid(spec["tmm_grid"])) if spec["tmm_grid"] else 1)


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


OUTPUTS = ("train", "evaluate", "classify", "sweep", "stream")


def check_outputs(
    spec: dict, inputs: Inputs, model_path: Path, outputs: dict[str, Path], codes: dict[str, int]
) -> reference.Check:
    """Every output of one round against the reference; a failed command fails all its items."""
    total = reference.Check()
    model = reference.Model.load(str(model_path)) if codes["train"] == 0 else None
    checks = {
        "train": lambda: reference.check_model(model, inputs.train_rows),
        "evaluate": lambda: reference.check_evaluate(
            model, inputs.test_rows, json.loads(outputs["evaluate"].read_text())
        ),
        "classify": lambda: reference.check_verdicts(
            model, inputs.test_lines, read_lines(outputs["classify"])
        ),
        "sweep": lambda: reference.check_sweep(
            model, inputs.test_rows, spec["tm_grid"], spec["tmm_grid"], read_lines(outputs["sweep"])
        ),
        "stream": lambda: reference.check_verdicts(
            model, inputs.stream_lines, read_lines(outputs["stream"])
        ),
    }
    sizes = {
        "train": 1,
        "evaluate": 1,
        "classify": inputs.lines("test"),
        "sweep": grid_points(spec),
        "stream": inputs.lines("stream"),
    }
    for name in OUTPUTS:
        if codes[name] != 0 or model is None:
            total.add(reference.Check(attempted=sizes[name], failed=sizes[name]))
        else:
            total.add(checks[name]())
    return total


def percentile_us(values_ns: np.ndarray, q: float) -> float:
    return float(np.percentile(values_ns, q)) / 1000.0


class Round:
    """One round of every command: wall times, exit codes and output files."""

    def __init__(self, inputs: Inputs, k: int):
        self.model = inputs.dir / f"model.{k}.json"
        self.outputs = {name: inputs.dir / f"{name}.{k}.out" for name in OUTPUTS}
        self.walls: dict[str, float] = {}
        self.codes: dict[str, int] = {}
        self.peak_rss_mb = 0.0
        self.probes: list[float] = []
        self.latency = np.zeros(0)  # ns from due time, warm-up left out

    def fingerprint(self) -> list:
        """Exit codes and the digest of every checked file (train's is the model)."""
        files = [self.model] + [self.outputs[name] for name in OUTPUTS if name != "train"]
        return [self.codes] + [sha256_file(p) if p.exists() else None for p in files]


def timed_round(runner: Runner, spec: dict, inputs: Inputs, k: int) -> Round:
    result = Round(inputs, k)
    args = command_args(spec, inputs, result.model)
    out, codes, walls = result.outputs, result.codes, result.walls
    rss = []
    walls["train"], codes["train"], peak = runner.cli(args["train"], out["train"])
    rss.append(peak)
    for j in range(PROBES_PER_ROUND):
        wall, code, peak = runner.cli(args["setup"], inputs.dir / f"setup.{k}.{j}.out")
        if code != 0:
            raise BenchError("set-up probe failed")
        result.probes.append(wall)
        rss.append(peak)
    for name in ("evaluate", "classify", "sweep"):
        walls[name], codes[name], peak = runner.cli(args[name], out[name])
        rss.append(peak)
    timings = inputs.dir / f"stream.{k}.npz"
    argv = [
        sys.executable, str(BENCH_DIR / "worker.py"), "stream",
        "--model", str(result.model), "--input", str(inputs.stream),
        "--out", str(out["stream"]), "--timings", str(timings),
    ]
    _, codes["stream"], peak = runner.run(argv, inputs.dir / f"stream.{k}.log")
    rss.append(peak)
    result.peak_rss_mb = max(rss)
    if codes["stream"] == 0:
        with np.load(timings) as data:
            result.latency = data["latency"][WARMUP_ITEMS:]
    return result


def rate_work(spec: dict, inputs: Inputs) -> dict[str, tuple[str, int]]:
    """Each rate metric: the command it times and the work one run of it does."""
    return {
        "train_rec_per_s": ("train", inputs.lines("train")),
        "evaluate_rec_per_s": ("evaluate", inputs.lines("test")),
        "classify_rec_per_s": ("classify", inputs.lines("test")),
        "sweep_points_per_s": ("sweep", grid_points(spec)),
    }


def measure(runner: Runner, spec: dict, inputs: Inputs, seconds: float) -> tuple[dict, reference.Check, dict]:
    """Rounds while the next one is expected to end within ``seconds``.

    Outputs are checked after the clock stops. The program is
    deterministic, so a later round whose exit codes and files (model
    included) match the first round's has the first round's check.
    """
    rounds: list[Round] = []
    start = time.monotonic()
    while not rounds or (time.monotonic() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        rounds.append(timed_round(runner, spec, inputs, len(rounds)))
    first = rounds[0]
    first_check = check_outputs(spec, inputs, first.model, first.outputs, first.codes)
    first_fingerprint = first.fingerprint()
    check = reference.Check()
    for r in rounds:
        if r is first or r.fingerprint() == first_fingerprint:
            check.add(first_check)
        else:
            check.add(check_outputs(spec, inputs, r.model, r.outputs, r.codes))
    probes = [p for r in rounds for p in r.probes]
    streams = [r.latency for r in rounds if len(r.latency)]
    if not streams:
        raise BenchError("no stream pass completed")
    burst_p50s = [percentile_us(b, 50) for a in streams for b in np.split(a, len(a) // worker.PER_BURST)]
    metrics = {
        "setup_s": statistics.median(probes),
        "stream_latency_p50_us": float(np.percentile(burst_p50s, BURST_QUANTILE)),
        "stream_latency_p90_us": percentile_us(np.concatenate(streams), 90),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
    }
    # Work over summed wall time: speed on a shared host swings by up to
    # a factor of two between rounds, and the sum keeps every round.
    for name, (command, size) in rate_work(spec, inputs).items():
        metrics[name] = size * len(rounds) / sum(r.walls[command] for r in rounds)
    info = {
        "rounds": [{"walls": r.walls, "peak_rss_mb": r.peak_rss_mb} for r in rounds],
        "setup_probes": probes,
        "stream_burst_p50_us": burst_p50s,
        "cli.verdicts_held_at_idle": runner.held_at_idle(first.model, inputs.stream_head()),
    }
    return metrics, check, info


def traced_pass(runner: Runner, spec: dict, inputs: Inputs) -> tuple[dict, reference.Check, dict]:
    """Per-layer metrics from one in-process pass, untraced then traced."""
    model = inputs.dir / "model.json"
    args = command_args(spec, inputs, model)
    order = ("train", "evaluate", "classify", "sweep")
    out = {name: inputs.dir / f"{name}.traced.out" for name in OUTPUTS}
    plan = {
        "commands": [{"argv": args[name], "stdout": str(out[name])} for name in order],
        "stream": {"model": str(model), "input": str(inputs.stream), "stdout": str(out["stream"])},
    }
    plan_path = inputs.dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    spans_path = inputs.dir / "spans.npz"
    summary_path = inputs.dir / "trace.json"
    argv = [
        sys.executable, str(BENCH_DIR / "worker.py"), "trace",
        "--plan", str(plan_path), "--spans", str(spans_path), "--summary", str(summary_path),
    ]
    _, code, _ = runner.run(argv, inputs.dir / "trace.log")
    if code != 0:
        raise BenchError("traced pass failed; see trace.log.err")
    summary = json.loads(summary_path.read_text())
    untraced_codes, traced_codes = summary["exit_codes"][: len(order)], summary["exit_codes"][len(order) :]
    codes = {name: a or b for name, a, b in zip(order, untraced_codes, traced_codes)}
    codes["stream"] = 0  # a failing stream pass fails the worker
    check = check_outputs(spec, inputs, model, out, codes)
    with np.load(spans_path) as data:
        spans = {key: data[key] for key in data.files}

    run_of = {name: k for k, name in enumerate(order)}
    run_of["stream"] = len(order)
    records = {
        "train": inputs.lines("train"),
        "evaluate": inputs.lines("test"),
        "classify": inputs.lines("test"),
        "sweep": inputs.lines("test"),
        "stream": inputs.lines("stream"),
    }
    counts = {(run, key): n for run, key, n in summary["counts"]}
    valid_test = inputs.lines("test") - inputs.injected("test", "malformed_lines")
    layer_metrics = layer_table(
        tracing.totals(spans, summary["names"]), counts, run_of, records, grid_points(spec), valid_test
    )
    # The four commands only: the stream pass keeps to its due times, so
    # its wall time would hide most of what tracing costs.
    untraced, traced = sum(summary["untraced_walls"]), sum(summary["traced_walls"])
    layer_metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    layer_metrics["stream.latency_p99_us"] = percentile_us(spans["latency"][WARMUP_ITEMS:], 99)
    layer_metrics["stream.generator_late_p99_us"] = percentile_us(spans["late"][WARMUP_ITEMS:], 99)
    expected = {
        "kdd.malformed_lines": inputs.injected("test", "malformed_lines"),
        "kdd.unknown_tokens": inputs.injected("test", "unknown_lines"),
    }
    for key, value in expected.items():
        check.attempted += 1
        check.failed += int(layer_metrics[key] != value)
    layer_metrics["cli.verdicts_held_at_idle"] = runner.held_at_idle(model, inputs.stream_head())
    info = {
        "expected_counts": expected,
        "records_scored_base": 2 * valid_test,
        "spans": int(len(spans["start"])),
    }
    return layer_metrics, check, info


# Span groups behind each per-layer time. A layer's ``self_us_per_rec``
# takes every span of the layer, so no traced time goes unattributed.
PER_RECORD_SPANS = {
    "kdd.parse_us_per_rec": ("kdd.parse_record", "kdd.normalize_label"),
    "kdd.encode_us_per_rec": ("kdd.extract_features", "kdd.encode_matrix", "kdd.build_encoder"),
    "kdd.load_dataset_us_per_rec": ("kdd.load_dataset", "kdd.categorize_attack"),
    "mvstats.standardize_us_per_rec": ("mvstats.standardize",),
    "mvstats.project_us_per_rec": ("mvstats.project",),
    "detector.score_us_per_rec": ("detector.major_score", "detector.minor_score", "detector.score_records"),
    "detector.threshold_us_per_rec": ("detector.classify",),
    "detector.format_us_per_rec": ("detector.Verdict.to_line",),
}
PER_FIT_SPANS = {
    "mvstats.fit_ms": ("mvstats.fit_standardizer", "mvstats.correlation_matrix"),
    "mvstats.eigen_sym_ms": ("mvstats.eigen_sym",),
    "trainer.fit_self_ms": ("trainer.fit",),
    "trainer.calibrate_ms": ("trainer.calibrate_thresholds", "trainer.select_major", "trainer.select_minor"),
}
PER_CALL_SPANS = {
    "modelio.load_ms": (("modelio.load_model", "modelio.model_from_document"), "modelio.load_model"),
    "modelio.verify_ms": (("modelio.verify_model",), "modelio.verify_model"),
    "modelio.save_ms": (("modelio.save_model", "modelio.model_to_document"), "modelio.save_model"),
}


def layer_table(
    totals: dict, counts: dict, run_of: dict, records: dict, points: int, valid_test: int
) -> dict:
    """Per-layer metrics from (run, span) -> (self ns, calls) totals."""

    def self_ns(names, runs=None) -> float:
        return sum(
            ns for (run, name), (ns, _) in totals.items()
            if name in names and (runs is None or run in runs)
        )

    def calls(name: str) -> int:
        return sum(n for (_, span), (_, n) in totals.items() if span == name)

    def layer(prefix: str) -> set[str]:
        return {name for _, name in totals if name.startswith(prefix)}

    all_records = sum(records.values())
    fits = max(1, calls("trainer.fit"))
    metrics = {}
    for key, names in PER_RECORD_SPANS.items():
        metrics[key] = self_ns(names) / all_records / 1e3
    for name in tracing.LAYERS:
        metrics[f"{name}.self_us_per_rec"] = self_ns(layer(f"{name}.")) / all_records / 1e3
    for key, names in PER_FIT_SPANS.items():
        metrics[key] = self_ns(names) / fits / 1e6
    for key, (names, base) in PER_CALL_SPANS.items():
        metrics[key] = self_ns(names) / max(1, calls(base)) / 1e6
    evaluation = layer("evaluation.")
    metrics["evaluation.tally_us_per_point"] = self_ns(evaluation, {run_of["sweep"]}) / points / 1e3
    metrics["evaluation.confusion_us_per_rec"] = (
        self_ns(evaluation, {run_of["evaluate"]}) / records["evaluate"] / 1e3
    )
    for key in ("kdd.malformed_lines", "kdd.unknown_tokens"):
        metrics[key] = counts.get((run_of["classify"], key), 0)
    scored = sum(counts.get((run_of[name], "detector.records_scored"), 0) for name in ("evaluate", "sweep"))
    metrics["detector.records_scored_per_input"] = scored / (2 * valid_test)
    return metrics


def import_probe(runner: Runner, k: int) -> float:
    wall, code, _ = runner.run([sys.executable, "-c", "import pca_ids.cli"], runner.run_dir / f"import.{k}.out")
    if code != 0:
        raise BenchError("import pca_ids.cli failed")
    return wall


def provenance(args, inputs: Inputs, info: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "program_sha256": program_digest(),
        "inputs_sha256": {name: entry["sha256"] for name, entry in inputs.manifest["files"].items()},
        "input_lines": {name: entry["lines"] for name, entry in inputs.manifest["files"].items()},
        "env": pinned_env(),
        **info,
    }


def report(record: dict) -> None:
    """The readable form of a run, on stderr."""
    lines = [f"pca-ids benchmark: workload={record['provenance']['workload']} seed={record['provenance']['seed']}"]
    for name, entry in record["result"]["metrics"].items():
        lines.append(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    result = record["result"]
    frac = result["failed"] / result["attempted"]
    lines.append(f"  {'failed_frac':<36} {frac:>14.6g} ({result['failed']} of {result['attempted']})")
    lines.append(f"  {'threshold ties':<36} {record['ties']:>14d}")
    for key, value in record["provenance"].items():
        if key not in ("env", "inputs_sha256", "rounds", "setup_probes", "stream_burst_p50_us"):
            lines.append(f"  {key}: {value}")
    print("\n".join(lines), file=sys.stderr)


def bench(args, declared: dict, run_dir: Path) -> dict:
    """One run; returns the record kept under .perfbench_runs/."""
    spec = WORKLOADS[args.workload]
    with Runner(run_dir, time.monotonic() + RUN_DEADLINE_S) as runner:
        inputs = generate(runner, spec, args.seed)
        import_probe(runner, 0)  # compiles the program's bytecode once
        if args.trace:
            metrics, check, info = traced_pass(runner, spec, inputs)
            metrics["cli.import_s"] = statistics.median(
                import_probe(runner, k) for k in range(1, IMPORT_PROBES + 1)
            )
            wanted = {m["name"]: m["unit"] for m in declared["per_layer"]}
        else:
            metrics, check, info = measure(runner, spec, inputs, args.seconds)
            wanted = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in wanted.items()},
    }
    return {
        "result": result,
        "ties": check.ties,
        "provenance": provenance(args, inputs, info),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="pca-ids benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pca_ids" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        record = bench(args, declared, run_dir)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{record['provenance']['program_sha256'][:12]}"
    (RUNS / f"{name}.json").write_text(json.dumps(record, indent=1))
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
