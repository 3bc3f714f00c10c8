"""Command-line surface: train, evaluate, classify, sweep, inspect.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from contextlib import contextmanager
from typing import Iterator

from .detector import classify_stream
from .evaluation import (
    evaluate,
    format_text_report,
    machine_report,
    sweep,
)
from .kdd import DECODE_ERRORS, PROFILES, Dataset, open_text
from .modelio import eigen_residuals, load_model, save_model, verify_model
from .mvstats import NoConvergence
from .trainer import PRESETS, SETTING_RANGES, TrainerConfig, fit


def grid_spec(text: str) -> list[float]:
    """Parse a lo:hi:steps threshold grid; lo == hi collapses to one point."""
    try:
        lo_s, hi_s, steps_s = text.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like lo:hi:steps, got {text!r}"
        )
    if not math.isfinite(hi - lo):  # a NaN or infinite bound, or a span that overflows
        raise argparse.ArgumentTypeError(
            f"grid bounds and their span must be finite, got {text!r}"
        )
    if steps < 1:
        raise argparse.ArgumentTypeError("grid needs at least one step")
    if hi < lo:
        raise argparse.ArgumentTypeError("grid upper bound below lower bound")
    import numpy as np

    # np.unique would import numpy.ma, 10-25 ms of every sweep's start-up
    return sorted(set(np.linspace(lo, hi, steps).tolist()))


def _setting(name: str, convert):
    """An argparse type for a ``train`` setting's flag: a value out of the
    setting's range is a usage error that names the flag, before any reading."""
    ok, wording = SETTING_RANGES[name]

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {wording}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse's wording: "invalid int value: 'abc'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pca-ids",
        description=(
            "PCA-based anomaly detection for NSL-KDD connection records: "
            "train on normal traffic, then classify by major and minor "
            "principal-component scores."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model on the normal records of a dataset")
    train.add_argument("--data", required=True, help="NSL-KDD training file")
    train.add_argument("--out", required=True, help="where to write the model")
    train.add_argument("--profile", choices=sorted(PROFILES), help="feature subset")
    train.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="named configuration (fixes profile and q/r)",
    )
    train.add_argument("--variance-target", type=_setting("variance_target", float))
    train.add_argument("--minor-cutoff", type=_setting("minor_cutoff", float))
    train.add_argument("--alpha-major", type=_setting("alpha_major", float))
    train.add_argument("--alpha-minor", type=_setting("alpha_minor", float))
    train.add_argument("--q", type=_setting("q_override", int), help="major-component count")
    train.add_argument("--r", type=_setting("r_override", int), help="minor-component count")

    ev = sub.add_parser("evaluate", help="score a labeled dataset and report metrics")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--report", help="also write the report to this path")
    ev.add_argument("--format", choices=("text", "machine"), default="text")

    cl = sub.add_parser("classify", help="stream verdicts for records on stdin or a file")
    cl.add_argument("--model", required=True)
    cl.add_argument("--input", help="read records from this file instead of stdin")

    sw = sub.add_parser("sweep", help="evaluate a grid of thresholds")
    sw.add_argument("--model", required=True)
    sw.add_argument("--data", required=True)
    sw.add_argument("--tm-grid", required=True, type=grid_spec, metavar="LO:HI:STEPS")
    sw.add_argument("--tmm-grid", type=grid_spec, metavar="LO:HI:STEPS")

    ins = sub.add_parser("inspect", help="print model internals and integrity checks")
    ins.add_argument("--model", required=True)

    return parser


@contextmanager
def _reading(path: str) -> Iterator[Dataset]:
    """A Dataset over the file at ``path``. When its pass has ended with
    valid records and skipped malformed lines, one stderr line says so, on
    the way out of the block, so before any error raised after the pass."""
    dataset = Dataset(path)
    try:
        yield dataset
    finally:
        n = dataset.malformed_count
        if n and len(dataset):
            lines = "line" if n == 1 else "lines"
            first = dataset.malformed_lines[0][1]
            print(f"skipped {n} malformed {lines}; first: {first}", file=sys.stderr)


def _trainer_config(args) -> TrainerConfig:
    """Defaults, overridden by the preset's q/r, overridden by explicit flags."""
    preset = PRESETS.get(args.preset, {})
    layers = (
        {"q_override": preset.get("q"), "r_override": preset.get("r")},
        {
            "variance_target": args.variance_target,
            "minor_cutoff": args.minor_cutoff,
            "alpha_major": args.alpha_major,
            "alpha_minor": args.alpha_minor,
            "q_override": args.q,
            "r_override": args.r,
        },
    )
    return TrainerConfig(
        **{key: value for layer in layers for key, value in layer.items() if value is not None}
    )


def cmd_train(args, parser: argparse.ArgumentParser) -> int:
    if args.preset:
        preset_profile = PRESETS[args.preset]["profile"]
        if args.profile and args.profile != preset_profile:
            parser.error(
                f"--profile {args.profile} conflicts with preset "
                f"{args.preset} ({preset_profile})"
            )
        profile = PROFILES[preset_profile]
    elif args.profile:
        profile = PROFILES[args.profile]
    else:
        parser.error("one of --profile or --preset is required")
    if args.q is not None and args.q > profile.p:  # the one range that needs the profile
        parser.error(
            f"argument --q: must be <= {profile.p}, the p of {profile.name}, got '{args.q}'"
        )

    config = _trainer_config(args)
    with _reading(args.data) as dataset:
        model = fit(dataset, profile, config)
    save_model(model, args.out)

    meta = model.metadata
    values = ", ".join(f"{v:.4f}" for v in model.eigenvalues)
    print(dataset.summary())
    print(f"trained on {meta['n_normal']} normal records from {args.data}")
    print(f"profile: {profile.name} (p={profile.p})")
    print(f"eigenvalues: [{values}]")
    print(f"selected q={model.q} r={model.r} (automatic rule: q={meta['auto_q']} r={meta['auto_r']})")
    t_minor = "n/a" if model.t_minor is None else repr(model.t_minor)
    print(f"thresholds: t_major={model.t_major!r} t_minor={t_minor}")
    print(f"model written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    with _reading(args.data) as dataset:
        report = evaluate(model, dataset)
    if args.format == "machine":
        text = json.dumps(machine_report(report), indent=2)
    else:
        text = format_text_report(report, heading=f"evaluation of {args.data}")
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0


def _quoted(text: str) -> str:
    """``text`` in double quotes, with backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cmd_classify(args) -> int:
    model = load_model(args.model)
    if args.input:
        source = open_text(args.input)
    else:
        source = sys.stdin
        if isinstance(source, io.TextIOWrapper):
            # Universal newlines, as open_text reads files; a line ending in a
            # bare \r waits for the next byte, to see whether \n follows.
            source.reconfigure(encoding="utf-8", errors=DECODE_ERRORS, newline=None)
        # A live feed must see each verdict as it is made, not at EOF.
        if isinstance(sys.stdout, io.TextIOWrapper):
            sys.stdout.reconfigure(line_buffering=True)
    attacks = normals = errors = 0
    try:
        for item in classify_stream(model, source):
            if item.error is not None:
                errors += 1
                print(f"error={_quoted(item.error)} line={item.line_no}")
                continue
            verdict = item.verdict
            if verdict.is_attack:
                attacks += 1
            else:
                normals += 1
            print(verdict.to_line())
    finally:
        if args.input:
            source.close()
    print(
        f"processed={attacks + normals + errors} attacks={attacks} "
        f"normals={normals} errors={errors}",
        file=sys.stderr,
    )
    return 0


def cmd_sweep(args, parser: argparse.ArgumentParser) -> int:
    model = load_model(args.model)
    if args.tmm_grid and model.t_minor is None:
        parser.error("--tmm-grid needs a model with minor components; this one has r=0")
    grid = [(tm, tmm) for tm in args.tm_grid for tmm in args.tmm_grid or [model.t_minor]]
    with _reading(args.data) as dataset:
        result = sweep(model, dataset, grid)
    rows = [f"{'t_major':>14}{'t_minor':>14}{'recall':>10}{'fpr':>10}{'success':>10}"]
    for (tm, tmm), recall, fpr, success in zip(grid, result.recall, result.fpr, result.success):
        tmm_text = "n/a" if tmm is None else f"{tmm:.6g}"
        rows.append(f"{tm:>14.6g}{tmm_text:>14}{recall:>10.4f}{fpr:>10.4f}{success:>10.4f}")
    print("\n".join(rows))
    best_tm, best_tmm = grid[result.best]
    best = result.report(result.best)
    best_tmm_text = "n/a" if best_tmm is None else f"{best_tmm:.6g}"
    recall = best.recall_anomaly
    best_recall = "n/a" if recall is None else f"{recall:.4f}"
    print(
        f"best: t_major={best_tm:.6g} t_minor={best_tmm_text} "
        f"success={best.overall_success:.4f} recall={best_recall}"
    )
    return 0


def cmd_inspect(args) -> int:
    model = load_model(args.model, verify=False)
    issues = verify_model(model)
    p = model.profile.p

    print(f"profile: {model.profile.name} (p={p})")
    print(f"features: {', '.join(model.profile.feature_names())}")
    residuals = eigen_residuals(model)
    if residuals is not None:  # the spectrum is p eigenvalues only then
        print(f"{'component':>10}{'eigenvalue':>14}{'cumulative':>12}")
        running = 0.0
        for i, lam in enumerate(model.eigenvalues, start=1):
            running += lam
            print(f"{i:>10}{lam:>14.6f}{running / p:>12.4f}")
    print(f"selected q={model.q} r={model.r}")
    t_minor = "n/a" if model.t_minor is None else repr(model.t_minor)
    print(f"thresholds: t_major={model.t_major!r} t_minor={t_minor}")
    sizes = ", ".join(
        f"pos {pos}: {len(table)} tokens" for pos, table in sorted(model.encoder.items())
    )
    print(f"encoder: {sizes}")

    if residuals is not None:
        eigen_sum, orthonormality = residuals
        print(
            f"eigenvalue-sum residual |sum - p| = {eigen_sum.value:.3e} "
            f"[{'PASS' if eigen_sum.ok else 'FAIL'}]"
        )
        print(
            f"orthonormality residual = {orthonormality.value:.3e} "
            f"[{'PASS' if orthonormality.ok else 'FAIL'}]"
        )
    if issues:
        for issue in issues:
            print(f"integrity: FAIL {issue}", file=sys.stderr)
        return 1
    print("integrity: PASS")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args, parser)
        if args.command == "evaluate":
            return cmd_evaluate(args)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "sweep":
            return cmd_sweep(args, parser)
        if args.command == "inspect":
            return cmd_inspect(args)
        parser.error(f"unknown command {args.command!r}")
    # EmptyDatasetError, ModelFormatError and ModelIntegrityError are ValueErrors.
    except (OSError, NoConvergence, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
