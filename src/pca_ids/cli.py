"""Command-line surface: train, evaluate, classify, sweep, inspect.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from .detector import classify_file, classify_stream
from .evaluation import (
    evaluate,
    format_text_report,
    machine_report,
    sweep,
)
from .kdd import DECODE_ERRORS, EmptyDatasetError, PROFILES, load_dataset, open_text
from .modelio import (
    ModelFormatError,
    ModelIntegrityError,
    eigen_residuals,
    load_model,
    save_model,
    verify_model,
)
from .mvstats import NoConvergence
from .trainer import PRESETS, TrainerConfig, fit


def grid_spec(text: str) -> list[float]:
    """Parse a lo:hi:steps threshold grid; lo == hi collapses to one point."""
    try:
        lo_s, hi_s, steps_s = text.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like lo:hi:steps, got {text!r}"
        )
    if not np.isfinite(hi - lo):  # a NaN or infinite bound, or a span that overflows
        raise argparse.ArgumentTypeError(
            f"grid bounds and their span must be finite, got {text!r}"
        )
    if steps < 1:
        raise argparse.ArgumentTypeError("grid needs at least one step")
    if hi < lo:
        raise argparse.ArgumentTypeError("grid upper bound below lower bound")
    # np.unique would import numpy.ma, 10-25 ms of every sweep's start-up
    return sorted(set(np.linspace(lo, hi, steps).tolist()))


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
    train.add_argument("--variance-target", type=float, default=None)
    train.add_argument("--minor-cutoff", type=float, default=None)
    train.add_argument("--alpha-major", type=float, default=None)
    train.add_argument("--alpha-minor", type=float, default=None)
    train.add_argument("--q", type=int, default=None, help="major-component count")
    train.add_argument("--r", type=int, default=None, help="minor-component count")

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

    config = _trainer_config(args)
    dataset = load_dataset(args.data)
    model = fit(dataset, profile, config)
    save_model(model, args.out)

    meta = model.metadata
    values = ", ".join(f"{v:.4f}" for v in model.eigen.values)
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
    dataset = load_dataset(args.data)
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
        items = classify_file(model, source)
    else:
        source = sys.stdin
        if isinstance(source, io.TextIOWrapper):
            source.reconfigure(encoding="utf-8", errors=DECODE_ERRORS)
        # A live feed must see each verdict as it is made, not at EOF.
        if isinstance(sys.stdout, io.TextIOWrapper):
            sys.stdout.reconfigure(line_buffering=True)
        items = classify_stream(model, source)
    attacks = normals = errors = 0
    try:
        for item in items:
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
    if args.tmm_grid and model.r == 0:
        parser.error("--tmm-grid needs a model with minor components; this one has r=0")
    dataset = load_dataset(args.data)
    if args.tmm_grid:
        minor_values = args.tmm_grid
    elif model.r > 0:
        minor_values = [model.t_minor]
    else:
        minor_values = [None]
    grid = [(tm, tmm) for tm in args.tm_grid for tmm in minor_values]

    result = sweep(model, dataset, grid)
    header = (
        f"{'t_major':>14}{'t_minor':>14}{'recall':>10}{'fpr':>10}{'success':>10}"
    )
    print(header)
    for point in result.points:
        tmm = "n/a" if point.t_minor is None else f"{point.t_minor:.6g}"
        rep = point.report
        print(
            f"{point.t_major:>14.6g}{tmm:>14}"
            f"{rep.recall_anomaly if rep.recall_anomaly is not None else float('nan'):>10.4f}"
            f"{rep.fpr_anomaly if rep.fpr_anomaly is not None else float('nan'):>10.4f}"
            f"{rep.overall_success:>10.4f}"
        )
    best = result.best
    best_tmm = "n/a" if best.t_minor is None else f"{best.t_minor:.6g}"
    recall = best.report.recall_anomaly
    best_recall = "n/a" if recall is None else f"{recall:.4f}"
    print(
        f"best: t_major={best.t_major:.6g} t_minor={best_tmm} "
        f"success={best.report.overall_success:.4f} recall={best_recall}"
    )
    return 0


def cmd_inspect(args) -> int:
    model = load_model(args.model, verify=False)
    issues = verify_model(model)
    p = model.p

    print(f"profile: {model.profile.name} (p={p})")
    print(f"features: {', '.join(model.profile.feature_names())}")
    residuals = eigen_residuals(model)
    if residuals is not None:  # the spectrum is p eigenvalues only then
        print(f"{'component':>10}{'eigenvalue':>14}{'cumulative':>12}")
        running = 0.0
        for i, lam in enumerate(model.eigen.values, start=1):
            running += float(lam)
            print(f"{i:>10}{lam:>14.6f}{running / p:>12.4f}")
    print(f"selected q={model.q} r={model.r}")
    t_minor = "n/a" if model.t_minor is None else repr(model.t_minor)
    print(f"thresholds: t_major={model.t_major!r} t_minor={t_minor}")
    sizes = ", ".join(
        f"pos {pos}: {model.encoder.size(pos)} tokens"
        for pos in model.encoder.positions()
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
    # An overflowing feature gives an inf score (an attack verdict) or a
    # refused train; numpy's warning would only repeat that on stderr.
    try:
        with np.errstate(over="ignore"):
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
    except (
        OSError,
        EmptyDatasetError,
        NoConvergence,
        ModelFormatError,
        ModelIntegrityError,
        ValueError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
