"""The program's side of the benchmark: runs ``pca_ids`` inside this process.

Two modes, each started by ``run.py`` in a fresh process with a pinned
environment:

``stream``  the open-loop online path. Lines fall due in 100 ms bursts at
            8,000 rec/s separated by 100 ms idle gaps. A generator spins
            (never sleeps) until each line is due and hands it to
            ``detector.classify_stream``; each item is formatted with
            ``Verdict.to_line`` and timed from its line's due time.

``trace``   runs a plan of CLI commands in process through ``cli.main``:
            once to warm up, REPEATS times untraced, then REPEATS times
            with every public function wrapped (see ``tracing.py``),
            each side followed by one stream pass. Spans stay in
            memory and are written to an ``.npz`` file at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import time

import numpy as np

PER_BURST = 800  # 100 ms at 8,000 rec/s
SPACING_NS = 125_000
PERIOD_NS = 200_000_000  # burst plus idle gap
START_DELAY_NS = 2_000_000
# Passes of the commands on each side of the traced run. Host speed
# swings by up to a factor of two for a second or so at a time, so one
# pass per side can make tracing look free or even faster.
REPEATS = 3


def error_line(item) -> str:
    """The CLI's wire form of a per-line error."""
    return f'error="{item.error}" line={item.line_no}'


def open_loop(model, lines: list[str], tracer=None) -> tuple[list[str], list[int], list[int]]:
    """Classify ``lines`` as they fall due; returns (outputs, latency ns, late ns).

    With a tracer, each wait for the next line is a ``bench.feed`` span,
    so the spinning is not counted as ``classify_stream`` self time.
    """
    from pca_ids import detector

    n = len(lines)
    clock = time.perf_counter_ns
    t0 = clock() + START_DELAY_NS
    due = [t0 + (k // PER_BURST) * PERIOD_NS + (k % PER_BURST) * SPACING_NS for k in range(n)]
    late = [0] * n
    latency = [0] * n
    outputs = [""] * n

    def feed():
        for k in range(n):
            now = clock()
            while now < due[k]:
                now = clock()
            late[k] = now - due[k]
            yield lines[k]

    source = feed() if tracer is None else tracer.wrap("bench.feed", feed)()
    k = 0
    for item in detector.classify_stream(model, source):
        text = item.verdict.to_line() if item.verdict is not None else error_line(item)
        latency[k] = clock() - due[k]
        outputs[k] = text
        k += 1
    if k != n:
        raise RuntimeError(f"classify_stream yielded {k} items for {n} lines")
    return outputs, latency, late


def stream_main(args) -> None:
    from pca_ids import modelio

    model = modelio.load_model(args.model)
    with open(args.input, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    outputs, latency, late = open_loop(model, lines)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(outputs) + "\n")
    np.savez(args.timings, latency=np.asarray(latency), late=np.asarray(late))


def _run_commands(plan: dict, suffix: str, tracer=None) -> tuple[list[float], list[int]]:
    from pca_ids import cli

    walls, codes = [], []
    for k, command in enumerate(plan["commands"]):
        if tracer is not None:
            tracer.run_id = k
        stem = f"{command['stdout']}{suffix}"
        with open(stem, "w", encoding="utf-8") as out, open(stem + ".err", "w") as err:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                codes.append(cli.main(command["argv"]))
                walls.append(time.perf_counter() - start)
    return walls, codes


def _run_stream(plan: dict, suffix: str, tracer=None):
    from pca_ids import modelio

    if tracer is not None:
        tracer.run_id = len(plan["commands"])
    stream = plan["stream"]
    with open(stream["input"], "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = time.perf_counter()
    model = modelio.load_model(stream["model"])
    outputs, latency, late = open_loop(model, lines, tracer)
    wall = time.perf_counter() - start
    with open(stream["stdout"] + suffix, "w", encoding="utf-8") as handle:
        handle.write("\n".join(outputs) + "\n")
    return wall, latency, late


def _best_of(plan: dict, suffix: str, tracer=None) -> tuple[list[float], list[int]]:
    """Each command's fastest wall time over REPEATS passes, and its worst exit code.

    With a tracer, only the last pass keeps its spans and counts.
    """
    walls, codes = [], []
    for _ in range(REPEATS):
        if tracer is not None:
            tracer.reset()
        pass_walls, pass_codes = _run_commands(plan, suffix, tracer)
        walls.append(pass_walls)
        codes.append(pass_codes)
    return [min(w) for w in zip(*walls)], [next((c for c in cs if c), 0) for cs in zip(*codes)]


def trace_main(args) -> None:
    import tracing

    with open(args.plan, "r", encoding="utf-8") as handle:
        plan = json.load(handle)
    _run_commands(plan, ".warmup")  # first calls pay one-off costs; not compared
    untraced_walls, codes = _best_of(plan, ".untraced")
    _, latency, late = _run_stream(plan, ".untraced")

    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced_walls, traced_codes = _best_of(plan, "", tracer)
    _run_stream(plan, "", tracer)

    np.savez(args.spans, **tracer.arrays(), latency=np.asarray(latency), late=np.asarray(late))
    summary = {
        "names": tracer.names,
        "counts": [[run, key, n] for (run, key), n in sorted(tracer.counts.items())],
        "untraced_walls": untraced_walls,
        "traced_walls": traced_walls,
        "exit_codes": codes + traced_codes,
    }
    with open(args.summary, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)


def main() -> None:
    parser = argparse.ArgumentParser(description="runs pca_ids in this process")
    sub = parser.add_subparsers(dest="mode", required=True)
    st = sub.add_parser("stream")
    st.add_argument("--model", required=True)
    st.add_argument("--input", required=True)
    st.add_argument("--out", required=True)
    st.add_argument("--timings", required=True)
    tr = sub.add_parser("trace")
    tr.add_argument("--plan", required=True)
    tr.add_argument("--spans", required=True)
    tr.add_argument("--summary", required=True)
    args = parser.parse_args()
    if args.mode == "stream":
        stream_main(args)
    else:
        trace_main(args)


if __name__ == "__main__":
    main()
