"""Fails when `train`, `evaluate`, `sweep` or `classify` grows with its input past a bound.

    python .github/scripts/memory_growth.py WORKDIR

Writes seed-801 inputs with perfbench/gen.py at --units 8 (4,048 rows) and
--units 200 (101,200 rows) under WORKDIR. Runs `train` and `evaluate`
(step2), `sweep` (a 60 x 60 grid) and `classify --input` on each size in a
fresh process and reads its peak RSS from wait4. Exits 1 when the peak
grows from the small to the large input by more than 4 MB for `evaluate`,
`sweep` or `classify`, or 18 MB for `train`. Each reads its file in blocks
and keeps per record only what its result needs; holding every record grew
each by about 50 MB here. `train` keeps its normals' n x p matrix, then
their standardized columns in its place, and grew 12.6-13.1 MB; one more
n x p copy would add about 6.4 MB (80k normals x 10 features x 8 B). `evaluate` and `sweep` keep one 8-byte tally
index per record and grew 1.5-1.6 MB (Linux, 2 vCPU, numpy 2.4); keeping
both scores and the class code grew them 5.2-5.5 MB. `classify` writes each
block's verdicts before it reads the next and keeps nothing per record; it
grew 0.0-0.4 MB.

Imports the standard library alone: Linux carries a process's peak RSS
into the children it starts, so this process stays smaller than them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
UNITS = (8, 200)
BOUND_MB = {"train": 18.0, "evaluate": 4.0, "sweep": 4.0, "classify": 4.0}


def peak_rss_mb(argv: list[str]) -> float:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "SOURCE_DATE_EPOCH": "1700000000"}
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"failed: {' '.join(argv)}")
    return usage.ru_maxrss / 1024


def main() -> None:
    work = Path(sys.argv[1])
    cli = [sys.executable, "-m", "pca_ids.cli"]
    inputs = {}
    for units in UNITS:
        inputs[units] = work / f"units{units}"
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "gen.py"), "--seed", "801",
             "--units", str(units), "--stream-lines", "1000", "--out", str(inputs[units])],
            check=True,
        )
    model = str(work / "step2.json")
    argv = {
        "train": lambda data: ["train", "--data", str(data / "train.txt"), "--preset", "step2",
                               "--out", model],
        "evaluate": lambda data: ["evaluate", "--model", model, "--data", str(data / "test.txt")],
        "sweep": lambda data: ["sweep", "--model", model, "--data", str(data / "test.txt"),
                               "--tm-grid", "1:60:60", "--tmm-grid", "0.5:30:60"],
        "classify": lambda data: ["classify", "--model", model, "--input", str(data / "test.txt")],
    }
    failed = False
    for command, bound in BOUND_MB.items():  # train first: it writes the model evaluate reads
        peaks = [peak_rss_mb([*cli, *argv[command](inputs[units])]) for units in UNITS]
        growth = peaks[1] - peaks[0]
        print(f"{command}: peak RSS {peaks[0]:.1f} -> {peaks[1]:.1f} MB, "
              f"growth {growth:.1f} MB (bound {bound:.0f})")
        failed |= growth > bound
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
