"""Compare two benchmark records made on the same inputs.

    python3 perfbench/compare.py .perfbench_runs/A.json .perfbench_runs/B.json

Each record is the file ``run.py`` keeps per run. The two must share
workload, trace mode, ``--seconds`` and the sha256 of every input file; otherwise the
comparison is refused (exit 2), because a difference could come from the
inputs rather than the program. Prints each metric of A and B, the
change as a share of A, and whether B is better or worse by the metric's
direction in BENCHMARK.json. A metric that only one record has is
reported as missing from the other.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def comparable(a: dict, b: dict) -> str | None:
    """Why two records may not be compared, or None when they may."""
    for key in ("workload", "trace", "seconds", "inputs_sha256"):
        if a["provenance"][key] != b["provenance"][key]:
            return f"{key} differs"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    reason = comparable(a, b)
    if reason:
        print(f"refused: {reason}; compare runs of the same seed, trace mode and --seconds", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in [n for n in mb if n not in ma]:
        print(f"{name:<36} missing from A")
    for name, entry in ma.items():
        if name not in mb:
            print(f"{name:<36} missing from B")
            continue
        old = entry["value"]
        new = mb[name]["value"]
        change = (new - old) / old if old else float("nan")
        if new == old:
            verdict = "same"
        else:
            verdict = "better" if (new < old) == (better.get(name) == "lower") else "worse"
        print(f"{name:<36} {old:>14.6g} {new:>14.6g} {change:>+9.2%} {verdict} ({entry['unit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
