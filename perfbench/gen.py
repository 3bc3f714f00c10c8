"""Seeded input generator for the pca-ids benchmark.

Rows follow the templates of the test suite's synthetic corpus (one
correlated model for normal traffic, one hard deviation per attack
family), drawn column by column. Test and stream files add two kinds of
damage in fixed shares: rows whose service token never occurs in
training, and malformed lines (wrong field count, non-numeric field,
negative value).

Run as a program it writes the files of one workload into a directory
together with ``manifest.json`` (sha256 of each file, injected counts).
The benchmark runs it in its own process, so the program's peak RSS is
measured without the generator in it. It never imports ``pca_ids``.

    python3 perfbench/gen.py --seed 1 --units 40 --stream-lines 4000 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

import numpy as np

# Per-family counts of one corpus unit (506 rows); a workload scales it.
UNIT_COUNTS = {
    "normal": 400,
    "neptune": 60,
    "satan": 25,
    "guess_passwd": 12,
    "rootkit": 5,
    "mscan": 4,
}
UNIT_SIZE = sum(UNIT_COUNTS.values())

UNKNOWN_SHARE = 0.01
MALFORMED_SHARE = 0.005
# Services that no template emits, so no model can have learned them.
UNSEEN_SERVICES = ("telnet", "finger", "whois", "auth")
NUMERIC_POSITIONS = tuple(p for p in range(1, 42) if p not in (2, 3, 4))
MALFORMED_KINDS = ("field_count", "non_numeric", "negative")
SERVICE_POSITION = 3


def _family(rng: np.random.Generator, label: str, n: int) -> np.ndarray:
    """``n`` rows of 41 fields for ``label``; the templates of the test corpus."""
    f = np.full((n, 41), "0", dtype=object)

    def put(position: int, values) -> None:
        f[:, position - 1] = np.broadcast_to(np.asarray(values).astype(str), (n,))

    def ints(lo: int, hi: int) -> np.ndarray:
        return rng.integers(lo, hi, size=n)

    if label == "normal":
        put(1, ints(0, 4))
        put(2, rng.choice(["tcp", "tcp", "tcp", "udp", "icmp"], size=n))
        put(3, rng.choice(["http", "http", "smtp", "ftp_data", "domain_u", "private"], size=n))
        put(4, rng.choice(["SF", "SF", "SF", "SF", "S0", "REJ"], size=n))
        src = ints(150, 550)
        put(5, src)
        put(6, (0.8 * src + ints(0, 80)).astype(int))
        count = 1 + rng.poisson(4, size=n)
        put(23, count)
        put(24, np.maximum(1, count - ints(0, 3)))
        dhc = ints(20, 220)
        put(32, dhc)
        put(33, np.maximum(1, dhc - ints(0, 15)))
    elif label == "neptune":
        put(2, "tcp")
        put(3, "private")
        put(4, "S0")
        put(23, ints(350, 520))
        put(24, ints(350, 520))
        put(32, 255)
        put(33, 255)
    elif label in ("satan", "mscan"):
        put(2, "icmp")
        put(3, "private")
        put(4, "REJ")
        put(5, 6)
        put(23, ints(120, 200))
        put(24, 1)
        put(32, 255)
        put(33, ints(1, 4))
    elif label == "guess_passwd":
        put(1, ints(200, 420))
        put(2, "tcp")
        put(3, "ftp_data")
        put(4, "SF")
        put(5, ints(3000, 6000))
        put(6, ints(200, 400))
        for position in (23, 24, 32, 33):
            put(position, 2)
    elif label == "rootkit":
        put(1, ints(60, 120))
        put(2, "tcp")
        put(3, "smtp")
        put(4, "SF")
        put(5, ints(8000, 12000))
        put(6, ints(4000, 7000))
        for position in (23, 24, 32, 33):
            put(position, 1)
    else:
        raise ValueError(f"no template for label {label!r}")
    return f


def corpus(rng: np.random.Generator, units: int) -> list[list[str]]:
    """Shuffled labeled rows (41 features, label, difficulty on about half)."""
    rows = []
    for label, n in UNIT_COUNTS.items():
        n *= units
        features = _family(rng, label, n).tolist()
        difficulty = rng.integers(1, 22, size=n).tolist()
        has_difficulty = rng.integers(0, 2, size=n).tolist()
        for fields, d, has in zip(features, difficulty, has_difficulty):
            fields.append(label)
            if has:
                fields.append(str(d))
            rows.append(fields)
    order = rng.permutation(len(rows))
    return [rows[k] for k in order]


def damage(rng: np.random.Generator, rows: list[list[str]]) -> dict:
    """Inject unseen services and malformed lines in place.

    Returns the 1-based line numbers of each kind. The two sets are
    disjoint, so every unseen-service row is also a well-formed row.
    """
    n = len(rows)
    n_unknown = max(1, round(UNKNOWN_SHARE * n))
    n_malformed = max(len(MALFORMED_KINDS), round(MALFORMED_SHARE * n))
    picked = rng.choice(n, size=n_unknown + n_malformed, replace=False)
    unknown = sorted(int(k) for k in picked[:n_unknown])
    malformed = sorted(int(k) for k in picked[n_unknown:])
    for k in unknown:
        rows[k][SERVICE_POSITION - 1] = str(rng.choice(UNSEEN_SERVICES))
    kinds = {}
    for j, k in enumerate(malformed):
        kind = MALFORMED_KINDS[j % len(MALFORMED_KINDS)]
        if kind == "field_count":
            rows[k] = rows[k][:20]
        else:
            position = int(rng.choice(NUMERIC_POSITIONS))
            rows[k][position - 1] = "x7" if kind == "non_numeric" else "-5"
        kinds[k + 1] = kind
    return {"unknown_lines": [k + 1 for k in unknown], "malformed_lines": kinds}


def _write(path: str, rows: list[list[str]]) -> str:
    data = "".join(",".join(r) + "\n" for r in rows).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
    return hashlib.sha256(data).hexdigest()


def generate(out_dir: str, seed: int, units: int, stream_lines: int) -> dict:
    """Write train.txt, test.txt, stream.txt and one.txt; return the manifest.

    The training file comes from ``seed``, the test file from the next
    seed, and the unlabeled 41-field stream file from the one after.
    """
    os.makedirs(out_dir, exist_ok=True)
    train = corpus(np.random.default_rng(seed), units)
    test_rng = np.random.default_rng(seed + 1)
    test = corpus(test_rng, units)
    test_damage = damage(test_rng, test)
    stream_rng = np.random.default_rng(seed + 2)
    stream_units = -(-stream_lines // UNIT_SIZE)
    stream = [row[:41] for row in corpus(stream_rng, stream_units)[:stream_lines]]
    stream_damage = damage(stream_rng, stream)
    one = [stream[stream_damage["unknown_lines"][0] - 1]]

    files = {}
    for name, rows in (("train", train), ("test", test), ("stream", stream), ("one", one)):
        path = os.path.join(out_dir, f"{name}.txt")
        files[name] = {"lines": len(rows), "sha256": _write(path, rows)}
    manifest = {
        "seed": seed,
        "units": units,
        "stream_lines": stream_lines,
        "files": files,
        "damage": {"test": test_damage, "stream": stream_damage},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True)
    parser.add_argument("--stream-lines", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.out, args.seed, args.units, args.stream_lines)


if __name__ == "__main__":
    main()
