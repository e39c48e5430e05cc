#!/usr/bin/env python3
"""Write the golden work counters of the small fixtures.

Runs `conedd bench` on gieseking, onetet, s2xs1 and loop9 over the paper's
ordering, representation and prefilter axes, and on loop12 under the default
ordering and prefilter (`position`, `extended`) in both representations.
Writes every column of its CSV except `time_ms` to
tests/data/bench_counters.csv.  The file is committed, so a change that
moves `peak_mem_bytes`, `max_vi`, `final_count` or `sep_g` on any of these
runs shows up as a diff:

    python scripts/bench_counters.py && git diff --exit-code tests/data/
"""

from __future__ import annotations

import argparse
import csv
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from conedd.cli import BENCH_COLUMNS
from conedd.cli import main as cli_main

# (instances, matrix) pairs, each run as one `conedd bench` call.
RUNS = (
    (
        ("gieseking.cone", "onetet.tri", "s2xs1.tri", "loop9.tri"),
        "order=input,position,lexpos,lexrand:1,dynamic;rep=full,inner;prefilter=off,basic,extended",
    ),
    (("loop12.tri",), "order=position;rep=full,inner;prefilter=extended"),
)
COLUMNS = [c for c in BENCH_COLUMNS if c != "time_ms"]


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", default=str(ROOT / "tests" / "data" / "bench_counters.csv"))
    args = parser.parse_args()

    rows = []
    code = 0
    with tempfile.TemporaryDirectory() as tmp:
        full_csv = Path(tmp) / "bench.csv"
        for instances, matrix in RUNS:
            inputs = ",".join(str(ROOT / "fixtures" / name) for name in instances)
            argv = ["bench", "--input", inputs, "--matrix", matrix, "--out", str(full_csv)]
            code = cli_main(argv) or code
            with open(full_csv, newline="") as handle:
                rows += csv.DictReader(handle)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=COLUMNS, extrasaction="ignore", lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(rows)
    failed = [row for row in rows if row["status"] != "ok"]
    for row in failed:
        print(f"{row['instance']} {row['order']} {row['rep']} {row['prefilter']}: {row['status']}")
    print(f"wrote {len(rows)} rows to {out}")
    return code or (1 if failed else 0)


if __name__ == "__main__":
    sys.exit(main())
