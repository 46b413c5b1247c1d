#!/usr/bin/env python3
"""Tabulate the matrix-entry growth of the lifted family words.

The largest absolute entry of the homological lift grows with the
stirring power; the table prints values and successive ratios so the
asymptotic slope is visible by eye.  This is a complexity proxy only:
nothing here computes or estimates a hyperbolic volume.

    python scripts/growth_table.py --genus 2 --max-power 10
    python scripts/growth_table.py --genus 3 --variant original --csv growth.csv

Exit code 0 when the table is printed, 1 on any error, a usage error
included.
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from braidkit.braid import VARIANTS
from braidkit.coverlift import growth_sequence


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--genus", type=int, default=2)
    ap.add_argument("--min-power", type=int, default=0)
    ap.add_argument("--max-power", type=int, default=10)
    ap.add_argument("--variant", choices=VARIANTS, default="original")
    ap.add_argument("--csv", metavar="PATH", help="also write a CSV file")
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; like every other error here it
        # exits 1.  argparse has printed the usage and the reason already
        return 0 if not exc.code else 1

    powers = range(args.min_power, args.max_power + 1)
    if not powers:
        print(
            f"error: empty power range {args.min_power}..{args.max_power}",
            file=sys.stderr,
        )
        return 1
    try:
        values = growth_sequence(args.genus, powers, args.variant)
    except ValueError as exc:  # a genus below 1 or a negative power
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rows = []
    print(f"{'n':>4s} {'max|entry|':>14s} {'ratio':>10s}")
    previous = None
    for n, value in zip(powers, values):
        ratio = "" if not previous else f"{value / previous:10.4f}"
        print(f"{n:4d} {value:14d} {ratio:>10s}")
        rows.append(
            {
                "power": n,
                "max_entry": value,
                "ratio": "" if not previous else value / previous,
            }
        )
        previous = value

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(
                handle, fieldnames=("power", "max_entry", "ratio")
            )
            writer.writeheader()
            writer.writerows(rows)
        print(f"table -> {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
