#!/usr/bin/env python3
"""Run every registered verification over a genus range and summarize.

Typical use:

    python scripts/verify_all.py --genus 1 --max-genus 4 --power 0
    python scripts/verify_all.py --genus 2 --json out.json

A check is skipped at the genera its registration excludes (genus 2 only
for the two homology checks, genus 2 and up for the growth check, since
the genus 1 family does not depend on the power); skips are reported
rather than counted against the run.
Exit code follows the check contract: 0 all verified, 1 any error or
refutation (a usage error included), 2 inconclusive.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from braidkit.braid import VARIANTS
from braidkit.checks import applies_at, check_names, run_check
from braidkit.report import build_report, canonical_json, exit_code_for


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--genus", type=int, default=2, help="first genus")
    ap.add_argument(
        "--max-genus", type=int, default=None, help="last genus (inclusive)"
    )
    ap.add_argument("--power", type=int, default=0)
    ap.add_argument("--variant", choices=VARIANTS, default="original")
    ap.add_argument(
        "--fixture",
        action="store_true",
        help="allow the fixture stirring word for enhanced genus != 2",
    )
    ap.add_argument("--json", metavar="PATH", help="write the full report")
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which would read as
        # inconclusive; it has printed the usage and the reason already
        return 0 if not exc.code else 1

    last = args.max_genus if args.max_genus is not None else args.genus
    if last < args.genus:
        print(f"error: empty genus range {args.genus}..{last}", file=sys.stderr)
        return 1
    records = []
    skipped = 0
    for genus in range(args.genus, last + 1):
        for name in check_names():
            if not applies_at(name, genus):
                skipped += 1
                continue
            params = {
                "genus": genus,
                "power": args.power,
                "variant": args.variant,
            }
            if args.fixture:
                params["phi_fixture"] = True
            record = run_check(name, params)
            records.append(record)
            status = record["status"]
            extra = record.get("message", "")
            print(f"g={genus} {name:22s} {status:12s} {extra}")

    counts = {}
    for record in records:
        counts[record["status"]] = counts.get(record["status"], 0) + 1
    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"\n{len(records)} checks: {summary}; skipped {skipped} off-genus")

    if args.json:
        document = build_report(records)
        Path(args.json).write_text(canonical_json(document), encoding="utf-8")
        print(f"report -> {args.json}")
    return exit_code_for(records)


if __name__ == "__main__":
    raise SystemExit(main())
