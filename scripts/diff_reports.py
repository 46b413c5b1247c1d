#!/usr/bin/env python3
"""Print the records that differ between two canonical reports.

    python scripts/diff_reports.py OLD NEW

Sweep records are keyed by (genus, power, variant).  Registry records, the
ones `scripts/verify_all.py` writes, are keyed by check name, together
with the genus, power and variant they carry, since the registry runs each
check once per genus.  A record found on one side only is printed whole;
a record on both sides is printed field by field where it differs, "-"
for OLD and "+" for NEW.  The fields around the records (versions,
fingerprint) are compared the same way.

Exit code as diff(1): 0 identical, 1 any difference, 2 a report that
cannot be read or holds two records with one key.
"""

import argparse
import json
import sys

KEY_FIELDS = ("check", "genus", "power", "variant")


def record_key(record: dict) -> tuple:
    return tuple((f, record[f]) for f in KEY_FIELDS if f in record)


def keyed_records(document: dict) -> dict:
    out = {}
    for record in document["records"]:
        key = record_key(record)
        if key in out:
            raise ValueError(f"two records with key {describe(key)}")
        out[key] = record
    return out


def describe(key: tuple) -> str:
    return " ".join(f"{f}={v}" for f, v in key) or "(no key fields)"


def field_lines(old: dict, new: dict) -> list[str]:
    """'- field: value' / '+ field: value' for every field that differs."""
    lines = []
    for field in sorted(set(old) | set(new)):
        if old.get(field, ...) == new.get(field, ...):
            continue
        for sign, side in (("-", old), ("+", new)):
            if field in side:
                lines.append(f"  {sign} {field}: {json.dumps(side[field], sort_keys=True)}")
    return lines


def diff(old: dict, new: dict) -> list[tuple[str, list[str]]]:
    """(title, field lines) of every record, and of the report fields
    around the records, that differ; empty when the reports agree."""
    blocks = []
    around = field_lines(
        {k: v for k, v in old.items() if k != "records"},
        {k: v for k, v in new.items() if k != "records"},
    )
    if around:
        blocks.append(("report", around))
    old_records, new_records = keyed_records(old), keyed_records(new)
    for key in sorted(set(old_records) | set(new_records), key=repr):
        a, b = old_records.get(key), new_records.get(key)
        if a is None or b is None:
            title = f"{describe(key)} (only in {'NEW' if a is None else 'OLD'})"
            blocks.append((title, field_lines(a or {}, b or {})))
        elif a != b:
            blocks.append((describe(key), field_lines(a, b)))
    return blocks


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as stream:
        document = json.load(stream)
    if not isinstance(document, dict) or not isinstance(document.get("records"), list):
        raise ValueError(f"{path}: not a report, no records array")
    if not all(isinstance(r, dict) for r in document["records"]):
        raise ValueError(f"{path}: a record is not an object")
    return document


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", metavar="OLD")
    ap.add_argument("new", metavar="NEW")
    args = ap.parse_args(argv)
    try:
        old, new = load(args.old), load(args.new)
        blocks = diff(old, new)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for title, lines in blocks:
        print(title)
        for line in lines:
            print(line)
    total = len({record_key(r) for r in old["records"] + new["records"]})
    differing = sum(1 for title, _ in blocks if title != "report")
    print(f"{total} records: {differing} differ" if blocks else f"{total} records: identical")
    return 1 if blocks else 0


if __name__ == "__main__":
    raise SystemExit(main())
