"""Report assembly and emission: canonical JSON, CSV, aligned tables.

This module holds the output contract: the record statuses and the exit
code each gives a command (`STATUS_EXIT`, `exit_code_for`), and the
output formats (`EMITTERS`).

Reports are self-describing: every document carries the toolkit version
and a convention fingerprint (Burau form, brick sign table, transvection
sign, continued-fraction and Seifert-solve conventions), because the
numeric values of the invariants are only meaningful relative to those
choices.

Canonical JSON is byte-reproducible: keys sorted, minimal separators,
records pre-sorted on (genus, power, variant, check), no timing fields
unless explicitly requested by the producer.
"""

from __future__ import annotations

import csv
import io
import json

from . import __version__

SCHEMA_VERSION = 1

CONVENTION_FINGERPRINT = {
    "burau": "reduced; letter acts on columns; sigma_1 in B2 -> (-t)",
    "brick_table": {
        "diagonal": "-column_sign",
        "shared_positive": [1, 0],
        "shared_negative": [0, -1],
        "interleave_low_first": [0, 1],
        "interleave_high_first": [0, -1],
    },
    "transvection": "sigma_i^+ -> x + <x, a_i> a_i; earlier letters act first",
    "seifert_solve": "S(I - M) = -J",
    "continued_fraction": "all-plus, leftmost term outermost",
    "garside": "left-greedy; Delta from the descending staircase word",
    "alexander_normalization": "lowest exponent 0, positive constant term",
}


def build_report(records: list[dict], timing: bool = False) -> dict:
    ordered = sorted(records, key=record_sort_key)
    if not timing:
        ordered = [
            {k: v for k, v in r.items() if k != "seconds"} for r in ordered
        ]
    return {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "fingerprint": CONVENTION_FINGERPRINT,
        "records": ordered,
    }


def record_sort_key(record: dict):
    return (
        record.get("genus", -1),
        record.get("power", -1),
        record.get("variant", ""),
        record.get("check", ""),
        record.get("word", ""),
    )


def canonical_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def emit_json(document: dict, stream: io.TextIOBase) -> None:
    stream.write(canonical_json(document))


def emit_csv(document: dict, stream: io.TextIOBase) -> None:
    """Flat record table; cells hold scalars or compact JSON for structures."""
    records = document.get("records", [])
    columns: list[str] = []
    for record in records:
        for key in record:
            if key not in columns:
                columns.append(key)
    columns.sort()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for record in records:
        row = []
        for key in columns:
            if key not in record:
                row.append("")
                continue
            value = record[key]
            if isinstance(value, (list, dict, bool)) or value is None:
                row.append(json.dumps(value, sort_keys=True))
            else:
                row.append(str(value))
        writer.writerow(row)


def emit_table(document: dict, stream: io.TextIOBase) -> None:
    records = document.get("records", [])
    preferred = [
        "check",
        "genus",
        "power",
        "variant",
        "status",
        "alexander",
        "determinant_rational",
        "verdict",
        "dilatation",
        "moves",
        # sweep composite columns
        "unknot",
        "alexander_burau",
        "pa_verdict",
        "pa_dilatation",
        "twobridge_fraction",
    ]
    columns = [
        c for c in preferred if any(c in r for r in records)
    ] or ["status"]
    rows = [
        [_table_cell(r.get(c, "")) for c in columns] for r in records
    ]
    widths = [
        max([len(columns[i])] + [len(row[i]) for row in rows])
        for i in range(len(columns))
    ]
    stream.write(
        "  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n"
    )
    for row in rows:
        stream.write(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
        )


def _table_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    if value is None:
        return ""
    return str(value)


EMITTERS = {"json": emit_json, "csv": emit_csv, "table": emit_table}

# a record's status and the exit code it gives a command
STATUS_EXIT = {"verified": 0, "refuted": 1, "error": 1, "inconclusive": 2}


def exit_code_for(records) -> int:
    """Worst exit code across records: error beats inconclusive beats ok."""
    worst = 0
    for record in records:
        code = STATUS_EXIT.get(record.get("status", "error"), 1)
        if code == 1:
            return 1
        worst = max(worst, code)
    return worst


class ReportFormatError(ValueError):
    pass


def validate_report(document: dict) -> None:
    """Structural validation mirroring docs/report_schema.json."""
    if not isinstance(document, dict):
        raise ReportFormatError("report must be a JSON object")
    for key in ("schema_version", "toolkit_version", "fingerprint", "records"):
        if key not in document:
            raise ReportFormatError(f"report missing key {key!r}")
    if document["schema_version"] != SCHEMA_VERSION:
        raise ReportFormatError(
            f"unsupported schema version {document['schema_version']!r}"
        )
    if not isinstance(document["fingerprint"], dict):
        raise ReportFormatError("fingerprint must be an object")
    records = document["records"]
    if not isinstance(records, list):
        raise ReportFormatError("records must be an array")
    for idx, record in enumerate(records):
        if not isinstance(record, dict):
            raise ReportFormatError(f"record {idx} must be an object")
        status = record.get("status")
        if not isinstance(status, str) or status not in STATUS_EXIT:
            raise ReportFormatError(
                f"record {idx} has invalid status {status!r}"
            )
