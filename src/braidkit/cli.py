"""Command-line driver.

Subcommands:

    family   print a family braid word in the signed-integer text format
    check    run one named verification and report its status
    sweep    walk a (genus, power, variant) grid from a config file
    emit     re-emit a JSON report as json, csv, or an aligned table

Exit codes: 0 everything verified, 1 error or refuted, 2 a certifier
returned inconclusive.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .braid import VARIANTS, family_braid, format_braid_text
from .checks import CheckParamError, check_names, exit_code_for, run_check
from .report import (
    build_report,
    emit_csv,
    emit_json,
    emit_table,
    validate_report,
)
from .sweep import parse_config, run_sweep

EXIT_OK = 0
EXIT_ERROR = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidkit",
        description="Braid family construction and verification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("family", help="print a family braid word")
    fam.add_argument("--genus", type=int, required=True)
    fam.add_argument("--power", type=int, default=0)
    fam.add_argument("--variant", choices=VARIANTS, default="original")
    fam.add_argument(
        "--fixture",
        action="store_true",
        help="allow the sweep fixture stirring word for enhanced genus != 2",
    )
    fam.add_argument("--json", action="store_true", dest="as_json")

    chk = sub.add_parser("check", help="run one named verification")
    chk.add_argument("name", choices=check_names())
    chk.add_argument("--genus", type=int)
    chk.add_argument("--power", type=int)
    chk.add_argument("--variant", choices=VARIANTS)
    chk.add_argument("--word", help="braid text: strand count then letters")
    chk.add_argument("--twist-word", help='two-twist word, e.g. "A B-"')
    chk.add_argument("--fixture", action="store_true")
    chk.add_argument("--json", action="store_true", dest="as_json")

    swp = sub.add_parser("sweep", help="run a parameter sweep")
    swp.add_argument("--config", required=True)
    swp.add_argument("--output", help="override the config output path")
    swp.add_argument("--parallelism", type=int)

    emt = sub.add_parser("emit", help="re-emit a report")
    emt.add_argument("--input", required=True)
    emt.add_argument(
        "--format", choices=("json", "csv", "table"), default="json"
    )
    emt.add_argument("--output")
    return parser


def _cmd_family(args) -> int:
    try:
        word = family_braid(
            args.genus,
            args.power,
            args.variant,
            allow_extension_fixture=args.fixture,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.as_json:
        payload = {
            "genus": args.genus,
            "power": args.power,
            "variant": args.variant,
            "strands": word.strands,
            "word": format_braid_text(word),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(format_braid_text(word))
    return EXIT_OK


def _cmd_check(args) -> int:
    params: dict = {}
    for key in ("genus", "power", "variant", "word"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.twist_word is not None:
        params["twist_word"] = args.twist_word
    if args.fixture:
        params["phi_fixture"] = True
    try:
        record = run_check(args.name, params)
    except CheckParamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.as_json:
        print(json.dumps(record, sort_keys=True))
    else:
        summary = " ".join(
            f"{k}={record[k]}"
            for k in ("check", "status", "genus", "power", "variant")
            if k in record
        )
        print(summary)
        if "message" in record:
            print(f"  {record['message']}")
    return exit_code_for([record])


def _open_output(path: str | None):
    """Stream for a report: the file at path, or stdout when path is empty.

    Returns None, after printing the reason, when the file cannot be opened.
    A NUL byte in the path, which a config file can hold, is a ValueError.
    """
    if not path:
        return sys.stdout
    try:
        return open(path, "w", encoding="utf-8")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _emit(document: dict, fmt: str, handle) -> None:
    if fmt == "json":
        emit_json(document, handle)
    elif fmt == "csv":
        emit_csv(document, handle)
    else:
        emit_table(document, handle)


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as handle:
            config = parse_config(handle.read())
        overrides = {"parallelism": args.parallelism, "output": args.output}
        config = dataclasses.replace(
            config, **{k: v for k, v in overrides.items() if v is not None}
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        # ConfigError, a config that is not UTF-8, or a NUL byte in its path
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    # open the output before the compute, so a bad path fails fast
    handle = _open_output(config.output)
    if handle is None:
        return EXIT_ERROR
    try:
        records = run_sweep(config)
        _emit(build_report(records, timing=config.timing), config.format, handle)
    finally:
        if handle is not sys.stdout:
            handle.close()
    counts: dict[str, int] = {}
    for record in records:
        counts[record["status"]] = counts.get(record["status"], 0) + 1
    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    target = config.output or "stdout"
    print(f"records={len(records)} {summary} -> {target}", file=sys.stderr)
    return exit_code_for(records)


def _cmd_emit(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as handle:
            document = json.load(handle)
        validate_report(document)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, RecursionError) as exc:
        # bad JSON (nested too deep for the decoder included), a bad report,
        # bytes that are not UTF-8, or a NUL byte in the path
        print(f"report error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    handle = _open_output(args.output)
    if handle is None:
        return EXIT_ERROR
    try:
        _emit(document, args.format, handle)
    finally:
        if handle is not sys.stdout:
            handle.close()
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "family":
        return _cmd_family(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "emit":
        return _cmd_emit(args)
    raise AssertionError("unreachable")
