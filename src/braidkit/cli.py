"""Command-line driver: a thin shell over the library.

Subcommands:

    family   print a family braid word in the signed-integer text format
    check    run one named verification and report its status
    sweep    walk a (genus, power, variant) grid from a config file
    emit     re-emit a JSON report as json, csv, or an aligned table

The library checks every input: `run_check` refuses an unknown check
name, `FamilySpec` an unknown variant, `SweepConfig` a bad config value,
each with a message.  Only `check` loads the check registry.

Exit codes (`report.exit_code_for`): 0 everything verified, 1 error,
refuted or a usage error, 2 a certifier returned inconclusive.  `--help`
exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

from .braid import family_braid, format_braid_text
from .report import EMITTERS, build_report, exit_code_for, validate_report
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
    fam.set_defaults(run=_cmd_family)
    fam.add_argument("--genus", type=int, required=True)
    fam.add_argument("--power", type=int, default=0)
    fam.add_argument("--variant", default="original")
    fam.add_argument(
        "--fixture",
        action="store_true",
        help="allow the sweep fixture stirring word for enhanced genus != 2",
    )
    fam.add_argument("--json", action="store_true", dest="as_json")

    chk = sub.add_parser("check", help="run one named verification")
    chk.set_defaults(run=_cmd_check)
    chk.add_argument("name", help="a registered check; an unknown name lists them")
    chk.add_argument("--genus", type=int)
    chk.add_argument("--power", type=int)
    chk.add_argument("--variant")
    chk.add_argument("--word", help="braid text: strand count then letters")
    chk.add_argument("--twist-word", help='two-twist word, e.g. "A B-"')
    chk.add_argument("--fixture", action="store_true")
    chk.add_argument("--json", action="store_true", dest="as_json")

    swp = sub.add_parser("sweep", help="run a parameter sweep")
    swp.set_defaults(run=_cmd_sweep)
    swp.add_argument("--config", required=True)
    swp.add_argument("--output", help="override the config output path")
    swp.add_argument("--parallelism", type=int)

    emt = sub.add_parser("emit", help="re-emit a report")
    emt.set_defaults(run=_cmd_emit)
    emt.add_argument("--input", required=True)
    emt.add_argument("--format", choices=EMITTERS, default="json")
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
    # the registry, and Garside with it, is loaded for this subcommand only
    from .checks import CheckParamError, run_check

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
    """A context giving the report's stream: the file at path, or stdout
    (left open) when path is empty.

    Returns None, after printing the reason, when the file cannot be opened.
    A NUL byte in the path, which a config file can hold, is a ValueError.
    """
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


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
    with handle as stream:
        records = run_sweep(config)
        EMITTERS[config.format](build_report(records, timing=config.timing), stream)
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
    with handle as stream:
        EMITTERS[args.format](document, stream)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here would read as
        # inconclusive; it has printed the usage and the reason already
        return EXIT_OK if not exc.code else EXIT_ERROR
    return args.run(args)
