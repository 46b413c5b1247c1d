"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. A saved sweep-example report passes the gate; the same report with one
   record's value edited, or one record's status edited, fails it.  Only
   the saved data is edited, never the program.
2. On every workload, traced passes under two seeds give different
   configs but identical digests, report sizes and exact counters.
3. Prints each workload's self-time shares and whether the stress claims
   in WORKLOADS.md hold at the current revision (informational).

Exits 1 if check 1 or 2 fails.  Takes about a minute.
"""

from __future__ import annotations

import json
import sys

from child import verdict
from run import OUT, WORKLOADS, failed_records, make_config, run_child

SEEDS = (1, 2)


def _canonical(document: dict) -> bytes:
    # same serialisation as braidkit.report.canonical_json
    return (json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n").encode()


def check_corruption() -> list[str]:
    workload = "sweep-example"
    OUT.mkdir(exist_ok=True)
    saved = OUT / "selftest-report.json"
    run_child(make_config(workload, 0), "--save", str(saved))
    problems = []
    if failed_records(verdict(saved.read_bytes()), workload) != 0:
        problems.append("the unedited saved report fails the gate")

    document = json.loads(saved.read_bytes())
    record = next(r for r in document["records"] if "alexander_burau" in r)
    record["alexander_burau"] = "[0,[1,-1]]"
    edited = verdict(_canonical(document))
    if failed_records(edited, workload) != WORKLOADS[workload]["records"]:
        problems.append("an edited polynomial was not detected")

    document = json.loads(saved.read_bytes())
    document["records"][0]["status"] = "refuted"
    edited = verdict(_canonical(document))
    if edited["not_verified"] != 1 or failed_records(edited, workload) == 0:
        problems.append("an edited status was not detected")
    return problems


def check_seeds(workload: str) -> tuple[list[str], dict]:
    configs = [make_config(workload, seed) for seed in SEEDS]
    passes = [run_child(config, "--trace") for config in configs]
    problems = []
    if configs[0] == configs[1]:
        problems.append(f"{workload}: seeds {SEEDS} give the same config")
    for key in ("digest", "report_bytes"):
        if passes[0][key] != passes[1][key]:
            problems.append(f"{workload}: {key} differs between seeds")
    if passes[0]["trace"]["counters"] != passes[1]["trace"]["counters"]:
        problems.append(f"{workload}: counters differ between seeds")
    for result in passes:
        if failed_records(result, workload):
            problems.append(f"{workload}: a traced pass failed the gate")
    return problems, passes[0]


def claims(traced: dict[str, dict]) -> list[tuple[str, bool]]:
    def share(workload, *names):
        result = traced[workload]
        return sum(result["trace"]["self_s"][n] for n in names) / result["wall_s"]

    example = traced["sweep-example"]["trace"]["self_s"]
    lift = traced["monodromy-lift"]["trace"]["self_s"]
    coverlift = [n for n in lift if n.startswith("coverlift.")]
    return [
        (
            "sweep-example: pacert.mu_enclosure has the largest self time",
            max(example, key=example.get) == "pacert.mu_enclosure",
        ),
        (
            "alexander-grid: invariants.burau + laurent.det > 50% of wall",
            share("alexander-grid", "invariants.burau", "laurent.det") > 0.5,
        ),
        (
            "monodromy-lift: coverlift.* > 50% of wall",
            share("monodromy-lift", *coverlift) > 0.5,
        ),
        (
            "monodromy-lift: pacert.* self time is zero",
            all(v == 0 for n, v in lift.items() if n.startswith("pacert.")),
        ),
    ]


def main() -> int:
    problems = check_corruption()
    print("corruption gate:", "ok" if not problems else "FAILED")
    traced = {}
    for workload in WORKLOADS:
        found, traced[workload] = check_seeds(workload)
        problems += found
        result = traced[workload]
        print(f"{workload}: seeds {SEEDS}:", "ok" if not found else "FAILED")
        print(f"  digest {result['digest']}  counters {result['trace']['counters']}")
        shares = sorted(
            result["trace"]["self_s"].items(), key=lambda item: -item[1]
        )
        print(
            "  self-time shares: "
            + ", ".join(f"{n} {v / result['wall_s']:.1%}" for n, v in shares if v > 0)
        )
    for claim, holds in claims(traced):
        print(f"claim: {claim}: {'holds' if holds else 'does not hold'}")
    for problem in problems:
        print("FAILED:", problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
