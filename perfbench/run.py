"""braidkit sweep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a braidkit source checkout.  Each workload is a
(genus, power, variant, checks) grid written out as a sweep config; the
seed only permutes the order of the genus and power lists, and canonical
reports are sorted, so the expected report bytes do not depend on it.

Every pass is a fresh `python3 perfbench/child.py` process running the
sweep serially, one child at a time, so no in-program cache carries over
between passes (users pay it on every `braidkit sweep`).  Passes repeat
until --seconds have gone by, at least one.  Each pass is checked: every
record must be `verified` and the sha256 of the timing-stripped canonical
report must equal the digest pinned below.

Times are reported at the reference host speed.  On a shared host the
speed of a core drifts by a third and more with the load of other
tenants; untraced children time a fixed probe (probe.py) before every
record and after set-up, and each time is scaled by REF_S over the probes
around it.  Each record then takes its median over the run's passes.
The plain times are in the metadata line.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass
and then traced passes, and prints the per-layer metrics (self time per
span, exact counters, tracing overhead).  The last stdout line is the
result object; the line before it is run metadata.  See WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNTERS, SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# set-up-only children before every pass, one set-up sample each
SETUP_EACH = 1
# a whole run must end within 180 s
RUN_LIMIT_S = 170

BOTH = ("original", "enhanced")
WORKLOADS = {
    "sweep-example": {
        "genus": range(1, 5),
        "power": range(0, 7),
        "variants": BOTH,
        "checks": ("unknot", "alexander", "fibred", "pa", "twobridge"),
        "records": 56,
        "digest": "28cf7d3160018539214e0f983c7090ba871a144e6e6e46a1e8772ab8a5f4c4ef",
    },
    "alexander-grid": {
        "genus": range(1, 7),
        "power": range(0, 11),
        "variants": BOTH,
        "checks": ("unknot", "alexander"),
        "records": 132,
        "digest": "ade62beed238a143912ba0c107d8eccf1727bbe3157cf69c28693aabb55b3b07",
    },
    "monodromy-lift": {
        "genus": range(2, 11),
        "power": range(0, 11),
        "variants": ("original",),
        "checks": ("fibred",),
        "records": 99,
        "digest": "964ee191a81bc6f9523f5747e3e48d6f425eb6f3bb216d51776d40a5e67a2909",
    },
}


def make_config(workload: str, seed: int) -> str:
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    genus, power = list(spec["genus"]), list(spec["power"])
    rng.shuffle(genus)
    rng.shuffle(power)
    lines = [
        "genus = " + ", ".join(map(str, genus)),
        "power = " + ", ".join(map(str, power)),
        "variant = " + ", ".join(spec["variants"]),
        "checks = " + ", ".join(spec["checks"]),
        "parallelism = 1",
        "timing = on",
        "format = json",
    ]
    return "\n".join(lines) + "\n"


def run_child(config: str, *flags: str, deadline: float | None = None) -> dict:
    """Run one child to completion and return its JSON, with setup_s added.

    A child still running at the deadline is killed (TimeoutExpired)."""
    timeout = RUN_LIMIT_S if deadline is None else deadline - time.monotonic()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # numpy's BLAS would otherwise start a thread pool at import
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    command = [sys.executable, str(HERE / "child.py"), *flags]
    spawned = time.monotonic()
    proc = subprocess.run(
        command,
        input=config,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {flags} failed:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if Path(out["braidkit"]).resolve().parent != ROOT / "src" / "braidkit":
        raise RuntimeError(f"child imported braidkit from {out['braidkit']}")
    out["setup_s"] = out["ready"] - spawned
    return out


def failed_records(result: dict, workload: str) -> int:
    """Records of one pass that count as failed: all of them when the
    report digest differs from the pinned one, else the non-verified."""
    spec = WORKLOADS[workload]
    if result["digest"] != spec["digest"]:
        return spec["records"]
    return result["not_verified"]


def run_passes(
    config: str, until: float, deadline: float, *flags: str, setup_each: int = 0
) -> tuple[list[dict], list[float]]:
    """Passes until the monotonic time `until`, at least one.  Before each
    pass, `setup_each` set-up-only children add set-up samples, so they
    spread over the run like the passes do."""
    passes: list[dict] = []
    setups: list[dict] = []
    while not passes or time.monotonic() < until:
        for _ in range(setup_each):
            setups.append(run_child(config, "--setup-only", deadline=deadline))
        passes.append(run_child(config, *flags, deadline=deadline))
    return passes, setups


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def at_reference_speed(passes: list[dict]) -> tuple[list[float], float]:
    """Each record's median scaled time over the passes, and the median
    scaled rest of a pass outside its records (the sweep loop and the
    report bytes)."""
    med = statistics.median
    records = [
        med(p["record_s"][key] * p["record_scale"][key] for p in passes)
        for key in passes[0]["record_s"]
    ]
    rest = med(
        (p["wall_s"] - sum(p["record_s"].values())) * p["scale"] for p in passes
    )
    return records, rest


def end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    records, rest = at_reference_speed(passes)
    deciles = statistics.quantiles(records, n=10, method="inclusive")
    setup_s = statistics.median(c["setup_s"] * c["scale"] for c in setups)
    return {
        "wall_s": _metric(sum(records) + rest, "s"),
        "record_p50_s": _metric(deciles[4], "s"),
        "record_p90_s": _metric(deciles[8], "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            statistics.median(p["peak_rss_mb"] for p in passes), "MB"
        ),
    }


def per_layer(reference: dict, traced: list[dict], error_rate: float) -> dict:
    """Self seconds per span name (median over traced passes), exact
    counters, tracing overhead and the run's error rate."""
    metrics = {}
    for name in SPAN_NAMES:
        value = statistics.median(p["trace"]["self_s"][name] for p in traced)
        metrics[name + "_s"] = _metric(value, "s")
    for name, unit in COUNTERS.items():
        metrics[name] = _metric(traced[0]["trace"]["counters"][name], unit)
    metrics["report.bytes"] = _metric(traced[0]["report_bytes"], "bytes")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(traced_wall - reference["wall_s"], "s")
    metrics["error_rate"] = _metric(error_rate, "ratio")
    return metrics


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, passes: list[dict]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        # plain pass times, and the host speed scale of each untraced pass
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "pass_scale": [round(p["scale"], 4) for p in passes if "scale" in p],
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "revision": git_revision(),
    }


def measure(args, config: str) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    # warm-up: the first child in a fresh checkout also compiles bytecode
    run_child(config, "--setup-only", deadline=deadline)
    until = time.monotonic() + args.seconds
    counters_repeat = True
    if args.trace:
        reference = run_child(config, deadline=deadline)
        traced, _ = run_passes(config, until, deadline, "--trace")
        passes = [reference] + traced
        counters = [p["trace"]["counters"] for p in traced]
        counters_repeat = all(c == counters[0] for c in counters)
    else:
        passes, setups = run_passes(config, until, deadline, setup_each=SETUP_EACH)

    attempted = WORKLOADS[args.workload]["records"] * len(passes)
    failed = sum(failed_records(p, args.workload) for p in passes)
    if args.trace:
        metrics = per_layer(reference, traced, failed / attempted)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(traced[-1]["spans"]) + "\n")
    else:
        metrics = end_to_end(passes, setups)
    result = {
        "correct": failed == 0 and counters_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, metadata(args, passes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "braidkit" / "__init__.py").is_file():
        print(f"error: no braidkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    config = make_config(args.workload, args.seed)
    try:
        result, meta = measure(args, config)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
