"""One sweep pass in a fresh interpreter, as `braidkit sweep` runs it.

Reads a sweep config from stdin and prints one JSON line.  Set-up is
everything up to a parsed config: interpreter start, importing braidkit
(and numpy through it) and parsing.  The timed pass then goes from the
parsed config to canonical report bytes through the public path
run_sweep -> build_report -> canonical_json.  Digesting the
timing-stripped report happens after the clock stops.

    python3 perfbench/child.py [--setup-only] [--trace] [--save PATH] < cfg

Times are time.monotonic(), which on Linux is one clock for every
process, so the parent can subtract its own spawn time.

Untraced passes run the host-speed probe (probe.py) before every record
and report each record's speed scale; `wall_s` leaves the probes out.
A set-up-only child probes PROBES times after set-up for its own scale.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext

import probe
from spans import Tracer

PROBES = 5


def verdict(report: bytes) -> dict:
    """Digest, record count and non-verified count of a canonical report."""
    records = json.loads(report)["records"]
    return {
        "digest": hashlib.sha256(report).hexdigest(),
        "records": len(records),
        "not_verified": sum(r.get("status") != "verified" for r in records),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save", help="write the timing-stripped report here")
    args = parser.parse_args()

    import numpy

    import braidkit
    from braidkit.report import build_report, canonical_json
    from braidkit.sweep import parse_config, run_sweep

    config = parse_config(sys.stdin.read())
    if config.parallelism != 1 or not config.timing:
        raise SystemExit("benchmark configs run serially with timing on")
    out: dict = {"braidkit": braidkit.__file__, "numpy": numpy.__version__}
    if args.setup_only:
        out["ready"] = time.monotonic()
        out["scale"] = probe.REF_S / statistics.median(
            probe.probe() for _ in range(PROBES)
        )
        print(json.dumps(out))
        return

    tracer = Tracer() if args.trace else None
    probes: list[float] = []
    wrap = tracer.installed() if tracer else probe.before_each_record(probes)
    with wrap:
        ready = time.monotonic()
        records = run_sweep(config)
        with tracer.span("report.build") if tracer else nullcontext():
            # the bytes `braidkit sweep` writes; producing them is timed work
            canonical_json(build_report(records, timing=True)).encode()
        done = time.monotonic()

    stripped = canonical_json(build_report(records, timing=False)).encode()
    if args.save:
        with open(args.save, "wb") as handle:
            handle.write(stripped)
    # keyed by grid point, so passes can be matched record by record
    keys = [f"{r['genus']}/{r['power']}/{r['variant']}" for r in records]
    out.update(verdict(stripped))
    out.update(
        ready=ready,
        wall_s=done - ready - sum(probes),
        report_bytes=len(stripped),
        record_s={key: r["seconds"] for key, r in zip(keys, records)},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if probes:
        # the serial sweep builds records in the order it returns them
        out["record_scale"] = dict(zip(keys, probe.scales(probes), strict=True))
        out["scale"] = probe.REF_S / statistics.median(probes)
    if tracer:
        out["trace"] = tracer.summary()
        out["spans"] = tracer.spans
    print(json.dumps(out))


if __name__ == "__main__":
    main()
