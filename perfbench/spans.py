"""Span tracing of one sweep pass, from outside the program.

Each entry of WRAPS replaces a public braidkit function at the module
attribute where its caller looks it up, so the span is recorded at the
layer boundary without editing the program.  A span is
[name, start, end, parent index]; spans stay in memory and the caller
writes them out after the pass.  The self time of a span is its duration
minus the durations of its direct children (one thread, so children never
overlap).  Counters come from the wrapped call's arguments and return
value and are exact: they must repeat across runs and seeds.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


def _det(counters, args, result):
    dim = len(args[0])
    counters["laurent.det_dim_max"] = max(counters["laurent.det_dim_max"], dim)


def _certificate(counters, args, result):
    counters["destab.moves"] += len(result.moves)
    counters["destab.rotations"] += result.rotations_used


def _lift(counters, args, result):
    bits = max((abs(x).bit_length() for row in result for x in row), default=0)
    key = "coverlift.lift_max_entry_bits"
    counters[key] = max(counters[key], bits)


# (module, attribute, span name, counter hook).  Two attributes may feed
# one span name: det_laurent is looked up in invariants (Burau and Seifert
# determinants) and in laurent itself (from charpoly).
WRAPS = (
    ("braidkit.sweep", "build_record", "sweep.record", None),
    ("braidkit.sweep", "build_family", "braid.family", None),
    ("braidkit.sweep", "destabilize_greedy", "destab.search", _certificate),
    ("braidkit.sweep", "replay_certificate", "destab.replay", None),
    ("braidkit.sweep", "alexander_from_burau", "invariants.alexander_burau", None),
    ("braidkit.invariants", "reduced_burau", "invariants.burau", None),
    ("braidkit.invariants", "det_laurent", "laurent.det", _det),
    ("braidkit.laurent", "det_laurent", "laurent.det", _det),
    ("braidkit.sweep", "lift_homological", "coverlift.lift", _lift),
    ("braidkit.sweep", "charpoly_int", "coverlift.charpoly", None),
    ("braidkit.coverlift", "charpoly", "laurent.charpoly", None),
    ("braidkit.pacert", "charpoly", "laurent.charpoly", None),
    ("braidkit.sweep", "seifert_from_monodromy", "coverlift.seifert_solve", None),
    ("braidkit.sweep", "alexander_from_seifert", "invariants.seifert_det", None),
    ("braidkit.sweep", "classify", "pacert.classify", None),
    ("braidkit.pacert", "mu_enclosure", "pacert.mu_enclosure", None),
    ("braidkit.sweep", "crosscheck_w0", "twobridge.crosscheck", None),
)

# span names the benchmark records itself, around its own calls
OWN_SPANS = ("report.build",)

SPAN_NAMES = tuple(dict.fromkeys([w[2] for w in WRAPS] + list(OWN_SPANS)))

# exact counters and their units; `<span>_calls` counts spans of that name
COUNTERS = {
    "laurent.det_calls": "count",
    "laurent.det_dim_max": "count",
    "pacert.mu_enclosure_calls": "count",
    "destab.moves": "count",
    "destab.rotations": "count",
    "coverlift.lift_max_entry_bits": "bits",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        saved = []
        try:
            for module_name, attr, name, hook in WRAPS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> dict:
        """Self seconds per span name and the exact counters."""
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for name, start, end, parent in self.spans:
            took = end - start
            self_s[name] += took
            calls[name] += 1
            if parent is not None:
                self_s[self.spans[parent][0]] -= took
        counters = {
            key: calls[key.removesuffix("_calls")]
            if key.endswith("_calls")
            else self.counters[key]
            for key in COUNTERS
        }
        return {"self_s": self_s, "counters": counters}
