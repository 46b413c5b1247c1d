"""The benchmark's wrapped attributes still exist and still fire.

perfbench replaces braidkit functions by module attribute (its span table
`WRAPS` and the probe's wrapper on `sweep.build_record`); a renamed or
removed attribute stops every benchmark run, so it is caught here first.
The span table is read, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

from braidkit.sweep import CHECK_GROUPS, SweepConfig, run_sweep

# reduced_burau is no longer called by the Burau Alexander path, which runs
# the packed product on the two half-words, so its span stays empty
DEAD_SPANS = {"invariants.burau"}


def _spans_module():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_exists():
    spans = _spans_module()
    pairs = {(module, attr) for module, attr, _, _ in spans.WRAPS}
    pairs.add(("braidkit.sweep", "build_record"))  # probe.before_each_record
    for module_name, attr in sorted(pairs):
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)


def test_a_traced_sweep_records_every_live_span():
    spans = _spans_module()
    tracer = spans.Tracer()
    cfg = SweepConfig(
        genus=(1, 2),
        power=(0, 1),
        variants=("original", "enhanced"),
        checks=CHECK_GROUPS,
    )
    with tracer.installed():
        records = run_sweep(cfg)
    assert all(r["status"] == "verified" for r in records)
    recorded = {name for name, *_ in tracer.spans}
    wrapped = {name for _, _, name, _ in spans.WRAPS}
    assert wrapped - DEAD_SPANS <= recorded, wrapped - DEAD_SPANS - recorded
