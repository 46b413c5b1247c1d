"""Check registry, report emission, sweep configs, and the CLI driver."""

import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from braidkit.checks import CheckParamError, applies_at, check_names, run_check
from braidkit import checks, cli, sweep
from braidkit.braid import FamilyError
from braidkit.coverlift import ConventionError
from braidkit.destab import MoveError
from braidkit.cli import main
from braidkit.report import (
    CONVENTION_FINGERPRINT,
    ReportFormatError,
    SCHEMA_VERSION,
    STATUS_EXIT,
    build_report,
    canonical_json,
    emit_csv,
    emit_json,
    emit_table,
    exit_code_for,
    validate_report,
)
from braidkit.sweep import ConfigError, SweepConfig, parse_config, run_sweep

ALL_CHECKS = (
    "alexander-module",
    "alexander-trivial",
    "fibre-genus",
    "filling",
    "growth-proxy",
    "homology-invariance",
    "pa",
    "periodic-identity",
    "twobridge-crosscheck",
    "unknot",
)


# -- registry ------------------------------------------------------------


def test_registry_names():
    assert check_names() == ALL_CHECKS


def test_every_check_verifies_at_genus_two():
    for name in check_names():
        record = run_check(name, {"genus": 2})
        assert record["status"] == "verified", (name, record)
        assert record["check"] == name


def test_unknown_check_raises():
    with pytest.raises(CheckParamError):
        run_check("nope", {})


def test_unknot_check_on_words():
    good = run_check("unknot", {"word": "4 1 2 3"})
    assert good["status"] == "verified"
    stuck = run_check("unknot", {"word": "2 1 1 1"})
    assert stuck["status"] == "inconclusive"
    broken = run_check("unknot", {"word": "not a braid"})
    assert broken["status"] == "error"
    link = run_check("unknot", {"word": "3 1"})
    assert link["status"] == "error"


def test_enhanced_needs_fixture_away_from_two():
    rec = run_check("unknot", {"genus": 3, "variant": "enhanced"})
    assert rec["status"] == "error"
    rec = run_check(
        "unknot", {"genus": 3, "variant": "enhanced", "phi_fixture": True}
    )
    assert rec["status"] == "verified"
    assert rec.get("phi_fixture") is True


def test_genus_two_only_checks():
    for name in ("homology-invariance", "alexander-module"):
        assert run_check(name, {"genus": 3})["status"] == "error"
        assert run_check(name, {"genus": 2})["status"] == "verified"


def test_genus_limits_are_declared_in_the_registry():
    # run_check refuses and verify_all skips from the same declaration
    assert set(checks.GENERA) == {
        "alexander-module",
        "growth-proxy",
        "homology-invariance",
    }
    assert [g for g in (1, 2, 3) if applies_at("homology-invariance", g)] == [2]
    assert [g for g in (1, 2, 3) if applies_at("growth-proxy", g)] == [2, 3]
    assert all(applies_at("unknot", g) for g in (1, 2, 7))
    for name, (_, refusal) in checks.GENERA.items():
        for genus in (1, 3):
            if not applies_at(name, genus):
                record = run_check(name, {"genus": genus})
                assert record == {"status": "error", "message": refusal, "check": name}


@pytest.mark.parametrize(
    "name, params",
    [
        ("unknot", {"genus": 2.7, "power": 1}),
        ("unknot", {"genus": 2, "power": 1.9}),
        ("unknot", {"genus": [2]}),
        ("unknot", {"genus": "two"}),
        ("homology-invariance", {"genus": 2.5}),
        ("growth-proxy", {"genus": 2, "power_lo": 2.5}),
        ("growth-proxy", {"genus": 2, "power_hi": [10]}),
        ("unknot", {"genus": True}),
        ("unknot", {"genus": 2, "power": False}),
        ("growth-proxy", {"genus": 2, "power_lo": True}),
    ],
)
def test_non_integer_check_parameters_are_errors(name, params):
    # nothing is truncated, and nothing escapes as a traceback
    record = run_check(name, params)
    assert record["status"] == "error"
    assert "must be an integer" in record["message"]


@pytest.mark.parametrize(
    "name, params",
    [
        ("unknot", {"word": 5}),
        ("unknot", {"word": [3, 1, 2]}),
        ("unknot", {"word": b"3 1 2"}),
        ("alexander-trivial", {"word": 2.5}),
        ("pa", {"genus": 2, "twist_word": 5}),
        ("pa", {"genus": 2, "twist_word": ["A", "B-"]}),
        ("pa", {"genus": 2, "twist_word": b"A B-"}),
    ],
)
def test_non_text_words_are_errors(name, params):
    record = run_check(name, params)
    assert record["status"] == "error"
    assert "must be" in record["message"]


@pytest.mark.parametrize(
    "name, params",
    [
        ("unknot", [1, 2]),
        ("unknot", "genus"),
        ("unknot", [("genus", 2)]),
        ("pa", 2),
        ("homology-invariance", ("genus",)),
    ],
)
def test_non_mapping_check_parameters_are_errors(name, params):
    # dict() of these raises TypeError or ValueError, or, for a list of
    # pairs, silently builds a mapping; none may pass
    record = run_check(name, params)
    assert record["status"] == "error"
    assert record["check"] == name
    assert "must be a mapping" in record["message"]


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [True]])
def test_phi_fixture_must_be_a_boolean(flag):
    params = {"genus": 3, "variant": "enhanced", "phi_fixture": flag}
    record = run_check("unknot", params)
    assert record["status"] == "error"
    assert "phi_fixture must be true or false" in record["message"]
    params["phi_fixture"] = False
    assert run_check("unknot", params)["status"] == "error"  # no fixture


def test_integer_string_check_parameters_are_accepted():
    record = run_check("unknot", {"genus": "2", "power": "1"})
    assert record["status"] == "verified"
    assert (record["genus"], record["power"]) == (2, 1)
    record = run_check("growth-proxy", {"genus": "2", "power_lo": "2", "power_hi": "4"})
    assert record["status"] == "verified"
    assert record["powers"] == [2, 4]


def test_growth_check_rejects_genus_one():
    # empty stirring word at genus 1, so every power gives the same braid
    rec = run_check("growth-proxy", {"genus": 1})
    assert rec["status"] == "error"
    assert "constant" in rec["message"]
    assert run_check("growth-proxy", {"genus": 2})["status"] == "verified"


def test_pa_check_fields():
    rec = run_check("pa", {"genus": 2})
    assert rec["verdict"] == "pseudo-anosov"
    assert abs(rec["dilatation"] - 4.390256884515715) < 1e-9
    rec = run_check("pa", {"genus": 2, "twist_word": "A B"})
    assert rec["verdict"] == "elliptic"
    assert rec["status"] == "refuted"


def test_exit_codes():
    assert STATUS_EXIT == {
        "verified": 0,
        "refuted": 1,
        "error": 1,
        "inconclusive": 2,
    }
    assert exit_code_for([{"status": "verified"}]) == 0
    assert exit_code_for([{"status": "verified"}, {"status": "inconclusive"}]) == 2
    assert exit_code_for([{"status": "inconclusive"}, {"status": "error"}]) == 1
    assert exit_code_for([]) == 0


# -- reports -------------------------------------------------------------


def sample_records():
    return [
        run_check("unknot", {"genus": 2, "power": 1}),
        run_check("alexander-trivial", {"genus": 2, "power": 1}),
        run_check("pa", {"genus": 2}),
    ]


def test_build_report_shape():
    doc = build_report(sample_records())
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["fingerprint"] == CONVENTION_FINGERPRINT
    validate_report(doc)


def test_report_sorting_and_timing_strip():
    records = [
        {"genus": 3, "power": 0, "variant": "original", "status": "verified", "seconds": 1.0},
        {"genus": 2, "power": 5, "variant": "original", "status": "verified", "seconds": 2.0},
        {"genus": 2, "power": 0, "variant": "enhanced", "status": "verified"},
    ]
    doc = build_report(records)
    got = [(r["genus"], r["power"]) for r in doc["records"]]
    assert got == [(2, 0), (2, 5), (3, 0)]
    assert all("seconds" not in r for r in doc["records"])
    kept = build_report(records, timing=True)
    assert any("seconds" in r for r in kept["records"])


def test_canonical_json_is_stable():
    doc = build_report(sample_records())
    a = canonical_json(doc)
    b = canonical_json(json.loads(a))
    assert a == b
    assert a.endswith("\n")
    assert ": " not in a  # minimal separators


def test_validate_report_rejects_malformed():
    with pytest.raises(ReportFormatError):
        validate_report([])
    with pytest.raises(ReportFormatError):
        validate_report({"schema_version": SCHEMA_VERSION})
    doc = build_report([{"status": "verified"}])
    doc["records"][0]["status"] = "maybe"
    with pytest.raises(ReportFormatError):
        validate_report(doc)
    doc = build_report([{"status": "verified"}])
    doc["schema_version"] = 99
    with pytest.raises(ReportFormatError):
        validate_report(doc)


def test_emit_json_round_trip():
    doc = build_report(sample_records())
    buf = io.StringIO()
    emit_json(doc, buf)
    assert json.loads(buf.getvalue()) == doc


def test_emit_csv_polynomials_round_trip():
    doc = build_report(
        [
            {
                "genus": 2,
                "power": 0,
                "variant": "original",
                "alexander_fibred": "0|1 -7 13 -7 1",
                "status": "verified",
            }
        ]
    )
    buf = io.StringIO()
    emit_csv(doc, buf)
    lines = buf.getvalue().strip().split("\n")
    header = lines[0].split(",")
    row = next(csv_row for csv_row in _csv_rows(buf.getvalue()))
    cell = row[header.index("alexander_fibred")]
    assert cell == "0|1 -7 13 -7 1"


def _csv_rows(text):
    import csv as _csv

    reader = _csv.reader(io.StringIO(text))
    next(reader)  # header
    yield from reader


def test_emit_table_alignment():
    doc = build_report(sample_records())
    buf = io.StringIO()
    emit_table(doc, buf)
    out = buf.getvalue()
    assert "status" in out.splitlines()[0]
    assert "verified" in out


# -- sweep configs -------------------------------------------------------


GOOD_CONFIG = """
# comment lines and blanks are ignored

genus = 2..3
power = 0..1
variant = original, enhanced
checks = unknot, alexander
parallelism = 2
"""


def test_parse_config():
    cfg = parse_config(GOOD_CONFIG)
    assert cfg.genus == (2, 3)
    assert cfg.power == (0, 1)
    assert cfg.variants == ("original", "enhanced")
    assert cfg.parallelism == 2


def test_parse_config_single_values_and_aliases():
    cfg = parse_config("genus = 2\npower = 0\nchecks = pa, fibre-genus\n")
    assert cfg.genus == (2,)
    assert cfg.power == (0,)
    assert "pa" in cfg.checks
    # a library caller's config resolves the aliases as a config file does
    assert cfg == SweepConfig(genus=(2,), power=(0,), checks=("pa", "fibre-genus"))
    assert cfg.checks == ("pa", "fibred")


def test_parse_config_drops_duplicate_values():
    # a value named twice is one grid point, as genus, power and checks are
    cfg = parse_config(
        "genus = 2, 2\npower = 0, 0\nvariant = original, original\n"
        "checks = pa, pa\n"
    )
    assert (cfg.genus, cfg.power, cfg.variants) == ((2,), (0,), ("original",))
    assert cfg.checks == ("pa",)
    assert len(run_sweep(cfg)) == 1
    # the same in the library, where an alias and its group are one name
    cfg = SweepConfig(genus=(2, 2), power=(0,), checks=("fibre-genus", "fibred"))
    assert (cfg.genus, cfg.checks) == ((2,), ("fibred",))


@pytest.mark.parametrize(
    "name", ["growth-proxy", "homology-invariance", "alexander-module"]
)
def test_registry_checks_without_a_sweep_group_are_refused(
    name, tmp_path, capsys
):
    # no sweep column group evaluates these claims, so a sweep must not
    # report them verified; the message points to the registry check
    text = f"genus = 1\npower = 0\nchecks = pa, {name}\n"
    with pytest.raises(ConfigError, match=f"braidkit check {name}"):
        parse_config(text)
    with pytest.raises(ConfigError, match=f"braidkit check {name}"):
        SweepConfig(genus=(1,), power=(0,), checks=(name,))
    config = tmp_path / "alias.cfg"
    config.write_text(text)
    assert main(["sweep", "--config", str(config)]) == 1
    assert f"`braidkit check {name}`" in capsys.readouterr().err


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config("power = 0..3\n")  # genus missing
    with pytest.raises(ConfigError):
        parse_config("genus = 2..1\npower = 0\n")  # empty range
    with pytest.raises(ConfigError):
        parse_config("genus = 2\npower = 0\nparallelism = 0\n")
    with pytest.raises(ConfigError):
        parse_config("genus = 2\npower = 0\nmystery = 1\n")
    with pytest.raises(ConfigError):
        parse_config("genus = 2\ngenus = 3\npower = 0\n")
    with pytest.raises(ConfigError):
        parse_config("genus two\npower = 0\n")
    with pytest.raises(ConfigError):
        parse_config("genus = 2\npower = 0\ntiming = sometimes\n")


@pytest.mark.parametrize("key", ["genus", "power", "parallelism"])
def test_non_integer_config_value_names_the_key(key, tmp_path, capsys):
    values = {"genus": "2", "power": "0", "parallelism": "1", key: "x"}
    text = "".join(f"{k} = {v}\n" for k, v in values.items())
    with pytest.raises(ConfigError, match=key):
        parse_config(text)
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    assert main(["sweep", "--config", str(config)]) == 1
    assert f"config error: {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields",
    [
        {"genus": (2.0,), "power": (0,)},
        {"genus": (2,), "power": (0, 1.5)},
        {"genus": (2,), "power": (0,), "parallelism": 2.0},
    ],
)
def test_sweep_config_takes_integers_only(fields):
    # a float genus used to pass the config and abort run_sweep with a TypeError
    with pytest.raises(ConfigError, match="must be integers"):
        SweepConfig(**fields)


@pytest.mark.parametrize("value", ["off", 0, None])
def test_sweep_config_timing_is_true_or_false(value):
    # the string "off" used to switch timing on, seconds and all
    with pytest.raises(ConfigError, match=f"timing must be True or False, got {value!r}"):
        SweepConfig(genus=(1,), power=(0,), timing=value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("variants", "original"),
        ("checks", "pa"),
        ("variants", ["original", "enhanced"]),
        ("variants", 5),
        ("checks", None),
    ],
)
def test_sweep_config_name_fields_take_sequences_of_names(field, value):
    # a string was read letter by letter ("unknown variant 'o'"), a
    # non-iterable escaped as a raw TypeError, and a list passed but left
    # the frozen config unhashable
    fields = {"genus": (2,), "power": (0,), field: value}
    if not isinstance(value, list):
        with pytest.raises(ConfigError, match=f"^{field}: .*{value!r}"):
            SweepConfig(**fields)
    else:
        cfg = SweepConfig(**fields)
        assert getattr(cfg, field) == tuple(value)
        assert hash(cfg) == hash(SweepConfig(**{**fields, field: tuple(value)}))


def test_sweep_cardinality():
    cfg = SweepConfig(
        genus=(2, 3, 4),
        power=tuple(range(6)),
        variants=("original", "enhanced"),
        checks=("unknot",),
        parallelism=1,
    )
    records = run_sweep(cfg)
    per_variant = [r for r in records if r["variant"] == "original"]
    assert len(per_variant) == 18
    assert len(records) == 36
    assert all(r["status"] == "verified" for r in records)


def test_sweep_determinism_across_parallelism():
    base = dict(
        genus=(2,),
        power=(0, 1),
        variants=("original", "enhanced"),
        checks=("unknot", "alexander"),
    )
    seq = run_sweep(SweepConfig(parallelism=1, **base))
    par = run_sweep(SweepConfig(parallelism=2, **base))
    assert canonical_json(build_report(seq)) == canonical_json(
        build_report(par)
    )


def test_sweep_asks_for_no_more_workers_than_tasks_and_cores(monkeypatch):
    # a process pool starts all its workers at the first submit; this fake
    # records the request and maps in process, so no process is started
    import concurrent.futures

    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = SweepConfig(genus=(1,), power=(0, 1, 2), checks=("unknot",), parallelism=5000)
    assert len(run_sweep(cfg)) == 3
    assert all(w <= min(3, os.cpu_count() or 1) for w in requested)


def test_sweep_canonical_bytes_are_pinned():
    # every check group over genus 1..3, power 0..2, both variants; a
    # refactor of any layer must leave these bytes unchanged
    cfg = SweepConfig(
        genus=(1, 2, 3), power=(0, 1, 2), variants=("original", "enhanced")
    )
    records = run_sweep(cfg)
    assert len(records) == 18
    digest = hashlib.sha256(
        canonical_json(build_report(records)).encode("utf-8")
    ).hexdigest()
    assert (
        digest
        == "ac8875544dcf32423feada814df67cc1d5cf7bdd6cadd07798f5caefa048a502"
    )


def test_fibred_sweep_canonical_bytes_are_pinned():
    # the fibred group over genus 2..10, power 0..10: 20x20 big-integer
    # lifts, Seifert solves and determinants; digest taken before the
    # integer Seifert solve and the row-l1 determinant bound
    cfg = SweepConfig(
        genus=tuple(range(2, 11)), power=tuple(range(11)), checks=("fibred",)
    )
    records = run_sweep(cfg)
    assert len(records) == 99
    assert all(r["status"] == "verified" for r in records)
    digest = hashlib.sha256(
        canonical_json(build_report(records)).encode("utf-8")
    ).hexdigest()
    assert (
        digest
        == "964ee191a81bc6f9523f5747e3e48d6f425eb6f3bb216d51776d40a5e67a2909"
    )


def test_acceptance_grid_canonical_bytes_are_pinned():
    # genus 1..6, power 0..10, both variants, unknot and alexander: it holds
    # the longest chunked Burau words (genus 2, enhanced, power 10 has 724
    # letters); perfbench pins the same digest for its alexander-grid
    cfg = SweepConfig(
        genus=tuple(range(1, 7)),
        power=tuple(range(11)),
        variants=("original", "enhanced"),
        checks=("unknot", "alexander"),
    )
    records = run_sweep(cfg)
    assert len(records) == 132
    assert all(r["status"] == "verified" for r in records)
    digest = hashlib.sha256(
        canonical_json(build_report(records)).encode("utf-8")
    ).hexdigest()
    assert (
        digest
        == "ade62beed238a143912ba0c107d8eccf1727bbe3157cf69c28693aabb55b3b07"
    )


def test_docs_example_sweep_matches_the_benchmark_digest():
    # docs/sweep_example.cfg in process, serial and without its output
    # file; perfbench pins the same digest for its sweep-example workload,
    # which holds the fixture records at genus 3 and 4
    path = Path(__file__).resolve().parent.parent / "docs" / "sweep_example.cfg"
    cfg = parse_config(path.read_text(encoding="utf-8"))
    cfg = dataclasses.replace(cfg, parallelism=1, output=None)
    records = run_sweep(cfg)
    assert len(records) == 56
    digest = hashlib.sha256(
        canonical_json(build_report(records)).encode("utf-8")
    ).hexdigest()
    assert (
        digest
        == "28cf7d3160018539214e0f983c7090ba871a144e6e6e46a1e8772ab8a5f4c4ef"
    )


def test_every_record_key_is_declared_in_the_schema():
    # plain json: every key a record can carry is a declared property
    root = Path(__file__).resolve().parent.parent / "docs"
    schema = json.loads((root / "report_schema.json").read_text("utf-8"))
    record_schema = schema["$defs"]["record"]
    declared = set(record_schema["properties"])
    assert set(record_schema["properties"]["check"]["enum"]) == set(ALL_CHECKS)
    cfg = parse_config((root / "sweep_example.cfg").read_text("utf-8"))
    records = run_sweep(dataclasses.replace(cfg, parallelism=1, output=None))
    records += [run_check(name, {"genus": 2}) for name in ALL_CHECKS]
    error = run_check("unknot", {"word": "3 1"})
    stuck = run_check("unknot", {"word": "2 1 1 1"})
    assert (error["status"], stuck["status"]) == ("error", "inconclusive")
    assert "message" in error and "stuck" in stuck
    records += [error, stuck]
    for record in records:
        assert set(record) <= declared, (set(record) - declared, record)


def test_sweep_embeds_failures_instead_of_dropping():
    # enhanced at genus 3 without a fixture cannot be built; the sweep
    # fixture fills it in, so flag presence is the observable
    cfg = SweepConfig(
        genus=(3,),
        power=(0,),
        variants=("enhanced",),
        checks=("unknot",),
        parallelism=1,
    )
    records = run_sweep(cfg)
    assert len(records) == 1
    assert records[0]["phi_fixture"] is True


def _fail_classify_at_genus_two(monkeypatch, error):
    real_classify = sweep.classify

    def classify_failing_at_genus_two(word, pair):
        if pair.size_a == 2:
            raise error("injected failure")
        return real_classify(word, pair)

    monkeypatch.setattr(sweep, "classify", classify_failing_at_genus_two)


@pytest.mark.parametrize(
    "error", [MoveError, ConventionError, FamilyError, ValueError]
)
def test_sweep_turns_a_failing_point_into_an_error_record(
    monkeypatch, tmp_path, error
):
    _fail_classify_at_genus_two(monkeypatch, error)
    cfg = SweepConfig(genus=(1, 2, 3), power=(0, 1), checks=("pa",))
    records = run_sweep(cfg)
    assert [(r["genus"], r["power"]) for r in records] == [
        (g, n) for g in (1, 2, 3) for n in (0, 1)
    ]
    for record in records:
        if record["genus"] == 2:
            assert record == {
                "genus": 2,
                "power": record["power"],
                "variant": "original",
                "status": "error",
                "message": "injected failure",
            }
        else:
            assert record["status"] == "verified"
            assert record["pa_verdict"] == "pseudo-anosov"
    validate_report(build_report(records))
    config = tmp_path / "sweep.cfg"
    config.write_text("genus = 1..3\npower = 0..1\nchecks = pa\n")
    out = tmp_path / "report.json"
    assert main(["sweep", "--config", str(config), "--output", str(out)]) == 1
    assert json.loads(out.read_text())["records"][2]["status"] == "error"


def test_check_and_sweep_give_a_margin_failure_the_same_status(monkeypatch):
    # a ValueError from classify is an error record in `check pa` and in
    # the sweep alike
    def failure(word, pair):
        raise ValueError("injected failure")

    monkeypatch.setattr(checks, "classify", failure)
    monkeypatch.setattr(sweep, "classify", failure)
    checked = run_check("pa", {"genus": 2})
    (swept,) = run_sweep(SweepConfig(genus=(2,), power=(0,), checks=("pa",)))
    assert checked["status"] == swept["status"] == "error"
    assert checked["message"] == swept["message"] == "injected failure"


# -- CLI -----------------------------------------------------------------


def test_cli_family(capsys):
    assert main(["family", "--genus", "2", "--power", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "5 4 -3 2 2 -3 -1 3 -2"
    argv = ["family", "--genus", "3", "--power", "1", "--variant", "enhanced"]
    assert main(argv + ["--fixture"]) == 0
    assert capsys.readouterr().out.strip() == "7 6 5 4 3 2 2 -3 1 3 -2"


def test_python_dash_m_runs_the_cli():
    # a source checkout, not installed, has the command line as python -m
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "braidkit", "family", "--genus", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (result.returncode, result.stdout) == (0, "3 2 -1\n"), result.stderr


def test_cli_family_json(capsys):
    assert main(["family", "--genus", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["word"] == "3 2 -1"
    assert payload["strands"] == 3


def test_cli_family_error(capsys):
    assert main(["family", "--genus", "3", "--variant", "enhanced"]) == 1
    assert "--fixture" in capsys.readouterr().err


def test_cli_check_exit_codes(capsys):
    assert main(["check", "unknot", "--genus", "2", "--power", "3"]) == 0
    assert main(["check", "unknot", "--word", "2 1 1 1"]) == 2
    assert main(["check", "homology-invariance", "--genus", "3"]) == 1
    assert main(["check", "unknot", "--genus", "3", "--variant", "enhanced"]) == 1
    capsys.readouterr()


def test_cli_check_json(capsys):
    assert main(["check", "pa", "--genus", "2", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "pseudo-anosov"


def test_cli_check_rejects_unknown_name(capsys):
    # the registry refuses the name and lists the known ones; exit 2 would
    # read as inconclusive
    assert main(["check", "mystery-check"]) == 1
    err = capsys.readouterr().err
    assert "unknown check 'mystery-check'; known: " + ", ".join(ALL_CHECKS) in err


def test_cli_usage_errors_exit_one_and_help_exits_zero(capsys):
    assert main(["family", "--genus", "x"]) == 1
    assert "invalid int value: 'x'" in capsys.readouterr().err
    assert main(["family", "--genus", "2", "--variant", "bogus"]) == 1
    assert "variant must be one of ('original', 'enhanced')" in capsys.readouterr().err
    # `FamilySpec` alone validates the variant, so `check` refuses it alike
    assert main(["check", "unknot", "--genus", "2", "--variant", "bogus"]) == 1
    assert "variant must be one of ('original', 'enhanced')" in capsys.readouterr().out
    assert main(["emit", "--input", "r.json", "--format", "xml"]) == 1
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    assert main([]) == 1
    assert "required" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert main(["check", "--help"]) == 0
    assert "usage: braidkit check" in capsys.readouterr().out


def test_cli_sweep_and_emit(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    report = tmp_path / "report.json"
    config.write_text(
        "genus = 2..2\npower = 0..1\nvariant = original\n"
        f"checks = unknot, alexander\noutput = {report}\n"
    )
    assert main(["sweep", "--config", str(config)]) == 0
    err = capsys.readouterr().err
    assert "records=2" in err
    document = json.loads(report.read_text())
    validate_report(document)

    assert main(["emit", "--input", str(report), "--format", "table"]) == 0
    table = capsys.readouterr().out
    assert "status" in table

    assert main(["emit", "--input", str(report), "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert "alexander_burau" in csv_text.splitlines()[0]

    out_json = tmp_path / "copy.json"
    assert (
        main(
            [
                "emit",
                "--input",
                str(report),
                "--format",
                "json",
                "--output",
                str(out_json),
            ]
        )
        == 0
    )
    assert out_json.read_text() == report.read_text()


def test_cli_sweep_bad_config(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("power = 1\n")
    assert main(["sweep", "--config", str(config)]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 1
    capsys.readouterr()
    config.write_text("genus = 2\npower = 0\n")
    assert main(["sweep", "--config", str(config), "--parallelism", "0"]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_sweep_unwritable_output_fails_before_compute(
    tmp_path, capsys, monkeypatch
):
    config = tmp_path / "sweep.cfg"
    config.write_text("genus = 2\npower = 0\nchecks = unknot\n")

    def no_compute(config):
        raise AssertionError("sweep ran although its output cannot be written")

    monkeypatch.setattr(cli, "run_sweep", no_compute)
    target = tmp_path / "missing" / "x.json"
    assert main(["sweep", "--config", str(config), "--output", str(target)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_emit_unwritable_output(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(canonical_json(build_report(sample_records())))
    target = tmp_path / "missing" / "y.json"
    assert main(["emit", "--input", str(report), "--output", str(target)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_emit_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["emit", "--input", str(bad)]) == 1
    assert "report error" in capsys.readouterr().err


def test_cli_sweep_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    config = tmp_path / "binary.cfg"
    config.write_bytes(b"\xff\xfe")
    assert main(["sweep", "--config", str(config)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_emit_rejects_a_report_that_is_not_utf8(tmp_path, capsys):
    report = tmp_path / "binary.json"
    report.write_bytes(b"\xff\xfe")
    assert main(["emit", "--input", str(report)]) == 1
    assert "report error" in capsys.readouterr().err


def test_cli_sweep_config_path_with_a_nul_byte(capsys):
    assert main(["sweep", "--config", "a\0b"]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_emit_input_path_with_a_nul_byte(capsys):
    assert main(["emit", "--input", "a\0b"]) == 1
    assert "report error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["[" * 100000, '{"schema_version": ' + "9" * 5000 + "}"],
    ids=["nested too deep", "integer too long"],
)
def test_cli_emit_rejects_json_the_decoder_refuses(tmp_path, capsys, text):
    report = tmp_path / "refused.json"
    report.write_text(text)
    assert main(["emit", "--input", str(report)]) == 1
    assert "report error" in capsys.readouterr().err


def test_cli_sweep_output_path_with_a_nul_byte(tmp_path, capsys):
    config = tmp_path / "nul.cfg"
    config.write_text("genus = 1\npower = 0\nchecks = unknot\noutput = a\0b\n")
    assert main(["sweep", "--config", str(config)]) == 1
    assert "error:" in capsys.readouterr().err


# config text for the CLI fuzz: every grid stays within genus 1..2 and
# power 0..1, and every output path within the test's directory
_GOOD_VALUES = {
    "genus": ["1", "2", "1..2", "2, 1"],
    "power": ["0", "1", "0..1"],
    "variant": ["original", "enhanced", "original, enhanced"],
    "checks": ["unknot", "alexander", "fibred", "pa", "twobridge, fibre-genus"],
    "format": ["json", "csv", "table"],
    "parallelism": ["1"],
    "timing": ["on", "off"],
    "output": ["report.json", ""],
}
_BAD_VALUES = {
    "genus": ["2..1", "0", "-1", "x", "", "1..", "1.5"],
    "power": ["1..0", "-1", "y", "", "0.."],
    "variant": ["bogus", ""],
    "checks": ["nope", ""],
    "format": ["xml"],
    "parallelism": ["0", "-2", "x", "1.0"],
    "timing": ["maybe"],
    "output": ["missing/x.json", "a\0b"],
    "colour": ["blue"],
}


def _lines(values):
    return st.sampled_from(sorted(values)).flatmap(
        lambda key: st.sampled_from(values[key]).map(lambda v: f"{key} = {v}")
    )


@st.composite
def config_texts(draw):
    """Mostly valid configs, with bad entries, unknown keys and stray text."""
    lines = [
        f"{key} = {draw(st.sampled_from(values))}"
        for key, values in _GOOD_VALUES.items()
        if key in ("genus", "power") or draw(st.booleans())
    ]
    lines += draw(st.lists(_lines(_BAD_VALUES), max_size=2))
    lines += draw(st.lists(st.text(max_size=20), max_size=2))
    return "\n".join(draw(st.permutations(lines))).encode()


_config_bytes = st.one_of(config_texts(), st.binary(max_size=40))


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_config_bytes)
def test_cli_sweep_fuzz_exits_cleanly(tmp_path, monkeypatch, data):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "fuzz.cfg"
    config.write_bytes(data)
    assert main(["sweep", "--config", str(config)]) in (0, 1, 2)


# report text for the emit fuzz: a valid report from a tiny sweep, the
# same with a field dropped, mistyped or the text cut short, or any bytes
_TINY_SWEEP = "genus = 1..2\npower = 0\nchecks = unknot, alexander, fibred\n"
_json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


@pytest.fixture(scope="module")
def tiny_report():
    return canonical_json(build_report(run_sweep(parse_config(_TINY_SWEEP))))


@st.composite
def edited_reports(draw, text):
    kind = draw(st.sampled_from(["valid", "drop", "mistype", "truncate"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))].encode()
    document = json.loads(text)
    if kind != "valid":
        records = document["records"]
        target = draw(st.sampled_from([document] + records))
        key = draw(st.sampled_from(sorted(target)))
        if kind == "drop":
            del target[key]
        else:
            target[key] = draw(_json_values)
    return json.dumps(document).encode()


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_cli_emit_fuzz_exits_cleanly(tmp_path, tiny_report, data):
    report = tmp_path / "fuzz.json"
    report.write_bytes(
        data.draw(st.one_of(edited_reports(tiny_report), st.binary(max_size=60)))
    )
    fmt = data.draw(st.sampled_from(["json", "csv", "table"]))
    target = tmp_path / "out.txt"
    argv = ["emit", "--input", str(report), "--format", fmt, "--output", str(target)]
    assert main(argv) in (0, 1, 2)


# argument lists for the check fuzz: every check name and a few unknown
# ones, genus and power within 0..3 (larger genera are slow, not broken),
# bad variants, malformed braid and twist words, and stray flags
_CHECK_OPTIONS = {
    "--genus": st.one_of(
        st.integers(0, 3).map(str), st.sampled_from(["-1", "x", ""])
    ),
    "--power": st.one_of(
        st.integers(0, 3).map(str), st.sampled_from(["-2", "1.5"])
    ),
    "--variant": st.sampled_from(["original", "enhanced", "bogus", ""]),
    "--word": st.one_of(
        st.sampled_from(
            ["2 1", "3 1 2", "3 1 -2 1 -2", "4 1 2 3", "3", "2 1 1",
             "", " ", "0", "-3 1", "3 0", "3 5", "3 1 x", "1.5 1", "3 1\x002"]
        ),
        st.text(max_size=8),
    ),
    "--twist-word": st.one_of(
        st.sampled_from(["A B-", "a+ b", "A", "B- A-", "", "C", "A2", "A B -"]),
        st.text(max_size=6),
    ),
}
_CHECK_FLAGS = ["--fixture", "--json", "--bogus", "-x", "--genus"]


@st.composite
def check_argvs(draw):
    groups = [
        [option, draw(values)]
        for option, values in _CHECK_OPTIONS.items()
        if draw(st.booleans())
    ]
    flags = draw(st.lists(st.sampled_from(_CHECK_FLAGS), max_size=2))
    groups += [[flag] for flag in flags]
    name = draw(st.sampled_from(list(ALL_CHECKS) + ["nope", ""]))
    args = [arg for group in draw(st.permutations(groups)) for arg in group]
    return ["check", name] + args


@settings(max_examples=150, deadline=None)
@given(check_argvs())
def test_cli_check_fuzz_exits_cleanly(argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejecting the argument list
        code = exc.code
    assert code in (0, 1, 2)


# -- scripts -------------------------------------------------------------


def _script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_all_script_smoke(tmp_path, capsys):
    script = _script("verify_all")
    out = tmp_path / "report.json"
    assert script.main(["--genus", "1", "--max-genus", "2", "--json", str(out)]) == 0
    assert "17 checks: verified=17; skipped 3 off-genus" in capsys.readouterr().out
    validate_report(json.loads(out.read_text(encoding="utf-8")))
    assert script.main(["--genus", "3", "--max-genus", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: empty genus range 3..1\n"
    assert "checks:" not in captured.out


@pytest.mark.parametrize(
    "name, argv",
    [
        ("verify_all", ["--genus", "x"]),
        ("verify_all", ["--variant", "bogus"]),
        ("growth_table", ["--variant", "bogus"]),
        ("growth_table", ["--max-power", "1.5"]),
        ("crosscheck_pipelines", ["--count", "x"]),
    ],
)
def test_scripts_answer_a_usage_error_with_exit_1(name, argv, capsys):
    # argparse's own exit 2 would read as inconclusive
    assert _script(name).main(argv) == 1
    assert "usage:" in capsys.readouterr().err
    assert _script(name).main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_registry_report_bytes_are_pinned(tmp_path, capsys):
    # every registered check at genus 1..4, power 0, as verify_all runs
    # them: the pa verdicts and floats and the alexander-module records
    # are in no sweep, so their bytes are pinned here
    script = _script("verify_all")
    out = tmp_path / "report.json"
    argv = ["--genus", "1", "--max-genus", "4", "--power", "0", "--json", str(out)]
    assert script.main(argv) == 0
    assert "33 checks: verified=33; skipped 7 off-genus" in capsys.readouterr().out
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "b758d18d26fae5fa070d299035451f9422260eef5b2df43565a834fba21807c3"
    )


def test_diff_reports_script_smoke(tmp_path, capsys):
    script = _script("diff_reports")
    cfg = SweepConfig(genus=(1, 2), power=(0, 1), variants=("original", "enhanced"))
    document = build_report(run_sweep(cfg))
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(canonical_json(document), encoding="utf-8")
    new.write_text(canonical_json(document), encoding="utf-8")
    assert script.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == "8 records: identical\n"
    # one field changed and one record dropped
    records = [dict(r) for r in document["records"]]
    records[0]["determinant"] = 7
    dropped = records.pop()
    new.write_text(canonical_json({**document, "records": records}), encoding="utf-8")
    assert script.main([str(old), str(new)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["genus=1 power=0 variant=enhanced", "  - determinant: 1", "  + determinant: 7"]
    assert f"genus=2 power=1 variant={dropped['variant']} (only in OLD)" in out
    assert out[-1] == "8 records: 2 differ"
    # registry records are keyed by check name and genus
    registry = tmp_path / "registry.json"
    assert _script("verify_all").main(["--genus", "1", "--max-genus", "2", "--json", str(registry)]) == 0
    capsys.readouterr()
    assert script.main([str(registry), str(registry)]) == 0
    assert capsys.readouterr().out == "17 records: identical\n"
    assert script.main([str(registry), str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    new.write_text(json.dumps({"records": [1]}), encoding="utf-8")
    assert script.main([str(old), str(new)]) == 2
    assert capsys.readouterr().err == f"error: {new}: a record is not an object\n"
    new.write_text(canonical_json({**document, "records": records * 2}), encoding="utf-8")
    assert script.main([str(old), str(new)]) == 2
    assert capsys.readouterr().err == "error: two records with key genus=1 power=0 variant=enhanced\n"


def test_growth_table_script_smoke(tmp_path, capsys):
    script = _script("growth_table")
    out = tmp_path / "growth.csv"
    assert script.main(["--genus", "2", "--max-power", "3", "--csv", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[1:5] == [
        "   0              2           ",
        "   1              4     2.0000",
        "   2             31     7.7500",
        "   3            238     7.6774",
    ]
    assert out.read_text(encoding="utf-8").splitlines()[:2] == [
        "power,max_entry,ratio",
        "0,2,",
    ]
    for argv, message in (
        (["--genus", "0"], "genus must be at least 1"),
        (["--min-power", "-2"], "power must be nonnegative"),
        (["--min-power", "5", "--max-power", "2"], "empty power range 5..2"),
    ):
        assert script.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
