"""Parameter sweeps over the knot families with deterministic reports.

A sweep walks the (genus, power, variant) grid and builds one record per
point with the invariant columns selected in the config.  Records are
pure functions of their coordinates, so the grid can be fanned out across
processes, at most one per record and per core; the merge sorts records
and is independent of worker count.

Config files are line-oriented `key = value`.  Ranges use `a..b`
(inclusive), lists are comma-separated, `#` starts a comment:

    genus = 2..4
    power = 0..5
    variant = original, enhanced
    checks = unknot, alexander, fibred, pa, twobridge
    parallelism = 4
    output = report.json
    format = json
    timing = off
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from operator import index

from .braid import VARIANTS, FamilySpec, build_family, format_braid_text
from .coverlift import (
    branched_cover_euler,
    charpoly_int,
    lift_homological,
    mat_max_abs,
    seifert_from_monodromy,
)
from .destab import destabilize_greedy, replay_certificate
from .invariants import (
    alexander_from_burau,
    alexander_from_seifert,
    knot_determinant,
)
from .laurent import normalized, to_text
from .pacert import chain_pair, classify, mu, parse_twist_word
from .twobridge import cf_to_fraction, crosscheck_w0

CHECK_GROUPS = ("unknot", "alexander", "fibred", "pa", "twobridge")

# registry names whose claim a sweep column group evaluates
_GROUP_ALIASES = {
    "alexander-trivial": "alexander",
    "fibre-genus": "fibred",
    "twobridge-crosscheck": "twobridge",
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    genus: tuple[int, ...]
    power: tuple[int, ...]
    variants: tuple[str, ...] = ("original",)
    checks: tuple[str, ...] = CHECK_GROUPS
    output: str | None = None
    format: str = "json"
    parallelism: int = 1
    timing: bool = False

    def __post_init__(self) -> None:
        try:  # integers only: 2.0 is refused, not truncated
            object.__setattr__(self, "genus", tuple(map(index, self.genus)))
            object.__setattr__(self, "power", tuple(map(index, self.power)))
            object.__setattr__(self, "parallelism", index(self.parallelism))
        except TypeError:
            raise ConfigError("genus, power and parallelism must be integers") from None
        if not self.genus or any(g < 1 for g in self.genus):
            raise ConfigError("genus range must be nonempty and positive")
        if not self.power or any(n < 0 for n in self.power):
            raise ConfigError("power range must be nonempty and nonnegative")
        for name in ("variants", "checks"):
            names = getattr(self, name)
            if isinstance(names, str) or not hasattr(names, "__iter__"):
                raise ConfigError(f"{name}: give a sequence of names, not {names!r}")
            object.__setattr__(self, name, tuple(names))
        if not self.variants:
            raise ConfigError("variant set must be nonempty")
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigError(f"unknown variant {v!r}")
        if not self.checks:
            raise ConfigError("check selection must be nonempty")
        for c in self.checks:
            if c not in CHECK_GROUPS:
                raise ConfigError(f"unknown check group {c!r}")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be at least 1")
        if self.format not in ("json", "csv", "table"):
            raise ConfigError(f"unknown output format {self.format!r}")


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: {text.strip()!r} is not an integer") from None


def _parse_range(text: str, key: str) -> tuple[int, ...]:
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_text, hi_text = part.split("..", 1)
            lo, hi = _parse_int(lo_text, key), _parse_int(hi_text, key)
            if hi < lo:
                raise ConfigError(f"{key}: empty range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(_parse_int(part, key))
    if not out:
        raise ConfigError(f"{key}: no values")
    return tuple(dict.fromkeys(out))


def parse_config(text: str) -> SweepConfig:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    known = {
        "genus",
        "power",
        "variant",
        "checks",
        "output",
        "format",
        "parallelism",
        "timing",
    }
    for key in values:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    if "genus" not in values or "power" not in values:
        raise ConfigError("config needs genus and power ranges")
    kwargs: dict = {
        "genus": _parse_range(values["genus"], "genus"),
        "power": _parse_range(values["power"], "power"),
    }
    if "variant" in values:
        kwargs["variants"] = tuple(
            dict.fromkeys(
                v.strip() for v in values["variant"].split(",") if v.strip()
            )
        )
    if "checks" in values:
        groups = []
        for name in values["checks"].split(","):
            name = name.strip()
            if not name:
                continue
            group = _GROUP_ALIASES.get(name, name)
            if group not in CHECK_GROUPS:
                raise ConfigError(
                    f"{name!r} is not a sweep check group "
                    f"({', '.join(CHECK_GROUPS)}); a registry check runs "
                    f"with `braidkit check {name}`"
                )
            groups.append(group)
        kwargs["checks"] = tuple(dict.fromkeys(groups))
    if "output" in values:
        kwargs["output"] = values["output"]
    if "format" in values:
        kwargs["format"] = values["format"]
    if "parallelism" in values:
        kwargs["parallelism"] = _parse_int(values["parallelism"], "parallelism")
    if "timing" in values:
        flag = values["timing"].lower()
        if flag not in ("on", "off", "true", "false"):
            raise ConfigError("timing must be on or off")
        kwargs["timing"] = flag in ("on", "true")
    return SweepConfig(**kwargs)


def build_record(task: tuple[int, int, str, tuple[str, ...], bool]) -> dict:
    """One grid point's record; a failing point becomes an error record.

    A ValueError becomes `status=error`, as in `run_check`, so one bad
    point cannot abort the sweep and a point gets the verdict `braidkit
    check` gives it.
    """
    genus, power, variant = task[:3]
    try:
        return _build_record(*task)
    except ValueError as exc:
        return {
            "genus": genus,
            "power": power,
            "variant": variant,
            "status": "error",
            "message": str(exc),
        }


def _build_record(
    genus: int, power: int, variant: str, checks: tuple[str, ...], timing: bool
) -> dict:
    started = time.perf_counter()
    # sweeps always allow the fixture; the record says when it was used
    family = build_family(FamilySpec(genus, power, variant), True)
    word = family.braid
    record: dict = {
        "genus": genus,
        "power": power,
        "variant": variant,
        "word": format_braid_text(word),
    }
    if family.fixture:
        record["phi_fixture"] = True
    holds: list[bool] = []
    inconclusive = False
    if "unknot" in checks:
        cert = destabilize_greedy(word)
        record["unknot_moves"] = len(cert.moves)
        if cert.certified:
            replay_certificate(cert)  # raises MoveError on any invalid step
            record["unknot"] = "verified"
            holds.append(True)
        else:
            record["unknot"] = "inconclusive"
            inconclusive = True
    if "alexander" in checks:
        poly = alexander_from_burau(word)
        record["alexander_burau"] = to_text(poly)
        record["determinant"] = knot_determinant(poly)
        holds.append(poly == (1,))
    if "fibred" in checks:
        lift = lift_homological(word)
        fibred_poly = normalized(charpoly_int(lift))
        record["alexander_fibred"] = to_text(fibred_poly)
        record["lift_max_entry"] = mat_max_abs(lift)
        cover = branched_cover_euler(2 * genus + 1)
        record["fibre_genus"] = cover.genus
        holds.append(cover.genus == genus)
        roundtrip = alexander_from_seifert(seifert_from_monodromy(lift))
        record["alexander_seifert"] = to_text(roundtrip)
        holds.append(roundtrip == fibred_poly)
    if "pa" in checks:
        # both read the pair's memoized mu certificate
        pair = chain_pair(genus)
        verdict = classify(parse_twist_word("A B-"), pair)
        record["pa_verdict"] = verdict.kind
        record["pa_mu"] = mu(pair)
        if verdict.dilatation is not None:
            record["pa_dilatation"] = verdict.dilatation
        holds.append(verdict.kind == "pseudo-anosov")
    if "twobridge" in checks and variant == "original" and power == 0:
        match = crosscheck_w0(genus)
        record["twobridge_fraction"] = str(
            cf_to_fraction([2] * (2 * genus))
        )
        record["twobridge_match"] = match
        holds.append(match)
    if timing:
        record["seconds"] = time.perf_counter() - started
    if not all(holds):
        record["status"] = "refuted"
    elif inconclusive:
        record["status"] = "inconclusive"
    else:
        record["status"] = "verified"
    return record


def run_sweep(config: SweepConfig) -> list[dict]:
    tasks = [
        (g, n, v, config.checks, config.timing)
        for g in config.genus
        for n in config.power
        for v in config.variants
    ]
    # the pool starts all its workers at the first submit, so ask for no
    # more than there are tasks and cores
    workers = min(config.parallelism, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [build_record(task) for task in tasks]
    # imported here: serial sweeps and `check` then skip loading
    # multiprocessing, which costs more start-up than most records
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(build_record, tasks))
