"""Named verification checks, one per claim the toolkit certifies.

Each check takes a parameter mapping (genus, power, variant, word, ...)
and returns a plain-dict record with a status field:

    verified      the asserted property holds
    refuted       the property was decidable and false
    inconclusive  a sound-but-incomplete certifier gave up
    error         malformed request or precondition failure

Records are JSON-ready; values that are polynomials or matrices are
serialized by the report module, not here.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from typing import Callable

from .braid import (
    BraidWord,
    FamilySpec,
    VARIANTS,
    build_family,
    enhanced_phi,
    family_braid,
    parse_braid_text,
    format_braid_text,
)
from .coverlift import (
    branched_cover_euler,
    charpoly_int,
    fibred_alexander,
    growth_sequence,
    is_cyclic,
    lift_homological,
    mat_identity,
)
from .destab import destabilize_greedy, replay_certificate
from .garside import periodic_identity_check
from .invariants import alexander_from_burau, knot_determinant
from .laurent import normalized, to_text
from .pacert import (
    chain_pair,
    classify,
    complement_euler,
    mu,
    parse_twist_word,
)
from .twobridge import cf_to_fraction, twobridge_alexander

CheckFn = Callable[[dict], dict]

REGISTRY: dict[str, CheckFn] = {}

# name -> (the genera the check holds at, the refusal elsewhere); a check
# registered without genera applies at every genus
GENERA: dict[str, tuple[Callable[[int], bool], str]] = {}


def register(
    name: str,
    genera: Callable[[int], bool] | None = None,
    refusal: str = "",
) -> Callable[[CheckFn], CheckFn]:
    def add(fn: CheckFn) -> CheckFn:
        REGISTRY[name] = fn
        if genera is not None:
            GENERA[name] = (genera, refusal)
        return fn

    return add


def check_names() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


def applies_at(name: str, genus: int) -> bool:
    """Whether the registered check `name` runs at this genus."""
    return name not in GENERA or GENERA[name][0](genus)


class CheckParamError(ValueError):
    pass


def _int_param(params: dict, key: str, default: int | None = None) -> int:
    """An integer parameter; integer strings are accepted, and nothing is
    truncated or coerced: 2.7, [2] or True is a CheckParamError, not 2, 1
    or a TypeError."""
    raw = params.get(key, default)
    if raw is None:
        raise CheckParamError(f"check needs a {key} parameter")
    try:
        if isinstance(raw, bool):
            raise TypeError
        return int(raw) if isinstance(raw, str) else operator.index(raw)
    except (TypeError, ValueError):
        raise CheckParamError(f"{key} must be an integer, got {raw!r}") from None


def _genus(params: dict, default: int | None = None) -> int:
    g = _int_param(params, "genus", default)
    if g < 1:
        raise CheckParamError("genus must be at least 1")
    return g


def _family_word(params: dict) -> tuple[BraidWord, dict]:
    """Resolve either an explicit braid word or family coordinates."""
    if "word" in params and params["word"] is not None:
        word = params["word"]
        if isinstance(word, str):
            word = parse_braid_text(word)
        elif not isinstance(word, BraidWord):
            raise CheckParamError(f"word must be braid text, got {word!r}")
        return word, {"word": format_braid_text(word)}
    genus = _genus(params)
    power = _int_param(params, "power", 0)
    variant = params.get("variant", "original")
    if variant not in VARIANTS:
        raise CheckParamError(f"unknown variant {variant!r}")
    fixture = params.get("phi_fixture", False)
    if fixture is not True and fixture is not False:
        raise CheckParamError(
            f"phi_fixture must be true or false, got {fixture!r}"
        )
    family = build_family(FamilySpec(genus, power, variant), fixture)
    meta = {
        "genus": genus,
        "power": power,
        "variant": variant,
        "word": format_braid_text(family.braid),
    }
    if family.fixture:
        meta["phi_fixture"] = True
    return family.braid, meta


def run_check(name: str, params: dict | None = None) -> dict:
    if name not in REGISTRY:
        raise CheckParamError(
            f"unknown check {name!r}; known: {', '.join(check_names())}"
        )
    try:
        if params is not None and not isinstance(params, Mapping):
            raise CheckParamError(
                "check parameters must be a mapping of names to values, "
                f"got {type(params).__name__}"
            )
        params = dict(params or {})
        if name in GENERA:
            # every genus-limited check holds at genus 2, its default
            genera, refusal = GENERA[name]
            if not genera(_genus(params, default=2)):
                raise CheckParamError(refusal)
        record = REGISTRY[name](params)
    except ValueError as exc:
        # malformed requests and failed preconditions (CheckParamError,
        # FamilyError, MoveError, ConventionError) become error records
        record = {"status": "error", "message": str(exc)}
    record["check"] = name
    return record


@register("unknot")
def _check_unknot(params: dict) -> dict:
    word, meta = _family_word(params)
    cert = destabilize_greedy(word)
    record = dict(meta)
    record["moves"] = len(cert.moves)
    record["rotations"] = cert.rotations_used
    if cert.certified:
        replay_certificate(cert)  # raises MoveError on any invalid step
        record["status"] = "verified"
    else:
        record["status"] = "inconclusive"
        record["stuck"] = format_braid_text(cert.final)
    return record


@register("alexander-trivial")
def _check_alexander_trivial(params: dict) -> dict:
    word, meta = _family_word(params)
    poly = alexander_from_burau(word)
    record = dict(meta)
    record["alexander"] = to_text(poly)
    record["status"] = "verified" if poly == (1,) else "refuted"
    return record


@register("fibre-genus")
def _check_fibre_genus(params: dict) -> dict:
    genus = _genus(params)
    family = branched_cover_euler(2 * genus + 1)
    ok = family.genus == genus and family.boundary == 1
    return {
        "genus": genus,
        "cover_chi": family.chi,
        "cover_boundary": family.boundary,
        "cover_genus": family.genus,
        "status": "verified" if ok else "refuted",
    }


@register("pa")
def _check_pa(params: dict) -> dict:
    genus = _genus(params)
    pair = chain_pair(genus)
    text = params.get("twist_word", "A B-")
    if not isinstance(text, str):
        raise CheckParamError(f"twist_word must be text, got {text!r}")
    word = parse_twist_word(text)
    verdict = classify(word, pair)
    record = {
        "genus": genus,
        "twist_word": " ".join(
            s + ("" if e > 0 else "-") for s, e in word
        ),
        "mu": mu(pair),
        "verdict": verdict.kind,
        "trace": verdict.trace,
    }
    if verdict.dilatation is not None:
        record["dilatation"] = verdict.dilatation
    record["status"] = (
        "verified" if verdict.kind == "pseudo-anosov" else "refuted"
    )
    return record


@register("filling")
def _check_filling(params: dict) -> dict:
    genus = _genus(params)
    punctured = complement_euler(genus, punctured=True)
    closed = complement_euler(genus, punctured=False)
    connected = chain_pair(genus).is_connected()
    ok = punctured == 0 and closed == 1 and connected
    return {
        "genus": genus,
        "euler_punctured": punctured,
        "euler_closed": closed,
        "chain_connected": connected,
        "status": "verified" if ok else "refuted",
    }


@register("periodic-identity")
def _check_periodic_identity(params: dict) -> dict:
    genus = _genus(params)
    ok = periodic_identity_check(genus)
    return {"genus": genus, "status": "verified" if ok else "refuted"}


@register(
    "homology-invariance",
    genera=lambda g: g == 2,
    refusal="homology invariance is certified for the genus 2 enhanced family",
)
def _check_homology_invariance(params: dict) -> dict:
    genus = _genus(params, default=2)
    phi_lift = lift_homological(enhanced_phi(2))
    phi_trivial = phi_lift == mat_identity(4)
    lifts = [
        lift_homological(family_braid(2, n, "enhanced")) for n in range(9)
    ]
    identical = all(m == lifts[0] for m in lifts)
    poly = normalized(charpoly_int(lifts[0]))
    ok = phi_trivial and identical and poly == (1, -1, 1, -1, 1)
    return {
        "genus": genus,
        "phi_lift_trivial": phi_trivial,
        "lift_constant_in_power": identical,
        "alexander": to_text(poly),
        "status": "verified" if ok else "refuted",
    }


@register(
    "alexander-module",
    genera=lambda g: g == 2,
    refusal="the module check is certified for the genus 2 enhanced family",
)
def _check_alexander_module(params: dict) -> dict:
    genus = _genus(params, default=2)
    # a cyclic module has the charpoly as its single invariant factor
    single = all(
        is_cyclic(lift_homological(family_braid(2, n, "enhanced")))
        for n in range(6)
    )
    fig8 = lift_homological(family_braid(1, 0, "original"))
    fig8_single = is_cyclic(fig8)
    ok = single and fig8_single
    return {
        "genus": genus,
        "single_invariant_factor": single,
        "reference_single_factor": fig8_single,
        "status": "verified" if ok else "refuted",
    }


@register("twobridge-crosscheck")
def _check_twobridge(params: dict) -> dict:
    genus = _genus(params)
    fraction = cf_to_fraction([2] * (2 * genus))
    rational = twobridge_alexander(fraction)
    fibred = fibred_alexander(FamilySpec(genus, 0, "original"))
    match = rational == fibred
    det_rational = knot_determinant(rational)
    det_fibred = knot_determinant(fibred)
    ok = match and det_rational == det_fibred == fraction.p
    return {
        "genus": genus,
        "fraction": str(fraction),
        "determinant_rational": det_rational,
        "determinant_fibred": det_fibred,
        "status": "verified" if ok else "refuted",
    }


@register(
    "growth-proxy",
    genera=lambda g: g >= 2,
    refusal=(
        "genus 1 has an empty stirring word, so the family is constant "
        "in the power and entry growth is undefined"
    ),
)
def _check_growth(params: dict) -> dict:
    genus = _genus(params, default=2)
    lo = _int_param(params, "power_lo", 2)
    hi = _int_param(params, "power_hi", 10)
    if lo > hi:
        raise CheckParamError("empty power range")
    seq = growth_sequence(genus, range(lo, hi + 1), "original")
    increasing = all(a < b for a, b in zip(seq, seq[1:]))
    return {
        "genus": genus,
        "powers": [lo, hi],
        "max_entries": list(seq),
        "note": "matrix-entry growth is a proxy, not a volume computation",
        "status": "verified" if increasing else "refuted",
    }

