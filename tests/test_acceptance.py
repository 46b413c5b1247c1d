"""Acceptance suite: the eleven headline verifications at their stated
tolerances.

Each criterion is one test that prints a single pass/fail line, so a
`pytest -v -s tests/test_acceptance.py` run reads as a checklist.  The
values asserted here are frozen oracles: they were computed by at least
two independent pipelines before being inlined.
"""

import math
import random
import time
from fractions import Fraction

import polyref as ref

from braidkit.braid import (
    BraidWord,
    FamilySpec,
    closure_components,
    enhanced_phi,
    family_braid,
)
from braidkit.checks import run_check
from braidkit.coverlift import (
    branched_cover_euler,
    charpoly_int,
    fibred_alexander,
    growth_sequence,
    is_cyclic,
    lift_homological,
    mat_identity,
    seifert_from_monodromy,
)
from braidkit.destab import destabilize_greedy, replay_certificate
from braidkit.garside import (
    is_trivial_word,
    normal_form,
    periodic_identity_check,
    words_equal,
)
from braidkit.invariants import (
    alexander_from_burau,
    alexander_from_seifert,
    brick_seifert,
    knot_determinant,
    reduced_burau,
)
from braidkit.laurent import normalized
from braidkit.pacert import (
    chain_pair,
    classify,
    complement_euler,
    mu,
    parse_twist_word,
    trace_polynomial,
)
from braidkit.twobridge import (
    TwoBridgeFraction,
    cf_to_fraction,
    crosscheck_w0,
    twobridge_alexander,
)

GRID = [
    (genus, power, variant)
    for genus in range(1, 7)
    for power in range(0, 11)
    for variant in ("original", "enhanced")
]


def verdict(number, name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number:02d} {name} failed: {detail}"


def test_criterion_01_unknot_certificates():
    worst = 0.0
    for genus, power, variant in GRID:
        word = family_braid(
            genus, power, variant, allow_extension_fixture=True
        )
        start = time.perf_counter()
        cert = destabilize_greedy(word)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert cert.certified, (genus, power, variant)
        assert elapsed < 1.0, (genus, power, variant, elapsed)
        final = replay_certificate(cert)
        assert final == BraidWord(1, ())  # replay re-derives the closure type
    verdict(
        1,
        "unknot certificates on the 132-case grid",
        True,
        f"worst case {worst * 1000:.1f} ms",
    )


def test_criterion_02_alexander_triviality():
    worst = 0.0
    for genus, power, variant in GRID:
        word = family_braid(
            genus, power, variant, allow_extension_fixture=True
        )
        start = time.perf_counter()
        poly = alexander_from_burau(word)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert poly == (1,), (
            genus,
            power,
            variant,
        )
        assert elapsed < 5.0, (genus, power, variant, elapsed)
    verdict(
        2,
        "Alexander triviality on the 132-case grid",
        True,
        f"worst case {worst:.2f} s",
    )


def test_criterion_03_fibre_genus():
    for genus in range(1, 65):
        data = branched_cover_euler(2 * genus + 1)
        assert data.genus == genus and data.boundary == 1, genus
    base = branched_cover_euler(3)
    assert base.genus == 1 and base.boundary == 1
    verdict(3, "double branched cover genus for g in 1..64", True)


def test_criterion_04_pseudo_anosov_certificates():
    word = parse_twist_word("A B-")
    assert trace_polynomial(word) == (2, 1)  # exactly 2 + eigenvalue
    for genus in range(1, 11):
        pair = chain_pair(genus)
        out = classify(word, pair)
        assert out.kind == "pseudo-anosov", genus
        assert abs(out.trace - (2 + mu(pair))) < 1e-9, genus
    pair2 = chain_pair(2)
    m = mu(pair2)
    assert abs(m - 4 * math.cos(math.pi / 5) ** 2) < 1e-9
    trace = 2 + m
    expect = (trace + math.sqrt(trace * trace - 4)) / 2
    got = classify(word, pair2).dilatation
    assert abs(got - expect) < 1e-9
    verdict(
        4,
        "pseudo-Anosov certification for g in 1..10",
        True,
        f"genus 2 dilatation {got:.12f}",
    )


def test_criterion_05_filling_euler_counts():
    for genus in range(1, 65):
        assert complement_euler(genus, punctured=True) == 0, genus
        assert complement_euler(genus, punctured=False) == 1, genus
        assert chain_pair(genus).is_connected(), genus
    verdict(5, "complement Euler counts and chain connectivity", True)


def test_criterion_06_periodic_identity():
    start = time.perf_counter()
    for genus in (1, 2, 3):
        assert periodic_identity_check(genus), genus
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    verdict(
        6,
        "periodic word equals the full twist for g in 1..3",
        True,
        f"{elapsed:.2f} s total",
    )


def test_criterion_07_enhanced_invariance():
    assert lift_homological(enhanced_phi(2)) == mat_identity(4)
    reference_lift = lift_homological(family_braid(2, 0, "enhanced"))
    for power in range(0, 9):
        lift = lift_homological(family_braid(2, power, "enhanced"))
        assert lift == reference_lift, power
        poly = fibred_alexander(FamilySpec(2, power, "enhanced"))
        assert poly == (1, -1, 1, -1, 1), power
    # one invariant factor, which is then the charpoly
    assert is_cyclic(reference_lift)
    verdict(
        7,
        "enhanced family invariance in the stirring power",
        True,
        "identical lifts for n in 0..8, single module factor",
    )


def test_criterion_08_two_bridge_crosscheck():
    for genus in range(1, 7):
        assert crosscheck_w0(genus), genus
        frac = cf_to_fraction([2] * (2 * genus))
        rational = twobridge_alexander(frac)
        monodromy = fibred_alexander(FamilySpec(genus, 0))
        assert knot_determinant(rational) == frac.p
        assert knot_determinant(monodromy) == frac.p
    verdict(
        8,
        "two-bridge staircase crosscheck for g in 1..6",
        True,
        "determinants agree on both pipelines",
    )


def _homogeneous_corpus():
    words = [BraidWord(2, (1,) * (2 * k + 1)) for k in range(0, 7)]
    rng = random.Random(2026)
    while len(words) < 50:
        strands = rng.randint(2, 5)
        signs = [rng.choice((1, -1)) for _ in range(strands - 1)]
        length = rng.randint(strands - 1, 12)
        body = [rng.randint(1, strands - 1) for _ in range(length)] + list(
            range(1, strands)
        )
        rng.shuffle(body)
        letters = tuple(signs[i - 1] * i for i in body)
        word = BraidWord(strands, letters)
        if closure_components(word) == 1:
            words.append(word)
    return words


def test_criterion_09_oracle_equivalence():
    corpus = _homogeneous_corpus()
    assert len(corpus) == 50
    for word in corpus:
        via_seifert = alexander_from_seifert(brick_seifert(word))
        via_burau = alexander_from_burau(word)
        assert via_seifert == via_burau, word
    for genus in range(1, 5):
        lift = lift_homological(family_braid(genus, 1))
        solved = seifert_from_monodromy(lift)
        assert alexander_from_seifert(solved) == normalized(charpoly_int(lift)), genus
    verdict(
        9,
        "Burau and Seifert pipelines agree",
        True,
        "50-word corpus plus monodromy round-trips for g in 1..4",
    )


def test_criterion_10_growth_proxy():
    seq = growth_sequence(2, range(2, 11))
    assert all(a < b for a, b in zip(seq, seq[1:]))
    note = run_check("growth-proxy", {"genus": 2})["note"]
    assert "proxy" in note and "volume" in note
    verdict(
        10,
        "lift entries grow strictly in the stirring power",
        True,
        f"n=2..10 values {seq[0]}..{seq[-1]}",
    )


def _b3_words(max_len):
    frontier = [()]
    for _ in range(max_len):
        frontier = [
            w + (x,) for w in frontier for x in (1, -1, 2, -2)
        ] + frontier
        frontier = list(dict.fromkeys(frontier))
    return [BraidWord(3, w) for w in frontier]


def _burau(word):
    """The reduced Burau matrix of word, as reference polynomials."""
    neg, rows = reduced_burau(word)
    return [[ref.poly(-neg, p) for p in row] for row in rows]


def test_criterion_11_word_problem_soundness():
    identity = ref.identity(2)
    words = _b3_words(6)
    checked = 0
    for word in words:
        # the reduced Burau representation is faithful on three strands
        oracle = _burau(word) == identity
        assert is_trivial_word(word) == oracle, word
        checked += 1
    short = [w for w in words if len(w) <= 3]
    for u in short:
        bu = _burau(u)
        for v in short:
            assert words_equal(u, v) == (bu == _burau(v)), (u, v)
    relations = [
        (BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2))),
        (BraidWord(4, (1, 3)), BraidWord(4, (3, 1))),
        (BraidWord(4, (2, 3, 2)), BraidWord(4, (3, 2, 3))),
    ]
    for lhs, rhs in relations:
        assert words_equal(lhs, rhs)
        assert _burau(lhs) == _burau(rhs)
        assert normal_form(lhs) == normal_form(rhs)
    verdict(
        11,
        "normal-form equality matches the faithful matrix oracle",
        True,
        f"{checked} words checked to length 6",
    )
