"""Two-bridge fractions, staircase Alexander polynomials, crosschecks."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from braidkit.invariants import knot_determinant
from braidkit.laurent import to_text
from braidkit.twobridge import (
    TwoBridgeFraction,
    cf_to_fraction,
    crosscheck_w0,
    odd_partner,
    twobridge_alexander,
)


# -- fractions -----------------------------------------------------------


def test_fraction_validation():
    f = TwoBridgeFraction(5, 2)
    assert str(f) == "5/2"
    assert f.is_knot
    assert not TwoBridgeFraction(4, 1).is_knot
    with pytest.raises(ValueError):
        TwoBridgeFraction(4, 2)  # not coprime
    with pytest.raises(ValueError):
        TwoBridgeFraction(2, 3)  # q must stay below p
    with pytest.raises(ValueError):
        TwoBridgeFraction(3, 0)


def test_cf_to_fraction_small():
    assert cf_to_fraction([3]) == TwoBridgeFraction(3, 1)
    assert cf_to_fraction([2, 2]) == TwoBridgeFraction(5, 2)
    assert cf_to_fraction([2, 2, 2, 2]) == TwoBridgeFraction(29, 12)
    assert cf_to_fraction([2, 3]) == TwoBridgeFraction(7, 3)
    with pytest.raises(ValueError):
        cf_to_fraction([])


def test_cf_continuants_of_twos():
    # numerators of [2, 2, ..., 2] follow p_k = 2 p_{k-1} + p_{k-2}
    expected = (5, 29, 169, 985, 5741, 33461, 195025, 1136689)
    for g, p in enumerate(expected, start=1):
        frac = cf_to_fraction([2] * (2 * g))
        assert frac.p == p
        assert frac.is_knot


def test_odd_partner():
    assert odd_partner(TwoBridgeFraction(5, 2)) == 7  # 2 + 5
    assert odd_partner(TwoBridgeFraction(5, 3)) == 3
    assert odd_partner(TwoBridgeFraction(29, 12)) == 41


# -- Alexander polynomials -----------------------------------------------


def test_alexander_known_values():
    assert to_text(twobridge_alexander(TwoBridgeFraction(3, 1))) == "0|1 -1 1"
    assert twobridge_alexander(TwoBridgeFraction(5, 2)) == (1, -3, 1)
    assert twobridge_alexander(TwoBridgeFraction(5, 1)) == (1, -1, 1, -1, 1)
    assert twobridge_alexander(TwoBridgeFraction(7, 2)) == (2, -3, 2)
    assert twobridge_alexander(TwoBridgeFraction(9, 2)) == (2, -5, 2)


def test_alexander_rejects_links():
    with pytest.raises(ValueError):
        twobridge_alexander(TwoBridgeFraction(4, 1))


def test_alexander_equivalent_fractions_agree():
    # 5/2 and 5/3 are the same knot (mirror), so same normalized polynomial
    assert twobridge_alexander(TwoBridgeFraction(5, 2)) == twobridge_alexander(
        TwoBridgeFraction(5, 3)
    )
    assert twobridge_alexander(TwoBridgeFraction(7, 2)) == twobridge_alexander(
        TwoBridgeFraction(7, 5)
    )


def all_knot_fractions(limit):
    for p in range(3, limit + 1, 2):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield TwoBridgeFraction(p, q)


def test_alexander_properties_up_to_50():
    for frac in all_knot_fractions(50):
        poly = twobridge_alexander(frac)
        assert poly == poly[::-1], frac
        assert abs(sum(poly)) == 1, frac
        assert knot_determinant(poly) == frac.p, frac


def test_alexander_matches_burau_on_torus_slice():
    # b(p, 1) is the (2, p) torus knot, whose closure word is sigma_1^p
    from braidkit.braid import BraidWord
    from braidkit.invariants import alexander_from_burau

    for p in range(3, 51, 2):
        rational = twobridge_alexander(TwoBridgeFraction(p, 1))
        burau = alexander_from_burau(BraidWord(2, (1,) * p))
        assert rational == burau, p


def test_alexander_matches_burau_on_twist_knots():
    from braidkit.braid import BraidWord
    from braidkit.invariants import alexander_from_burau

    presentations = (
        (TwoBridgeFraction(5, 2), BraidWord(3, (1, -2, 1, -2))),
        (TwoBridgeFraction(7, 2), BraidWord(3, (1, 1, 1, 2, -1, 2))),
        (TwoBridgeFraction(9, 2), BraidWord(4, (1, 1, 2, -1, -3, 2, -3))),
    )
    for frac, word in presentations:
        rational = twobridge_alexander(frac)
        burau = alexander_from_burau(word)
        assert rational == burau, frac


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30))
def test_alexander_determinant_identity(a, b):
    p = 2 * a + 1 + 2 * b  # arbitrary odd p
    q = next(
        (q for q in range(b, p) if math.gcd(p, q) == 1),
        None,
    )
    if q is None:
        return
    frac = TwoBridgeFraction(p, q)
    assert knot_determinant(twobridge_alexander(frac)) == p


# -- family crosscheck ---------------------------------------------------


def test_crosscheck_against_monodromy():
    for g in (1, 2, 3, 4):
        assert crosscheck_w0(g)


def test_crosscheck_matches_specific_fraction():
    from braidkit.braid import FamilySpec
    from braidkit.coverlift import fibred_alexander

    frac = cf_to_fraction([2] * 4)
    assert twobridge_alexander(frac) == fibred_alexander(FamilySpec(2, 0))
