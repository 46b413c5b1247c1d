"""Braid words, permutations, closures, and the two knot families."""

import pytest
from hypothesis import given, strategies as st

from braidkit.braid import (
    BraidWord,
    FamilyError,
    FamilySpec,
    Permutation,
    build_family,
    closure_components,
    enhanced_phi,
    enhanced_pi,
    exponent_sum,
    family_braid,
    format_braid_text,
    free_reduce,
    original_phi,
    original_pi,
    parse_braid_text,
    underlying_permutation,
)


def words(max_strands=6, max_len=12):
    def build(n):
        letter = st.integers(1, n - 1).flatmap(
            lambda i: st.sampled_from([i, -i])
        )
        return st.tuples(
            st.just(n), st.lists(letter, max_size=max_len).map(tuple)
        )

    return (
        st.integers(2, max_strands)
        .flatmap(build)
        .map(lambda t: BraidWord(*t))
    )


# -- permutations --------------------------------------------------------


def test_permutation_compose_and_inverse():
    p = Permutation((2, 3, 1))
    q = Permutation((1, 3, 2))
    assert p.then(q).images == (3, 2, 1)
    assert q.then(p).images == (2, 1, 3)
    assert p.then(p.inverse()).is_identity()
    assert p.inverse().images == (3, 1, 2)


def test_permutation_transposition_and_cycles():
    t = Permutation.transposition(4, 2)
    assert t.images == (1, 3, 2, 4)
    assert t.then(t).is_identity()
    assert Permutation((2, 1, 4, 3)).cycles() == [(1, 2), (3, 4)]
    assert Permutation((2, 3, 1)).cycles() == [(1, 2, 3)]


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))


# -- braid words ---------------------------------------------------------


def test_braid_word_validation():
    BraidWord(3, (1, -2, 1))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))  # index must stay below strand count
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(0, ())


@pytest.mark.parametrize(
    "strands, letters, bad",
    [
        (3, (1, 0, 3), 0),
        (3, (1, -3, 0), -3),
        (3, (2, -2, 3), 3),
        (4, (1, 2, -3, -4, 4), -4),
        (1, (1,), 1),
        (2, (-1, 1, 2, 0), 2),
    ],
)
def test_braid_word_names_the_first_bad_letter(strands, letters, bad):
    # letter 0 and letters of size >= strands are refused, and the message
    # names the first of them
    with pytest.raises(ValueError, match=rf"^letter {bad} out of range for {strands} strands$"):
        BraidWord(strands, letters)
    BraidWord(strands, tuple(x for x in letters if x and abs(x) < strands))


@pytest.mark.parametrize(
    "strands, letters", [(3, (1.7,)), (3, (2.0,)), (3, ("1",)), (3.5, ()), (3.0, (1,))]
)
def test_braid_word_takes_integers_only(strands, letters):
    # nothing is truncated or parsed: 1.7 is not sigma_1
    with pytest.raises(TypeError):
        BraidWord(strands, letters)


def test_braid_word_multiplication_and_power():
    u = BraidWord(3, (1, 2))
    v = BraidWord(3, (-2,))
    assert (u * v).letters == (1, 2, -2)
    assert (u**3).letters == (1, 2) * 3
    assert (u**0).letters == ()
    assert u.inverse().letters == (-2, -1)
    assert u.mirror().letters == (-1, -2)
    with pytest.raises(ValueError):
        u * BraidWord(4, (1,))


def test_free_reduce_cancels_adjacent_pairs():
    assert free_reduce(BraidWord(3, (1, -1, 2))).letters == (2,)
    assert free_reduce(BraidWord(3, (1, 2, -2, -1))).letters == ()
    assert free_reduce(BraidWord(3, (1, 2, 1))).letters == (1, 2, 1)


@given(words())
def test_free_reduce_kills_word_times_inverse(w):
    assert free_reduce(w * w.inverse()).letters == ()
    assert underlying_permutation(w * w.inverse()).is_identity()


def test_underlying_permutation():
    assert underlying_permutation(BraidWord(3, (1,))).images == (2, 1, 3)
    # sign does not matter for the permutation
    assert underlying_permutation(BraidWord(3, (-1,))).images == (2, 1, 3)
    # first letter acts first: sigma_1 sends 1 to slot 2, sigma_2 sends it on to 3
    assert underlying_permutation(BraidWord(3, (1, 2))).images == (3, 1, 2)


@given(words())
def test_underlying_permutation_folds_transpositions(w):
    expected = Permutation(tuple(range(1, w.strands + 1)))
    for x in w.letters:
        expected = expected.then(Permutation.transposition(w.strands, abs(x)))
    assert underlying_permutation(w) == expected


def test_closure_components():
    assert closure_components(BraidWord(2, (1,))) == 1
    assert closure_components(BraidWord(3, ())) == 3
    assert closure_components(BraidWord(3, (1,))) == 2
    assert closure_components(BraidWord(3, (1, 2))) == 1
    assert closure_components(BraidWord(2, (1, 1))) == 2  # Hopf link


def test_exponent_sum():
    assert exponent_sum(BraidWord(3, (1, -2, -2))) == -1
    assert exponent_sum(BraidWord(3, ())) == 0


# -- text format ---------------------------------------------------------


def test_braid_text_format():
    w = BraidWord(5, (4, -3, 2, -1))
    assert format_braid_text(w) == "5 4 -3 2 -1"
    assert parse_braid_text("5 4 -3 2 -1") == w
    assert parse_braid_text("3") == BraidWord(3, ())


def test_braid_text_rejects_garbage():
    with pytest.raises(ValueError):
        parse_braid_text("")
    with pytest.raises(ValueError):
        parse_braid_text("three 1 2")
    with pytest.raises(ValueError):
        parse_braid_text("0 1")
    with pytest.raises(ValueError):
        parse_braid_text("3 5")  # letter out of range for the header


@given(words())
def test_braid_text_round_trip(w):
    assert parse_braid_text(format_braid_text(w)) == w


# -- family assembly -----------------------------------------------------


def test_family_spec_validation():
    assert FamilySpec(3).strands == 7
    with pytest.raises(ValueError):
        FamilySpec(0)
    with pytest.raises(ValueError):
        FamilySpec(2, power=-1)
    with pytest.raises(ValueError):
        FamilySpec(2, variant="other")


@pytest.mark.parametrize("genus, power", [(2.0, 0), (2.5, 0), (2, 1.0), (2, 0.5)])
def test_family_spec_takes_integers_only(genus, power):
    with pytest.raises(TypeError):
        FamilySpec(genus, power)


def test_building_blocks():
    assert original_pi(2).letters == (4, -3, 2)
    assert original_pi(3).letters == (6, -5, 4, -3, 2)
    assert enhanced_pi(2).letters == (4, 3, 2)
    assert original_phi(2).letters == (2, -3)
    assert original_phi(1).letters == ()
    assert len(enhanced_phi(2)) == 36
    with pytest.raises(FamilyError, match="allow_extension_fixture"):
        enhanced_phi(3)
    # build_family alone chooses the stirring word and flags the fixture
    for genus in (1, 3):
        family = build_family(FamilySpec(genus, 1, "enhanced"), True)
        assert family.phi == original_phi(genus)
        assert family.fixture is True
    assert build_family(FamilySpec(2, 1, "enhanced"), True).fixture is False
    for genus in (1, 2, 3):
        original = build_family(FamilySpec(genus, 1), True)
        assert original.phi == original_phi(genus)
        assert original.fixture is False


def test_family_words_original():
    assert family_braid(1, 0).letters == (2, -1)
    assert family_braid(1, 7).letters == (2, -1)  # empty stirring word
    assert family_braid(2, 0).letters == (4, -3, 2, -1)
    assert family_braid(2, 1).letters == (4, -3, 2, 2, -3, -1, 3, -2)
    w = family_braid(3, 2)
    assert w.strands == 7
    assert w.letters[:5] == (6, -5, 4, -3, 2)
    assert w.letters[5:9] == (2, -3, 2, -3)


def test_family_words_enhanced():
    assert family_braid(2, 0, "enhanced").letters == (4, 3, 2, 1)
    w = family_braid(2, 1, "enhanced")
    phi = enhanced_phi(2)
    assert w.letters == (4, 3, 2) + phi.letters + (1,) + phi.inverse().letters
    with pytest.raises(FamilyError):
        family_braid(3, 1, "enhanced")
    assert family_braid(3, 1, "enhanced", allow_extension_fixture=True).strands == 7


def test_family_exponent_sum():
    # the stirring conjugation cancels, so the sum is power independent
    for n in (0, 1, 4):
        assert exponent_sum(family_braid(3, n)) == 0
        assert exponent_sum(family_braid(2, n, "enhanced")) == 4


def test_family_closures_are_knots():
    for genus in (1, 2, 3):
        for power in (0, 1, 3):
            for variant in ("original", "enhanced"):
                w = family_braid(
                    genus, power, variant, allow_extension_fixture=True
                )
                assert closure_components(w) == 1
