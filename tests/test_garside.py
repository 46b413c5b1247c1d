"""Left-greedy normal forms and word equality."""

import pytest
from hypothesis import given, settings, strategies as st

from braidkit.braid import BraidWord, Permutation
from braidkit.garside import (
    delta_word,
    finishing_set,
    full_twist,
    is_trivial_word,
    longest_element,
    normal_form,
    periodic_identity_check,
    permutation_length,
    simple_to_word,
    starting_set,
    words_equal,
)


def words(max_strands=5, max_len=10):
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


# -- Coxeter bookkeeping -------------------------------------------------


def test_longest_element_and_length():
    w0 = longest_element(4)
    assert w0.images == (4, 3, 2, 1)
    assert permutation_length(w0) == 6
    assert permutation_length(Permutation((1, 2, 3, 4))) == 0


def test_descent_sets():
    w0 = longest_element(3)
    assert starting_set(w0) == {1, 2}
    assert finishing_set(w0) == {1, 2}
    t = Permutation.transposition(4, 2)
    assert starting_set(t) == {2} and finishing_set(t) == {2}


def test_simple_to_word_reduced():
    w0 = longest_element(3)
    word = simple_to_word(w0, 3)
    assert len(word) == permutation_length(w0)
    nf = normal_form(word)
    assert nf.power == 1 and not nf.factors


# -- normal form ---------------------------------------------------------


def test_trivial_words():
    assert is_trivial_word(BraidWord(3, ()))
    assert is_trivial_word(BraidWord(3, (1, -1)))
    assert is_trivial_word(BraidWord(4, (2, 3, -3, -2)))
    assert not is_trivial_word(BraidWord(3, (1,)))


def test_delta_words():
    assert delta_word(2).letters == (1,)
    assert delta_word(3).letters == (1, 2, 1)
    assert delta_word(4).letters == (1, 2, 1, 3, 2, 1)
    assert full_twist(2).letters == (1, 1)


def test_negative_letter_normal_form():
    # in B_2 the single negative letter is exactly Delta^-1
    nf = normal_form(BraidWord(2, (-1,)))
    assert nf.power == -1 and not nf.factors


def test_braid_relation():
    assert words_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert words_equal(BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))
    assert not words_equal(BraidWord(3, (1, 2)), BraidWord(3, (2, 1)))
    with pytest.raises(ValueError):
        words_equal(BraidWord(3, (1,)), BraidWord(4, (1,)))


def test_delta_conjugation_flips_indices():
    # Delta sigma_i Delta^-1 = sigma_(n-i)
    n = 4
    d = delta_word(n)
    for i in (1, 2, 3):
        lhs = d * BraidWord(n, (i,)) * d.inverse()
        assert words_equal(lhs, BraidWord(n, (n - i,)))


@settings(max_examples=60, deadline=None)
@given(words(max_strands=4, max_len=8))
def test_full_twist_is_central(w):
    tw = full_twist(w.strands)
    assert words_equal(tw * w, w * tw)


@settings(max_examples=60, deadline=None)
@given(words(max_strands=4, max_len=8))
def test_normal_form_word_represents_same_element(w):
    assert words_equal(normal_form(w).as_word(), w)


@settings(max_examples=60, deadline=None)
@given(words(max_strands=4, max_len=6), st.data())
def test_relation_insertion_preserves_equality(w, data):
    n = w.strands
    pos = data.draw(st.integers(0, len(w.letters)))
    if n >= 3:
        i = data.draw(st.integers(1, n - 2))
        patch = (i, i + 1, i, -(i + 1), -i, -(i + 1))
    else:
        patch = (1, -1)
    stuffed = BraidWord(n, w.letters[:pos] + patch + w.letters[pos:])
    assert words_equal(w, stuffed)


def test_periodic_identity_small_genus():
    assert periodic_identity_check(1)
    assert periodic_identity_check(2)
