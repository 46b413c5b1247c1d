"""Burau and Seifert pipelines: Alexander polynomials, determinants, signatures."""

import importlib.util
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import polyref as ref
from braidkit import invariants, laurent
from braidkit.braid import BraidWord, closure_components, exponent_sum, family_braid
from braidkit.coverlift import lift_homological, seifert_from_monodromy
from braidkit.invariants import (
    SignatureMarginError,
    alexander_from_burau,
    alexander_from_seifert,
    brick_seifert,
    knot_determinant,
    reduced_burau,
    signature_function,
)
from braidkit.laurent import _divide, det_laurent, normalized, slot_bits, to_text
from braidkit.report import CONVENTION_FINGERPRINT

TREFOIL = BraidWord(2, (1, 1, 1))
FIG8 = BraidWord(3, (1, -2, 1, -2))
SIX_TWO = BraidWord(3, (1, 1, 1, -2, 1, -2))
SIX_THREE = BraidWord(3, (1, 1, -2, 1, -2, -2))


def homogeneous_knot_words(max_strands=4, max_len=10):
    """Words with sign-pure columns whose closure is a knot."""

    def build(n):
        signs = st.lists(
            st.sampled_from([1, -1]), min_size=n - 1, max_size=n - 1
        )
        body = st.lists(st.integers(1, n - 1), min_size=n - 1, max_size=max_len)
        return st.tuples(st.just(n), signs, body)

    def assemble(t):
        n, signs, body = t
        # force every column nonempty so the surface is connected
        letters = tuple(signs[i - 1] * i for i in body) + tuple(
            signs[i - 1] * i for i in range(1, n)
        )
        return BraidWord(n, letters)

    return (
        st.integers(2, max_strands)
        .flatmap(build)
        .map(assemble)
        .filter(lambda w: closure_components(w) == 1)
    )


# -- Burau pipeline ------------------------------------------------------


def _apply_letter(m, letter):
    """Right-multiply m in place by the reduced Burau matrix of one letter."""
    t, tinv = {1: 1}, {-1: 1}
    size = len(m)
    c = abs(letter) - 1
    for row in m:
        left = row[c - 1] if c > 0 else {}
        right = row[c + 1] if c + 1 < size else {}
        if letter > 0:
            row[c] = ref.add(ref.neg(ref.mul(t, row[c])), ref.mul(t, left), right)
        else:
            row[c] = ref.add(ref.neg(ref.mul(tinv, row[c])), left, ref.mul(tinv, right))


def _ref_matrix(burau):
    """The matrix that `reduced_burau` returned, as reference polynomials."""
    neg, rows = burau
    return [[ref.poly(-neg, p) for p in row] for row in rows]


def burau_oracle(word):
    """Reduced Burau matrix by reference column updates, in the form
    `reduced_burau` returns: (neg, rows of t**neg times it from t**0)."""
    if word.strands < 2:
        return 0, []
    m = ref.identity(word.strands - 1)
    for x in word.letters:
        _apply_letter(m, x)
    neg = sum(1 for x in word.letters if x < 0)
    return neg, [[ref.dense(ref.mul({neg: 1}, p)) for p in row] for row in m]


@st.composite
def burau_words(draw):
    """Words on 2..7 strands, length <= 120: mixed, all-positive or all-negative."""
    n = draw(st.integers(2, 7))
    index = st.integers(1, n - 1)
    letter = draw(
        st.sampled_from(
            [
                index.flatmap(lambda i: st.sampled_from([i, -i])),
                index,
                index.map(lambda i: -i),
            ]
        )
    )
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=120))))


@settings(max_examples=200, deadline=None)
@given(burau_words())
@example(BraidWord(1, ()))
@example(BraidWord(5, ()))
@example(BraidWord(3, (-1, -2) * 60))
@example(BraidWord(7, (1, 2, 3, 4, 5, 6) * 20))
def test_reduced_burau_matches_the_laurent_oracle(w):
    assert reduced_burau(w) == burau_oracle(w)


def _row_recursion(n, letters):
    """The largest entry of the t = 1 absolute-value recursion, row by row
    on padded rows: the oracle of the stacked columns of `_l1_bound`."""
    rows = [[int(i == j) for j in range(n + 1)] for i in range(1, n)]
    for x in letters:
        k = abs(x)
        for row in rows:
            row[k] += row[k - 1] + row[k + 1]
    return max(map(max, rows))


def _recursion_slot(word):
    """The t = 1 absolute-value recursion's slot, the rule for short words."""
    return slot_bits(_row_recursion(word.strands, word.letters))


@st.composite
def short_recursion_words(draw):
    """(n, letters): 2..14 strands and at most four chunks of letters, mixed
    or one letter repeated."""
    n = draw(st.integers(2, 14))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    size = 4 * invariants._CHUNK
    letters = draw(
        st.lists(letter, max_size=size)
        | st.tuples(letter, st.integers(0, size)).map(lambda pair: [pair[0]] * pair[1])
    )
    return n, tuple(letters)


@settings(max_examples=300, deadline=None)
@given(short_recursion_words())
@example((2, ()))
@example((14, ()))
@example((2, (1,) * 64))
@example((14, (7,) * 64))
@example((3, (1, -2) * 32))
@example((14, tuple(range(1, 14)) * 2 + tuple(range(13, 0, -1)) * 2 + (1,) * 12))
def test_stacked_recursion_matches_the_row_recursion(case):
    # one integer per column, the rows in fixed-width bit fields, gives the
    # largest entry of the row-by-row recursion exactly
    n, letters = case
    assert len(letters) <= 4 * invariants._CHUNK  # the recursion's branch
    assert invariants._l1_bound(n, letters) == _row_recursion(n, letters)


@settings(max_examples=60, deadline=None)
@given(
    burau_words().flatmap(
        lambda w: st.integers(0, 3).map(
            # (w w^-1)^k w cancels in the product, not in the recursion
            lambda k: BraidWord(
                w.strands, (w.letters + w.inverse().letters) * k + w.letters
            )
        )
    )
)
@example(BraidWord(5, (2, -3, 1, 2, 3, 4, -1) * 10))
def test_chunked_burau_slot_is_exact_and_never_wider(w):
    # past four chunks the slot comes from the chunks' l1 matrices; it holds
    # every coefficient (the oracle) and never exceeds the recursion's
    assert reduced_burau(w) == burau_oracle(w)
    bits = invariants._packed_burau(w.strands, w.letters)[1]
    if len(w.letters) > 4 * invariants._CHUNK:
        assert bits <= _recursion_slot(w)
    else:
        assert bits == _recursion_slot(w)


def test_family_burau_slots():
    # genus 2, enhanced: the chunked slot against the recursion's 288 and
    # 477 bits; the largest coefficients have 94 and 161 bits
    for power, slot, recursion, largest in ((6, 119, 288, 94), (10, 199, 477, 161)):
        word = family_braid(2, power, "enhanced")
        assert invariants._packed_burau(word.strands, word.letters)[1] == slot
        assert _recursion_slot(word) == recursion
        _, rows = reduced_burau(word)
        top = max(abs(c) for row in rows for p in row for c in p)
        assert top.bit_length() == largest


def _chunk_l1_oracle(n, chunk):
    """A chunk's l1 matrix from the reference Burau product."""
    return [[sum(map(abs, p)) for p in row] for row in burau_oracle(BraidWord(n, chunk))[1]]


@st.composite
def chunked_words(draw):
    """Words longer than four chunks, made of a few chunks that repeat and
    a tail shorter than a chunk."""
    n = draw(st.integers(2, 6))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    size = invariants._CHUNK
    pool = draw(st.lists(st.lists(letter, min_size=size, max_size=size), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=5, max_size=9))
    tail = draw(st.lists(letter, max_size=size - 1))
    return BraidWord(n, tuple(x for i in picks for x in pool[i]) + tuple(tail))


@settings(max_examples=40, deadline=None)
@given(chunked_words())
def test_cached_chunk_l1_bound_is_the_product_of_fresh_chunk_matrices(w):
    n, size = w.strands, invariants._CHUNK
    chunks = [w.letters[i : i + size] for i in range(0, len(w.letters), size)]
    product = _chunk_l1_oracle(n, chunks[0])
    for chunk in chunks[1:]:
        l1 = _chunk_l1_oracle(n, chunk)
        product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*l1)] for row in product]
    invariants._chunk_l1.cache_clear()
    assert invariants._l1_bound(n, w.letters) == max(map(max, product))
    # each distinct chunk is computed once, then read from the cache
    assert invariants._chunk_l1.cache_info().misses == len(set(chunks))
    assert invariants._l1_bound(n, w.letters) == max(map(max, product))
    assert invariants._chunk_l1.cache_info().misses == len(set(chunks))


def test_sweep_computes_each_chunk_once(monkeypatch):
    # genus 2, enhanced: the half-words start at one offset inside phi at
    # every power, so their chunks repeat within a word and across powers
    from braidkit.sweep import SweepConfig, run_sweep

    keys = []
    chunk_l1 = invariants._chunk_l1

    def recording_chunk_l1(n, chunk):
        keys.append((n, chunk))
        return chunk_l1(n, chunk)

    monkeypatch.setattr(invariants, "_chunk_l1", recording_chunk_l1)
    chunk_l1.cache_clear()
    records = run_sweep(
        SweepConfig(
            genus=(2,),
            power=tuple(range(7)),
            variants=("enhanced",),
            checks=("alexander",),
            parallelism=1,
        )
    )
    assert len(records) == 7
    assert all(r["status"] == "verified" for r in records)
    assert chunk_l1.cache_info().misses == len(set(keys))
    assert (len(keys), len(set(keys))) == (96, 28)


def _eliminations(compute):
    """Run compute() and count its calls of the one elimination loop."""
    calls = []
    real = laurent._bareiss_det

    def count(values, exps):
        calls.append(None)
        return real(values, exps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(laurent, "_bareiss_det", count)
        compute()
    return len(calls)


def test_example_sweep_burau_determinants_pick_their_slots():
    # every acceptance-grid word, the example sweep's 56 among them, is one
    # elimination at one slot on the two half-words
    for genus in range(1, 7):
        for power in range(0, 11):
            for variant in ("original", "enhanced"):
                word = family_braid(genus, power, variant, allow_extension_fixture=True)
                calls = _eliminations(lambda: alexander_from_burau(word))
                assert calls == 1, (genus, power, variant, calls)


def _minus(a, b):
    """a - b for two reference matrices."""
    return [[ref.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _det(m):
    """det of a reference Laurent matrix by `det_laurent`, which takes the
    entries times t**shift from t**0 and so returns t**(size shift) det."""
    shift = -min((e for row in m for p in row for e in p), default=0)
    rows = [[ref.dense(ref.mul({shift: 1}, p)) for p in row] for row in m]
    return ref.mul({-shift * len(m): 1}, ref.poly(0, det_laurent(rows)))


@settings(max_examples=80, deadline=None)
@given(burau_words().flatmap(lambda w: st.tuples(st.just(w), st.integers(0, len(w.letters)))))
@example((BraidWord(2, ()), 0))
@example((BraidWord(3, (1, -2, 1, -2)), 3))
@example((BraidWord(5, (2, -3, 1, 2, 3, 4, -1) * 10), 33))
def test_determinant_from_the_two_half_words(drawn):
    # rho(w) - I = rho(w1) (rho(w2) - rho(w1^-1)) and det rho(w1) = (-t)**e(w1)
    w, drawn_split = drawn
    n = w.strands
    whole = _det(_minus(_ref_matrix(reduced_burau(w)), ref.identity(n - 1)))
    for h in {0, len(w.letters) // 2, len(w.letters), drawn_split}:
        w1 = BraidWord(n, w.letters[:h])
        w2 = BraidWord(n, w.letters[h:])
        halves = _det(
            _minus(_ref_matrix(reduced_burau(w2)), _ref_matrix(reduced_burau(w1.inverse())))
        )
        unit = {exponent_sum(w1): (-1) ** h}
        assert whole == ref.mul(unit, halves), (w, h)


def _knot(w):
    """w followed by the letters sigma_i that each join two closure components."""
    letters = w.letters
    for i in range(1, w.strands):
        longer = BraidWord(w.strands, letters + (i,))
        if closure_components(longer) < closure_components(BraidWord(w.strands, letters)):
            letters = longer.letters
    return BraidWord(w.strands, letters)


def _alexander_from_the_whole_word(word):
    """The formula before the split: det(rho(w) - I) / (1 + ... + t^(n-1))."""
    n = word.strands
    det = _det(_minus(_ref_matrix(reduced_burau(word)), ref.identity(n - 1)))
    # the lowest exponent of det is a unit
    quotient, remainder = _divide(ref.dense(ref.mul({-min(det, default=0): 1}, det)), [1] * n)
    assert not any(remainder)
    return normalized(quotient)


@settings(max_examples=150, deadline=None)
@given(
    burau_words().map(_knot).flatmap(
        lambda w: st.integers(0, 6).map(
            # (w w^-1)^k w is the same braid; its halves pass four chunks
            lambda k: BraidWord(
                w.strands, (w.letters + w.inverse().letters) * k + w.letters
            )
        )
    )
)
@example(BraidWord(2, (1,)))
@example(FIG8)
@example(BraidWord(5, (2, -3, 1, 2, 3, 4, -1) * 10 + (1, -2, 3, 4) + (-1, 2, 3) * 20))
# one half cancels in its product, so its bound alone is far too narrow
# for the difference; the common slot needs the other half's bound too
@example(BraidWord(3, (1, -2) * 34 + (2, -2) * 34))
@example(BraidWord(3, (2, -2) * 34 + (1, -2) * 34))
def test_alexander_from_the_half_words_matches_the_whole_word(w):
    assert alexander_from_burau(w) == _alexander_from_the_whole_word(w)


def test_reduced_burau_b2():
    # (neg, rows): t**neg times the matrix, neg the negative letters
    assert reduced_burau(BraidWord(2, (1,))) == (0, [[(0, -1)]])
    assert reduced_burau(BraidWord(2, (-1,))) == (1, [[(-1,)]])
    assert reduced_burau(BraidWord(2, (1, -1))) == (1, [[(0, 1)]])
    assert reduced_burau(BraidWord(2, ())) == (0, [[(1,)]])
    assert reduced_burau(BraidWord(1, ())) == (0, [])


def test_reduced_burau_respects_relations():
    assert reduced_burau(BraidWord(3, (1, 2, 1))) == reduced_burau(
        BraidWord(3, (2, 1, 2))
    )
    assert reduced_burau(BraidWord(4, (1, 3))) == reduced_burau(
        BraidWord(4, (3, 1))
    )


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.integers(1, 3).flatmap(lambda i: st.sampled_from([i, -i])),
        max_size=8,
    )
)
def test_reduced_burau_is_a_homomorphism(letters):
    w = BraidWord(4, tuple(letters))
    burau, inverse = _ref_matrix(reduced_burau(w)), _ref_matrix(reduced_burau(w.inverse()))
    assert ref.mat_mul(burau, inverse) == ref.identity(3)


def test_alexander_known_knots():
    assert to_text(alexander_from_burau(TREFOIL)) == "0|1 -1 1"
    assert alexander_from_burau(FIG8) == (1, -3, 1)
    assert alexander_from_burau(BraidWord(2, (1,) * 5)) == (1, -1, 1, -1, 1)
    assert alexander_from_burau(BraidWord(2, (1,) * 7)) == (1, -1, 1, -1, 1, -1, 1)
    assert alexander_from_burau(BraidWord(2, (1,))) == (1,)
    # mirror image has the same Alexander polynomial
    assert alexander_from_burau(TREFOIL.mirror()) == (1, -1, 1)


def test_alexander_rejects_links():
    with pytest.raises(ValueError):
        alexander_from_burau(BraidWord(3, (1,)))
    with pytest.raises(ValueError):
        alexander_from_burau(BraidWord(2, (1, 1)))


# -- brick Seifert pipeline ----------------------------------------------


def test_brick_trefoil_matrices():
    assert brick_seifert(TREFOIL) == ((-1, 1), (0, -1))
    assert brick_seifert(TREFOIL.mirror()) == ((1, 0), (-1, 1))
    assert brick_seifert(FIG8) == ((-1, 0), (1, 1))
    # one brick, no generators: the unknot has an empty Seifert matrix
    assert brick_seifert(BraidWord(2, (1,))) == ()


def test_report_fingerprint_states_the_brick_sign_table():
    # reports describe the table they were made with; a change to the
    # table that left the fingerprint alone would mislabel every report
    assert CONVENTION_FINGERPRINT["brick_table"] == {
        "diagonal": "-column_sign",
        "shared_positive": list(invariants._SHARED_POS),
        "shared_negative": list(invariants._SHARED_NEG),
        "interleave_low_first": list(invariants._INTERLEAVE_LOW_FIRST),
        "interleave_high_first": list(invariants._INTERLEAVE_HIGH_FIRST),
    }
    # the diagonal rule: a brick links itself minus its column's sign
    for sign in (1, -1):
        s = brick_seifert(BraidWord(3, (sign, -2, sign, -2)))
        assert (s[0][0], s[1][1]) == (-sign, 1)


def test_brick_rank_counts_bands():
    # rank = crossings - strands + 1 for a connected Bennequin surface
    assert len(brick_seifert(SIX_TWO)) == 4
    assert len(brick_seifert(BraidWord(2, (1,) * 9))) == 8


def test_brick_rejects_bad_words():
    with pytest.raises(ValueError):
        brick_seifert(BraidWord(2, (1, 1, -1)))  # mixed-sign column
    with pytest.raises(ValueError):
        brick_seifert(BraidWord(3, (1,)))  # missing column
    with pytest.raises(ValueError):
        brick_seifert(BraidWord(2, (1, 1)))  # link closure


def test_seifert_alexander_matches_burau():
    for w in (TREFOIL, FIG8, SIX_TWO, SIX_THREE, BraidWord(2, (1,) * 5)):
        lhs = alexander_from_seifert(brick_seifert(w))
        assert lhs == alexander_from_burau(w)


@pytest.mark.parametrize(
    "word",
    [BraidWord(3, (1,) * 61 + (-2,) * 61), BraidWord(2, (1,) * 121)],
    ids=["s1^61 s2^-61", "s1^121"],
)
def test_sparse_brick_pencils_match_burau(word):
    # 120 x 120 brick pencils that are zero off a narrow band: the
    # elimination leaves the rows below the band unscaled until they meet it
    assert len(brick_seifert(word)) == 120
    assert alexander_from_seifert(brick_seifert(word)) == alexander_from_burau(word)


def test_seifert_matrix_helpers():
    # a Seifert form is a square tuple of int tuples
    for form in (((1, 2),), ((1, 2), (3,)), ((1,), (2, 3))):
        with pytest.raises(ValueError, match="non-square pencil"):
            alexander_from_seifert(form)
        with pytest.raises(ValueError, match="must be square"):
            signature_function(form)


@settings(max_examples=120, deadline=None)
@given(homogeneous_knot_words())
def test_pipelines_agree_on_homogeneous_words(w):
    lhs = alexander_from_seifert(brick_seifert(w))
    rhs = alexander_from_burau(w)
    assert lhs == rhs


# -- numeric invariants --------------------------------------------------


def test_signatures_match_tables():
    assert signature_function(brick_seifert(TREFOIL)) == -2
    assert signature_function(brick_seifert(TREFOIL.mirror())) == 2
    assert signature_function(brick_seifert(FIG8)) == 0
    assert signature_function(brick_seifert(SIX_TWO)) == -2
    assert signature_function(brick_seifert(SIX_THREE)) == 0
    assert signature_function(brick_seifert(BraidWord(2, (1,) * 9))) == -8
    assert signature_function(brick_seifert(BraidWord(2, (1,)))) == 0


def test_signature_off_minus_one_jumps_at_the_alexander_roots():
    # the trefoil's Alexander roots sit at exp(+-i pi/3), between (4/5, 3/5)
    # and (0, 1): the signature reads 0 before the root and the omega = -1
    # value after it
    form = brick_seifert(TREFOIL)
    assert signature_function(form, (Fraction(4, 5), Fraction(3, 5))) == 0
    assert signature_function(form, (0, 1)) == -2
    assert signature_function(form, (Fraction(-4, 5), Fraction(3, 5))) == -2


def test_signature_takes_exact_points_of_the_circle():
    # the zero form is singular at every point, omega = -1 included
    with pytest.raises(SignatureMarginError):
        signature_function(((0, 0), (0, 0)), (0, 1))
    with pytest.raises(SignatureMarginError):
        signature_function(((0, 0), (0, 0)))
    form = brick_seifert(TREFOIL)
    for omega in (1j, -1.0, (0.6, 0.8), (1, 1), (Fraction(1, 2), Fraction(1, 2)), (1, 0)):
        with pytest.raises(ValueError) as excinfo:
            signature_function(form, omega)
        assert excinfo.type is ValueError, omega


@pytest.mark.parametrize(
    "point",
    [(-1, 0), (Fraction(3, 5), Fraction(4, 5)), (0, 1), (Fraction(-7, 25), Fraction(24, 25))],
)
@pytest.mark.parametrize("form", ["6_2", "lift"])
def test_signature_eliminates_charpolys_rows_with_the_blocks_swapped(monkeypatch, form, point):
    s = brick_seifert(SIX_TWO) if form == "6_2" else seifert_from_monodromy(
        lift_homological(family_braid(3, 2, "enhanced", allow_extension_fixture=True))
    )
    m = len(s)
    x, y = map(Fraction, point)
    a, b = x.denominator - x.numerator, y.numerator
    big_a = [[a * (s[i][j] + s[j][i]) for j in range(m)] for i in range(m)]
    big_b = [[b * (s[j][i] - s[i][j]) for j in range(m)] for i in range(m)]
    # the realified form M = [[A, -B], [B, A]]
    realified = [ra + [-v for v in rb] for ra, rb in zip(big_a, big_b)] + [
        rb + ra for ra, rb in zip(big_a, big_b)
    ]
    rows, bits = laurent._charpoly_rows(realified)
    handed, slots = [], []
    real_plain, real_slot = invariants._bareiss_plain, laurent._det_slot_bits

    def eliminate(matrix):
        handed.append([list(row) for row in matrix])
        upper, det = real_plain(matrix)
        handed.append(det)
        return upper, det

    def slot(row_squares):
        slots.append(real_slot(row_squares))
        return slots[-1]

    monkeypatch.setattr(invariants, "_bareiss_plain", eliminate)
    monkeypatch.setattr(laurent, "_det_slot_bits", slot)
    signature_function(s, point)
    poly = laurent.charpoly(realified)
    assert handed[0] == rows[m:] + rows[:m]
    # at charpoly's own slot, and (-1)^m times its polynomial
    assert slots == [bits, bits]
    assert tuple(laurent._unpack(handed[1], bits)) == tuple((-1) ** m * c for c in poly)


def circle_points():
    """(-1, 0) and the rational points ((1 - s^2) / (1 + s^2), 2s / (1 + s^2)), s != 0."""
    s = st.fractions(-20, 20, max_denominator=30).filter(lambda s: s != 0)
    return st.just((-1, 0)) | s.map(lambda s: ((1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-3, 3), min_size=m, max_size=m), min_size=m, max_size=m
        )
    ),
    circle_points(),
)
# omega = -1, where the antisymmetric block B of the realified form is 0
@example([[1, 1], [0, 1]], (-1, 0))
@example([[-1, 0, 2], [1, 3, 0], [0, -2, 1]], (-1, 0))
def test_exact_signature_matches_floating_point_eigenvalues(rows, point):
    numpy = pytest.importorskip("numpy")
    s = numpy.array(rows, dtype=float)
    omega = complex(*map(float, point))
    eigs = numpy.linalg.eigvalsh((1 - omega) * s + (1 - omega.conjugate()) * s.T)
    # a float eigenvalue this close to 0 decides nothing
    assume(min(abs(eigs)) > 1e-7)
    expected = int(numpy.sum(eigs > 0) - numpy.sum(eigs < 0))
    assert signature_function(rows, point) == expected


def family_seifert_forms():
    def form(case):
        genus, power, variant = case
        word = family_braid(genus, power, variant, allow_extension_fixture=True)
        return seifert_from_monodromy(lift_homological(word))

    cases = st.tuples(
        st.integers(1, 4), st.integers(0, 10), st.sampled_from(["original", "enhanced"])
    )
    return cases.map(form)


@settings(max_examples=200, deadline=None)
@given(homogeneous_knot_words().map(brick_seifert) | family_seifert_forms(), circle_points())
def test_knot_signatures_never_raise_and_are_conjugation_symmetric(form, point):
    # Delta(1) = +-1 keeps every rational point of the circle off the roots
    # of Delta, and the form at conj(omega) is the transpose of the form at
    # omega, with the same eigenvalues
    x, y = point
    assert signature_function(form, (x, y)) == signature_function(form, (x, -y))


def test_importing_the_cli_leaves_numpy_unloaded():
    # braidkit has no runtime dependency: in an interpreter that could import
    # numpy, importing every submodule loads none of it, and every module it
    # adds to those a bare interpreter starts with (site hooks included) is
    # from the standard library or braidkit
    walk = (
        "import importlib, pkgutil, braidkit\n"
        "for m in pkgutil.walk_packages(braidkit.__path__, 'braidkit.'):\n"
        "    importlib.import_module(m.name)\n"
    )
    dump = "import json, sys\nprint(json.dumps(sorted(sys.modules)))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def modules(code):
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        return set(json.loads(result.stdout))

    baseline, loaded = modules(dump), modules(walk + dump)
    assert "braidkit.cli" in loaded and "numpy" not in loaded
    tops = {name.partition(".")[0] for name in loaded - baseline}
    assert tops <= set(sys.stdlib_module_names) | {"braidkit"}


def test_signature_margin_guard():
    # omega = -1 annihilates this form, so no signed count is possible
    with pytest.raises(SignatureMarginError):
        signature_function(((0, 0), (0, 0)))


def test_determinants():
    for word, det in ((TREFOIL, 3), (FIG8, 5), (SIX_TWO, 11), (SIX_THREE, 13)):
        assert knot_determinant(alexander_from_burau(word)) == det
    assert knot_determinant(alexander_from_burau(BraidWord(2, (1,)))) == 1
    assert knot_determinant((1,)) == 1
    # the alternating sum, whatever the sign or the power of t
    assert knot_determinant((0, 0, -1, 3, -1)) == 5


def _crosscheck_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "crosscheck_pipelines.py"
    spec = importlib.util.spec_from_file_location("crosscheck_pipelines", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_crosscheck_script_smoke(capsys):
    # the Burau slot path against the Seifert pencil path on random
    # homogeneous knots, through the script's own entry point
    script = _crosscheck_script()
    start = time.perf_counter()
    code = script.main(["--count", "300", "--max-strands", "7", "--max-len", "24"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "300 words, 0 mismatches" in capsys.readouterr().out
    assert elapsed < 2.0


def test_crosscheck_script_rejects_bad_ranges(capsys):
    # ranges that give a randrange traceback, a search that finds no knot,
    # or a run over no words
    script = _crosscheck_script()
    for argv, message in (
        (["--count", "-4"], "--count -4 is below 1"),
        (["--count", "0"], "--count 0 is below 1"),
        (["--max-strands", "1"], "--max-strands 1 is below 2"),
        (["--max-len", "0"], "--max-len 0 is below 4"),
        (["--max-strands", "7", "--max-len", "5"], "--max-len 5 is below 6"),
        # two strands and one letter beside sigma_1 make only 2-component links
        (["--max-strands", "2", "--max-len", "1"], "--max-len 1 is below 2"),
    ):
        assert script.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert message in captured.err and "words" not in captured.out, argv
    # the least valid ranges run
    for strands, length in (("2", "2"), ("3", "2"), ("4", "3")):
        argv = ["--count", "3", "--max-strands", strands, "--max-len", length]
        assert script.main(argv) == 0, argv
        assert "3 words, 0 mismatches" in capsys.readouterr().out, argv
