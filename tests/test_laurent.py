"""Integer polynomials as dense tuples, their products, determinants, and
Sturm counting."""

from fractions import Fraction
from functools import cache
from itertools import zip_longest
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

import polyref as ref
from braidkit import laurent
from braidkit.braid import family_braid
from braidkit.coverlift import lift_homological, seifert_from_monodromy
from braidkit.invariants import alexander_from_seifert
from braidkit.laurent import (
    _bareiss_det,
    _bareiss_plain,
    _divide,
    _mul,
    _pack,
    _sign_changes,
    _unpack,
    charpoly,
    count_roots_in,
    det_laurent,
    det_transpose_pencil,
    normalized,
    slot_bits,
    sturm_chain,
    to_text,
)

# dense ascending coefficients, empty, zero-padded or constant among them
small_dense = st.lists(st.integers(-9, 9), max_size=6)
# the same as tuples, often with low zeros: a power of t times a polynomial
small_polys = st.builds(
    lambda low, coeffs: (0,) * low + tuple(coeffs), st.integers(0, 4), small_dense
)


def _ref(p):
    """A dense tuple as a reference polynomial."""
    return ref.poly(0, p)


def _at(p, x):
    """The value of the dense p at the integer x, by the reference."""
    return ref.at(_ref(p), x)


def _from_text(text):
    """The polynomial that `to_text` printed."""
    head, _, tail = text.partition("|")
    assert head == "0"
    return tuple(int(tok) for tok in tail.split())


# -- values and the dense product ----------------------------------------


def test_construction_and_trim():
    assert normalized((0, 1, 2, 0)) == (1, 2)
    assert normalized([0, 0]) == ()
    assert normalized(()) == ()


def test_det_laurent_rejects_non_integers():
    # entries take integers only: a float or Fraction would make an inexact
    # "integer" determinant
    with pytest.raises(TypeError):
        det_laurent([[(Fraction(1, 2), 2)]])
    with pytest.raises(TypeError):
        det_laurent([[(1.9, 2)]])
    with pytest.raises(TypeError):
        det_laurent([[(1, 2), ()], [(), (2.0,)]])
    with pytest.raises(TypeError):
        det_laurent([[(0,), (Fraction(0),)], [(1,), (1,)]])


def test_basic_identities():
    t = [0, 1]
    assert _mul(t, t) == [0, 0, 1]
    assert _mul([1], t) == t
    assert _mul(t, []) == [] and _mul([], []) == []
    assert normalized((0, 0, 5)) == (5,)


def test_unit_normalization():
    p = (0, 0, -1, 3, -1)
    n = normalized(p)
    assert n == (1, -3, 1)
    assert normalized(n) == n
    assert normalized((-1, 3, -1, 0)) == n
    assert normalized(p) != normalized((1,))
    assert normalized((0, -7)) == (7,)


@given(st.integers(0, 3), small_dense, st.integers(0, 3))
@example(0, [], 0)  # the zero polynomial
@example(2, [0, 0], 1)
@example(2, [-1, 3, -1], 2)  # zeros at both ends, a negative lowest coefficient
@example(0, [-4, 0, 2], 0)
def test_normalized_matches_the_reference(low, coeffs, high):
    # the reference trims at both ends; normalized agrees up to sign, and
    # takes the sign that makes the constant term positive
    p = (0,) * low + tuple(coeffs) + (0,) * high
    q = _ref(p)
    expected = ref.dense(ref.mul({-min(q, default=0): 1}, q))
    assert normalized(p) in (expected, tuple(-c for c in expected))
    assert normalized(p)[:1] == tuple(abs(c) for c in expected[:1])


def test_text_round_trip_fixed():
    # the report text: exponent 0, a bar, the coefficients as given
    assert to_text(normalized(())) == "0|"
    assert to_text(normalized((0, 0, -1, 3, -1, 0))) == "0|1 -3 1"
    assert to_text(normalized((-2, 0, 5, 0))) == "0|2 0 -5"
    assert to_text((1,)) == "0|1"
    assert to_text((-1, -1, 1)) == "0|-1 -1 1"


@given(small_polys)
def test_text_round_trip(p):
    assert _from_text(to_text(p)) == p


@given(small_dense, small_dense, small_dense)
@example([], [1, 2], [3])
@example([0, 2, 0, 0], [5], [1, 0])
@example([7], [-3], [0, 0])
def test_ring_axioms(a, b, c):
    # _mul is the reference product, and so commutative, associative and
    # distributive over the padded sum
    assert ref.poly(0, _mul(a, b)) == ref.mul(ref.poly(0, a), ref.poly(0, b))
    assert _mul(a, b) == _mul(b, a)
    assert _mul(_mul(a, b), c) == _mul(a, _mul(b, c))
    b_plus_c = [x + y for x, y in zip_longest(b, c, fillvalue=0)]
    assert ref.poly(0, _mul(a, b_plus_c)) == ref.add(
        ref.poly(0, _mul(a, b)), ref.poly(0, _mul(a, c))
    )


def _span(p):
    """The lowest and highest exponents of the nonzero dense p."""
    nonzero = [i for i, c in enumerate(p) if c]
    return nonzero[0], nonzero[-1]


@given(small_dense, small_dense)
@example([], [0, 0])
@example([0, 0, 3, 0], [2])
@example([4], [0, 1, 0])
def test_multiplication_degree_and_division(a, b):
    p = _mul(a, b)
    # untrimmed lengths add as degrees do, and the product is empty with a
    # factor
    assert len(p) == (len(a) + len(b) - 1 if a and b else 0)
    if not any(a) or not any(b):
        assert not any(p)
        return
    # the lowest and highest exponents add
    (la, ha), (lb, hb) = _span(a), _span(b)
    assert _span(p) == (la + lb, ha + hb)
    # and dividing by b without its top zeros leaves no remainder
    quo, rem = _divide(p, b[: hb + 1])
    assert not any(rem)
    assert ref.poly(0, quo) == ref.mul(ref.poly(0, a), {0: abs(b[hb]) ** len(quo)})


@given(small_dense, st.integers(-3, 3))
def test_eval_is_ring_hom(a, x):
    v = _at(a, x)
    square_plus = [s + c for s, c in zip_longest(_mul(a, a), a, fillvalue=0)]
    assert _at(square_plus, x) == v * v + v


# -- determinants and characteristic polynomials -------------------------


def test_det_2x2():
    t = (0, 1)
    one = (1,)
    m = [[t, one], [one, t]]
    assert det_laurent(m) == (-1, 0, 1)
    assert det_laurent([[t]]) == t
    # low zeros are kept, top zeros dropped
    assert det_laurent([[(0, 0, 2, 0)]]) == (0, 0, 2)
    assert det_laurent([]) == (1,)


def test_det_singular():
    t = (0, 1)
    m = [[t, t], [t, t]]
    assert det_laurent(m) == ()


def _cofactor_det(m):
    """det(m) of a matrix of dense tuples by the reference expansion."""
    return ref.dense(ref.cofactor_det([[_ref(p) for p in row] for row in m]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(
                st.builds(
                    lambda low, coeffs: (0,) * low + tuple(coeffs),
                    st.integers(1, 6),
                    small_dense,
                ),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
)
@example([[(0, 0, 3)]])
@example([[(0, 1), (0, 0, 0, -2)], [(0, 0, 5), (0, 7, 1)]])
def test_det_of_entries_with_low_zeros_matches_cofactor_expansion(m):
    # every entry starts with at least one zero: the powers of t move into
    # the elimination's exponents, and the result keeps its low zeros
    assert det_laurent(m) == _cofactor_det(m)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(small_polys, min_size=3, max_size=3), min_size=3, max_size=3
    )
)
def test_det_matches_cofactor_expansion(m):
    assert det_laurent(m) == _cofactor_det(m)


# one row far larger than the others, so that row sets the Hadamard slot
_unit = st.integers(-1, 1)
_huge = st.integers(-(2**60), 2**60)


def _pencil(a, b):
    return (a, b)


@st.composite
def skewed_pencils(draw):
    """n x n integer pencils, one row with 60-bit entries, the rest units."""
    n = draw(st.integers(1, 6))
    big = draw(st.integers(0, n - 1))
    return [
        [
            _pencil(draw(_huge), draw(_huge))
            if i == big
            else _pencil(draw(_unit), draw(_unit))
            for _ in range(n)
        ]
        for i in range(n)
    ]


@settings(max_examples=30, deadline=None)
@given(skewed_pencils())
def test_det_of_skewed_pencils_matches_cofactor_expansion(m):
    assert det_laurent(m) == _cofactor_det(m)


@settings(max_examples=40, deadline=None)
@given(
    st.permutations(range(6)).flatmap(
        lambda perm: st.tuples(
            st.just(perm),
            st.lists(
                st.integers(1, 2**40).flatmap(
                    lambda c: st.sampled_from([c, -c])
                ),
                min_size=6,
                max_size=6,
            ),
            st.lists(st.integers(0, 8), min_size=6, max_size=6),
        )
    )
)
def test_det_of_monomial_matrices_meets_the_bound(case):
    # one nonzero monomial per row and column: the determinant is a single
    # monomial whose coefficient equals the product of row l1 norms
    perm, coeffs, exps = case
    n = len(perm)
    m = [
        [(0,) * exps[i] + (coeffs[i],) if j == perm[i] else () for j in range(n)]
        for i in range(n)
    ]
    det = det_laurent(m)
    assert det == _cofactor_det(m)
    bound = 1
    for c in coeffs:
        bound *= abs(c)
    low = (0,) * sum(exps)
    assert det in (low + (bound,), low + (-bound,))


def test_det_near_the_row_l1_bound():
    # a row bound taken from one coefficient per entry, or from one entry
    # per row, would be too narrow for these determinants
    lift = ref.power({0: 1, 1: 1}, 10)
    diagonal = [
        [ref.dense(lift) if i == j else () for j in range(3)] for i in range(3)
    ]
    assert det_laurent(diagonal) == ref.dense(ref.power(lift, 3))
    # rows of +-1 with |det| = 8**4 (Hadamard's equality), one row scaled
    h = [[(-1) ** bin(i & j).count("1") for j in range(8)] for i in range(8)]
    m = [[(x,) for x in row] for row in h]
    m[0] = [ref.dense(ref.mul(lift, {0: x})) for x in h[0]]
    expected = ref.mul({0: 8**4}, lift)
    assert _ref(det_laurent(m)) in (expected, ref.neg(expected))


def test_det_with_a_zero_row():
    big = (2**50, -(2**50), 7)
    m = [
        [big, (0, 1), big],
        [()] * 3,
        [(1,), big, big],
    ]
    assert det_laurent(m) == ()
    assert _cofactor_det(m) == ()
    for k in range(3):
        rotated = m[k:] + m[:k]
        assert det_laurent(rotated) == ()


# the elimination keeps each entry as an odd mantissa times a power of
# two; these cases give the exponents work: alignment shifts, even
# coefficients, zero pivots that swap rows, and singular matrices
_long_coeffs = st.lists(
    st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40)), max_size=10
)
_staggered = st.one_of(
    st.just(()),
    st.builds(lambda e, cs: (0,) * e + tuple(cs), st.integers(0, 60), _long_coeffs),
    st.builds(
        lambda c, k, e: (0,) * e + (c << k,),
        st.integers(-9, 9),
        st.integers(0, 70),
        st.integers(0, 60),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(_staggered, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_det_of_staggered_laurent_matrices_matches_cofactor_expansion(m):
    assert det_laurent(m) == _cofactor_det(m)


def _int_det(rows):
    return ref.cofactor_det([[ref.poly(0, (x,)) for x in row] for row in rows]).get(0, 0)


_two_adic = st.one_of(
    st.just(0),
    st.builds(
        lambda c, k: c << k, st.integers(-(2**20), 2**20), st.integers(0, 200)
    ),
)


@st.composite
def two_adic_matrices(draw):
    """(values, exps): entries values[i][j] << exps[i][j], often zero.

    The leading column is zero down to a drawn row, so the first pivot
    needs a row swap; a singular case repeats a row times a power of two.
    """
    n = draw(st.integers(1, 6))
    values = [[draw(_two_adic) for _ in range(n)] for _ in range(n)]
    exps = [[draw(st.integers(0, 90)) for _ in range(n)] for _ in range(n)]
    for i in range(draw(st.integers(0, n))):
        values[i][0] = 0
    if n > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        scale = draw(st.integers(0, 60))
        values[dst] = [v << (scale + exps[src][j]) for j, v in enumerate(values[src])]
        exps[dst] = [0] * n
    return values, exps


@settings(max_examples=200, deadline=None)
@given(two_adic_matrices())
def test_mantissa_elimination_matches_the_integer_determinant(case):
    values, exps = case
    expected = _int_det(
        [[v << e for v, e in zip(vr, er)] for vr, er in zip(values, exps)]
    )
    assert _bareiss_det(values, exps) == expected


# -- the integer elimination -------------------------------------------
#
# `_bareiss_plain` takes the integer matrices (pencils, the Gram matrix and
# the Seifert solve); its signed determinant must be that of the mantissa
# elimination and of the cofactor expansion.

_plain_entry = st.one_of(
    st.just(0),
    st.sampled_from([0, 0, 1, -1]),
    st.integers(-(2**20), 2**20),
    st.integers(-(2**90), 2**90),
)


@st.composite
def plain_matrices(draw):
    """Square int matrices of size 0..7, often sparse, with the rows
    shuffled, so that pivots need row swaps and rows that sat out a step
    are swapped in; some zero a column or a row, or carry a diagonal far
    heavier than the rest of its row before the shuffle."""
    n = draw(st.integers(0, 7))
    rows = [[draw(_plain_entry) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        for i in range(n):
            rows[i][i] += draw(st.sampled_from([-1, 1])) << draw(st.integers(40, 200))
    rows = [rows[i] for i in draw(st.permutations(range(n)))]
    shape = draw(st.sampled_from([None, "column", "row"])) if n else None
    if shape == "column":
        c = draw(st.integers(0, n - 1))
        for row in rows:
            row[c] = 0
    elif shape == "row":
        rows[draw(st.integers(0, n - 1))] = [0] * n
    return rows


@settings(max_examples=150, deadline=None)
@given(plain_matrices())
# one row swap, so the sign flips once
@example([[0, 2], [3, 5]])
# a pivot that needs a row swap at every step: the sign flips twice
@example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
# row 1 sits out step 0 and is swapped in at step 1 past the stale row 2,
# whose divisor must travel with it
@example([[2, 1, 1], [0, 0, 3], [5, 0, 7]])
# a zero column after step 0
@example([[1, 1, 0], [1, 1, 0], [0, 5, 3]])
def test_integer_elimination_matches_the_mantissa_one_and_the_cofactors(rows):
    n = len(rows)
    expected = _int_det(rows)
    upper, det = _bareiss_plain([list(row) for row in rows])
    assert det == expected
    assert det == _bareiss_det([list(row) for row in rows], [[0] * n for _ in range(n)])
    # the pivot rows stop short exactly when the determinant is 0
    assert upper == _gaussian_pivot_rows(rows)
    assert (len(upper) == n) == bool(det)


def _gaussian_pivot_rows(rows):
    """Rational elimination by the same pivot rule, each pivot row from its
    pivot column on times the product of the pivots before it: the pivot
    rows of Bareiss, whose pivots are the leading minors."""
    rows = [[Fraction(x) for x in row] for row in rows]
    out, minor = [], 1
    for k in range(len(rows)):
        r = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if r is None:
            break
        rows[k], rows[r] = rows[r], rows[k]
        pivot = rows[k]
        out.append([minor * x for x in pivot[k:]])
        minor *= pivot[k]
        for row in rows[k + 1 :]:
            f = row[k] / pivot[k]
            row[k:] = [x - f * y for x, y in zip(row[k:], pivot[k:])]
    return out


def test_integer_elimination_swaps_only_where_the_pivot_entry_is_zero():
    # step 0 pivots in place; after it row 1 leads with 0, so step 1 swaps
    # in row 2 and the sign flips once
    rows = [[1, 2, 3], [2, 4, 1], [1, 3, 2]]
    upper, det = _bareiss_plain([list(row) for row in rows])
    assert det == _int_det(rows) == 5
    assert upper == _gaussian_pivot_rows(rows) == [[1, 2, 3], [1, -1], [-5]]
    # every pivot in place: no swap, no sign flip
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    upper, det = _bareiss_plain([list(row) for row in rows])
    assert det == _int_det(rows) == 18
    assert upper == _gaussian_pivot_rows(rows)


# -- the pivot rule ------------------------------------------------------
#
# Each step pivots on the first nonzero entry of its column, at or below
# the diagonal.  Any nonzero pivot gives the same determinant, so these
# tests look at the rows: the elimination reorders the row objects of
# `values` in place, and the first step's pivot row stays at position 0.


@pytest.mark.parametrize(
    "column, pivot",
    [
        ((9, 7, 3), 0),  # a shorter entry further down is not the pivot
        ((7, -3, -9), 0),  # nor one of smaller absolute value
        ((5, -3, 3), 0),
        ((0, 0, -5), 2),  # zero entries are never pivots
    ],
)
def test_elimination_pivots_on_the_first_nonzero_entry(column, pivot):
    rows = [[c, 1 + 2 * i, 3 - 4 * i] for i, c in enumerate(column)]
    expected = _int_det(rows)
    values = [list(row) for row in rows]
    first = values[pivot]
    assert _bareiss_det(values, [[0] * 3 for _ in range(3)]) == expected
    assert values[0] is first


# -- deferred row scaling --------------------------------------------------
#
# A row whose pivot-column entry is 0 is left as it is; it keeps the pivot
# of its last update as its divisor, and is brought up to date (times prev
# over that divisor) only when it becomes the pivot row or holds the final
# entry.  Sparse matrices exercise this: rows below a band, outside a
# block or off a permutation's support sit out several steps.


@st.composite
def sparse_two_adic_matrices(draw):
    """(values, exps) nonzero on a band, a permutation or diagonal blocks,
    with the rows shuffled; a singular case zeros a column or repeats a
    row times a power of two."""
    n = draw(st.integers(2, 6))
    shape = draw(st.sampled_from(["band", "permutation", "blocks"]))
    if shape == "band":
        below, above = draw(st.integers(0, 2)), draw(st.integers(0, n))
        support = {
            (i, j) for i in range(n) for j in range(n) if -above <= i - j <= below
        }
    elif shape == "permutation":
        perm = draw(st.permutations(range(n)))
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        support = {(i, perm[i]) for i in range(n)}
        support |= set(draw(st.lists(cell, max_size=n)))
    else:
        cuts = [0, *sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))), n]
        support = {
            (i, j)
            for lo, hi in zip(cuts, cuts[1:])
            for i in range(lo, hi)
            for j in range(lo, hi)
        }
    nonzero = st.builds(
        lambda c, k: c << k,
        st.integers(1, 2**20) | st.integers(-(2**20), -1),
        st.integers(0, 200),
    )
    entry = st.tuples(nonzero, st.integers(0, 90))
    rows = [
        [draw(entry) if (i, j) in support else (0, 0) for j in range(n)]
        for i in range(n)
    ]
    rows = [rows[i] for i in draw(st.permutations(range(n)))]
    values = [[v for v, _ in row] for row in rows]
    exps = [[e for _, e in row] for row in rows]
    singular = draw(st.sampled_from([None, "column", "row"]))
    if singular == "column":
        c = draw(st.integers(0, n - 1))
        for row in values:
            row[c] = 0
    elif singular == "row":
        src, dst = draw(st.permutations(range(n)))[:2]
        scale = draw(st.integers(0, 60))
        values[dst] = [v << (scale + exps[src][j]) for j, v in enumerate(values[src])]
        exps[dst] = [0] * n
    return values, exps


def _zero_exps(n):
    return [[0] * n for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(sparse_two_adic_matrices())
# tridiagonal: rows 2, 3 and 4, the last, sit out one, two and three steps
@example(
    (
        [
            [3, 1, 0, 0, 0],
            [1, 3, 1, 0, 0],
            [0, 1, 3, 1, 0],
            [0, 0, 1, 3, 1],
            [0, 0, 0, 1, 3],
        ],
        _zero_exps(5),
    )
)
# row 1 sits out step 0, then holds the first nonzero entry of column 1,
# so the pivot of step 1 is a stale row that is caught up first
@example(([[3, 5, 1], [0, 1, 1], [5, 1, 3]], _zero_exps(3)))
@example(([[3, 5, 1], [0, 1, 1], [5, 1, 3]], [[2, 0, 1], [0, 3, 0], [1, 0, 0]]))
# the last row is zero but for its last entry, so only the final catch-up
# scales it
@example(([[3, 1, 5], [1, 7, 1], [0, 0, 9]], _zero_exps(3)))
# singular: a zero column after step 0, and a zero final entry
@example(([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, 1], [0, 0, 1, 5]], _zero_exps(4)))
@example(([[1, 0, 0], [0, 3, 1], [0, 3, 1]], _zero_exps(3)))
def test_elimination_of_sparse_matrices_matches_the_integer_determinant(case):
    values, exps = ([list(row) for row in m] for m in case)
    expected = _int_det(
        [[v << e for v, e in zip(vr, er)] for vr, er in zip(values, exps)]
    )
    assert _bareiss_det(values, exps) == expected


def test_elimination_leaves_a_row_with_zero_pivot_entries_untouched():
    values = [[3, 1, 5], [1, 7, 1], [0, 0, 9]]
    last = values[2]
    assert _bareiss_det(values, _zero_exps(3)) == 9 * (3 * 7 - 1 * 1)
    assert values[2] is last and last == [0, 0, 9]


@st.composite
def packed_charpoly_pencils(draw):
    """tI - M at t = 2**B, B in 60..130, as (pencil, B).

    The off-diagonal constants are small and often zero, so many rows sit
    out a step and are caught up when they become pivot rows or hold the
    final entry; a singular case repeats a row of the pencil.
    """
    n = draw(st.integers(1, 5))
    bits = draw(st.integers(60, 130))
    small = st.one_of(st.just(0), st.just(0), st.integers(-(2**28), 2**28))
    pencil = [
        [
            (-draw(small), 1) if i == j else (-draw(small),)
            for j in range(n)
        ]
        for i in range(n)
    ]
    if n > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        pencil[dst] = list(pencil[src])
    return pencil, bits


@settings(max_examples=200, deadline=None)
@given(packed_charpoly_pencils())
def test_elimination_of_packed_charpoly_pencils(case):
    pencil, bits = case
    n = len(pencil)
    expected = _at(_cofactor_det(pencil), 1 << bits)
    values = [[_at(p, 1 << bits) for p in row] for row in pencil]
    assert _bareiss_plain([list(row) for row in values])[1] == expected
    exps = [[0] * n for _ in range(n)]
    assert _bareiss_det(values, exps) == expected


# long diagonal entries and short, often zero, off-diagonal ones, each
# with its own alignment exponent; the pivot is an off-diagonal entry
# where a step has cancelled the diagonal one
_long_diagonal = st.builds(
    lambda e, cs: (0,) * e + tuple(cs),
    st.integers(0, 40),
    st.lists(st.integers(-(2**30), 2**30), min_size=3, max_size=10),
)
_short_off_diagonal = st.one_of(
    st.just(()),
    st.just(()),
    st.builds(
        lambda e, c: (0,) * e + (c,),
        st.integers(0, 40),
        st.integers(-9, 9).filter(bool),
    ),
)


@st.composite
def off_diagonal_pivot_matrices(draw):
    n = draw(st.integers(1, 5))
    m = [
        [draw(_long_diagonal if i == j else _short_off_diagonal) for j in range(n)]
        for i in range(n)
    ]
    if n > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        shift = draw(st.integers(0, 10))
        m[dst] = [(0,) * shift + p for p in m[src]]
    return m


@settings(max_examples=100, deadline=None)
@given(off_diagonal_pivot_matrices())
def test_det_with_off_diagonal_pivots_matches_cofactor_expansion(m):
    assert det_laurent(m) == _cofactor_det(m)


def _fraction_det(rows):
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            if factor:
                m[i] = [x - factor * y for x, y in zip(m[i], m[k])]
    return det


@pytest.mark.parametrize("power", [0, 5, 10])
def test_genus_ten_charpolys_match_rational_evaluations(power):
    # a degree-20 polynomial is fixed by its values at 21 points
    lift = lift_homological(family_braid(10, power, "original"))
    p = charpoly(lift)
    n = len(lift)
    assert p[0] and len(p) == n + 1
    for c in range(-10, 11):
        shifted = [[(c if i == j else 0) - lift[i][j] for j in range(n)] for i in range(n)]
        assert _at(p, c) == _fraction_det(shifted)


_pencil_entry = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**60), 2**60),
    st.builds(lambda c, k: c << k, st.integers(-5, 5), st.integers(0, 80)),
)


def _square(n):
    row = st.lists(_pencil_entry, min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


def _pencil_of(a, b):
    """The matrix of polynomials A_ij + B_ij t."""
    return [list(zip(ra, rb)) for ra, rb in zip(a, b)]


# -- the Hadamard slot ----------------------------------------------------
#
# Sylvester's Hadamard matrices meet Hadamard's inequality with equality,
# |det H_m| = m**(m/2).  Rows scaled by c * 2**k keep the determinant at the
# slot bound, and rows scaled by powers of 1 + t keep it close to it.


def _sylvester(m):
    return [[(-1) ** bin(i & j).count("1") for j in range(m)] for i in range(m)]


@cache
def _sylvester_det(m):
    return _int_det(_sylvester(m))


def _scaled_hadamard(scales):
    """H_m with row i multiplied by the reference polynomial scales[i]."""
    rows = _sylvester(len(scales))
    return [
        [ref.dense(ref.mul(s, {0: x})) for x in row] for s, row in zip(scales, rows)
    ]


def _times_hadamard_det(factors):
    # the determinant is linear in each row
    return ref.dense(ref.mul({0: _sylvester_det(len(factors))}, *factors))


ONE_PLUS_T = {0: 1, 1: 1}
_ROW_SCALES = {
    "powers of 1 + t": [ref.power(ONE_PLUS_T, i % 3 + 1) for i in range(8)],
    # |det| = prod_i sqrt(m) * |c_i| * 2**k_i, which is the bound itself
    "c * 2**k": [{i: (3 + 2 * i) * (-1) ** i << (7 * i + 1)} for i in range(8)],
}


def _one_slot(compute):
    """compute(), its one slot width and its one elimination's value.

    Fails unless compute() sized exactly one slot and ran exactly one
    elimination, of either kind: `_bareiss_det` for a matrix of
    polynomials, `_bareiss_plain` for an integer pencil.
    """
    slots, values = [], []
    real_slot = laurent._det_slot_bits
    real_det, real_plain = laurent._bareiss_det, laurent._bareiss_plain

    def slot(row_squares):
        slots.append(real_slot(row_squares))
        return slots[-1]

    def eliminate(rows, exps):
        values.append(real_det(rows, exps))
        return values[-1]

    def eliminate_plain(rows):
        upper, det = real_plain(rows)
        values.append(det)
        return upper, det

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(laurent, "_det_slot_bits", slot)
        patch.setattr(laurent, "_bareiss_det", eliminate)
        patch.setattr(laurent, "_bareiss_plain", eliminate_plain)
        result = compute()
    assert len(slots) == len(values) == 1
    return result, slots[0], values[0]


@pytest.mark.parametrize("kind", list(_ROW_SCALES))
@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_det_of_scaled_hadamard_rows(m, kind):
    scales = _ROW_SCALES[kind][:m]
    matrix = _scaled_hadamard(scales)
    expected = _times_hadamard_det(scales)
    assert det_laurent(matrix) == expected
    if m <= 4:
        assert _cofactor_det(matrix) == expected


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_det_pencil_of_hadamard_rows(m):
    h = _sylvester(m)
    # det(H + tH) = det(H) (1 + t)**m: at m = 8 its middle coefficient
    # 8**4 * C(8, 4) = 286720 overflows a slot sized as if every entry had
    # one term (8! * 1**8, 18 bits)
    assert det_laurent(_pencil_of(h, h)) == _times_hadamard_det([ONE_PLUS_T] * m)
    # row i of A + tB is (c_i + d_i t) times row i of H
    c = [next(iter(x.values())) for x in _ROW_SCALES["c * 2**k"][:m]]
    d = [(-3) ** i << (5 * i) for i in range(m)]
    a = [[ci * x for x in row] for ci, row in zip(c, h)]
    b = [[di * x for x in row] for di, row in zip(d, h)]
    expected = _times_hadamard_det([ref.poly(0, (ci, di)) for ci, di in zip(c, d)])
    pencil = _pencil_of(a, b)
    assert det_laurent(pencil) == expected
    if m <= 4:
        assert _cofactor_det(pencil) == expected


_row_scale = st.one_of(
    st.builds(
        lambda c, k, e: {e: c << k},
        st.integers(-99, 99).filter(bool),
        st.integers(0, 60),
        st.integers(0, 10),
    ),
    st.builds(
        lambda sign, k, e: ref.mul(ref.power(ONE_PLUS_T, k), {e: sign}),
        st.sampled_from([1, -1]),
        st.integers(0, 8),
        st.integers(0, 10),
    ),
)
_pencil_scale = st.tuples(_pencil_entry, _pencil_entry)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2, 4, 8]).flatmap(
        lambda m: st.tuples(
            st.lists(_row_scale, min_size=m, max_size=m),
            st.lists(_pencil_scale, min_size=m, max_size=m),
        )
    )
)
def test_det_of_randomly_scaled_hadamard_rows(case):
    scales, pairs = case
    assert det_laurent(_scaled_hadamard(scales)) == _times_hadamard_det(scales)
    h = _sylvester(len(pairs))
    a = [[c * x for x in row] for (c, _), row in zip(pairs, h)]
    b = [[d * x for x in row] for (_, d), row in zip(pairs, h)]
    expected = _times_hadamard_det([ref.poly(0, pair) for pair in pairs])
    assert det_laurent(_pencil_of(a, b)) == expected


def test_det_slot_is_the_rounded_up_hadamard_bound():
    # rows with squared l1 norms 10 and 1: the bound is ceil(sqrt(10)) = 4
    # (t I - M has rows t, -3 and 0, t)
    assert _one_slot(lambda: charpoly([[0, 3], [0, 0]]))[1] == slot_bits(4)
    m = [[(1,), (0, 0, 1, -2)], [(1,), ()]]
    assert _one_slot(lambda: det_laurent(m))[1] == slot_bits(4)
    # H_8 + tH_8: eight rows of squared norm 8 * 2**2, so the bound is 2**20
    h = _sylvester(8)
    assert _one_slot(lambda: det_laurent(_pencil_of(h, h)))[1] == slot_bits(2**20)


def _row_l1_slot(norms):
    bound = 1
    for row in norms:
        bound *= sum(row)
    return slot_bits(bound)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(_square))
def test_pencil_slot_is_never_wider_than_the_row_l1_slot(a):
    # S - t S^T and t I - M from one integer matrix
    norms = [[abs(x) + abs(y) for x, y in zip(row, col)] for row, col in zip(a, zip(*a))]
    det, slot, value = _one_slot(lambda: det_transpose_pencil(a))
    assert slot <= _row_l1_slot(norms)
    # the one elimination runs at that slot: its value is det at t = 2**slot
    assert value == _at(det, 1 << slot)
    norms = [[abs(x) + (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
    poly, slot, value = _one_slot(lambda: charpoly(a))
    assert slot <= _row_l1_slot(norms)
    assert value == _at(poly, 1 << slot)


# Pencils as the fibred column makes them: mixed signs, and a diagonal that
# can outweigh its row, as in tI - M and S - tS^T
_mixed_entry = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1]),
    st.integers(-(2**30), 2**30),
)


@st.composite
def _mixed_pencils(draw):
    n = draw(st.integers(1, 6))
    a, b = (
        draw(st.lists(st.lists(_mixed_entry, min_size=n, max_size=n), min_size=n, max_size=n))
        for _ in range(2)
    )
    for i in range(n):
        if draw(st.booleans()):
            a[i][i] += draw(st.sampled_from([-1, 1])) * draw(st.integers(0, 2**80))
        if draw(st.booleans()):
            b[i][i] += draw(st.sampled_from([-1, 1])) * draw(st.integers(0, 2**80))
    return a, b


def _hadamard_slot(rows):
    """The Hadamard slot entry by entry: each row's sum of (|x| + |y|)**2
    over the pencil entries x + t*y, their product's square root rounded up,
    so a packing that sums rows another way must give the same width."""
    product = 1
    for row in rows:
        product *= sum((abs(x) + abs(y)) ** 2 for x, y in row)
    root = isqrt(product)
    return slot_bits(root if root * root == product else root + 1)


@settings(max_examples=150, deadline=None)
@given(_mixed_pencils())
# small entries, where the diagonal's 2|M_ii| + 1 moves the charpoly slot
@example(([[-2, -2], [0, 1]], [[0, 0], [0, 0]]))
def test_packed_pencils_match_the_cofactor_oracle(case):
    a, b = case
    pencil = _pencil_of(a, b)
    det, slot, _ = _one_slot(lambda: det_laurent(pencil))
    assert _ref(det) == _ref(_cofactor_det(pencil))
    assert slot == _hadamard_slot(pencil)
    # tI - M: the pencil -M + t*I
    shifted = [[(-x, int(i == j)) for j, x in enumerate(row)] for i, row in enumerate(a)]
    poly, slot, _ = _one_slot(lambda: charpoly(a))
    assert _ref(poly) == _ref(_cofactor_det(shifted))
    assert slot == _hadamard_slot(shifted)


@st.composite
def seifert_matrices(draw):
    """Square int S of size 0..7, dense or sparse: a sparse one keeps at
    most n drawn entries and zeroes the rest, as a Seifert form of the
    fibred column is mostly zeros."""
    n = draw(st.integers(0, 7))
    s = draw(st.lists(st.lists(_mixed_entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        keep = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
        s = [[x if (i, j) in keep else 0 for j, x in enumerate(row)] for i, row in enumerate(s)]
    return s


@settings(max_examples=150, deadline=None)
@given(seifert_matrices())
@example([])
# a diagonal entry: S_ii - t S_ii counts once in row i as |S_ii| + |S_ii|
@example([[3, 0], [0, 0]])
# one nonzero off the diagonal sets two entries, in two rows
@example([[0, -5], [0, 0]])
def test_transpose_pencil_matches_det_pencil_and_the_cofactors(s):
    minus_transpose = [[-x for x in column] for column in zip(*s)]
    pencil = _pencil_of(s, minus_transpose)
    det, slot, value = _one_slot(lambda: det_transpose_pencil(s))
    assert det == _cofactor_det(pencil)
    # packed from the nonzeros alone, at the slot of the full pencil
    assert slot == _hadamard_slot(pencil)
    assert value == _at(det, 1 << slot)


def test_transpose_pencil_refuses_a_non_square_or_non_integer_matrix():
    for s in ([[1, 2]], [[1], [2]], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="non-square"):
            det_transpose_pencil(s)
    # zeros too: a 0.0 or a Fraction is never read as an int
    for s in ([[0.0]], [[1, 0], [0.0, 1]], [[Fraction(1)]], [[1, Fraction(0)], [0, 1]]):
        with pytest.raises(TypeError):
            det_transpose_pencil(s)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(_staggered, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_laurent_slot_is_never_wider_than_the_row_l1_slot(m):
    norms = [[sum(map(abs, p)) for p in row] for row in m]
    slot = _one_slot(lambda: det_laurent(m))[1]
    assert slot <= _row_l1_slot(norms)


def test_genus_ten_fibred_slots():
    # the charpoly's coefficients need at most 43 bits here; the Hadamard
    # slot is 121 bits, and the Seifert pencil's 79
    lift = lift_homological(family_braid(10, 10, "original"))
    slot = _one_slot(lambda: charpoly(lift))[1]
    assert slot <= 121
    seifert = seifert_from_monodromy(lift)
    slot = _one_slot(lambda: alexander_from_seifert(seifert))[1]
    assert slot <= 79


def test_charpoly_rejects_a_non_square_matrix():
    # charpoly packs its pencil itself, so it checks the shape itself
    for m in ([[1, 2], [3]], [[1], [2]], [[1, 2]]):
        with pytest.raises(ValueError, match="non-square"):
            charpoly(m)


def test_pencil_entries_that_are_not_integers_raise():
    # int() would drop the fractional parts: t, t - 2 and 0
    with pytest.raises(TypeError):
        charpoly([[Fraction(1, 2)]])
    with pytest.raises(TypeError):
        charpoly([[2.7]])
    with pytest.raises(TypeError):
        alexander_from_seifert(((0.5, 0), (0, 0.5)))


# -- one slot per determinant -------------------------------------------
#
# Every determinant is one elimination at its Hadamard slot; these are the
# oracle tests for wide entries, large coefficients and singular matrices.


def _det_at_one_slot(m):
    """det_laurent(m), checked to be read off one elimination at its slot:
    the elimination's value is det(2**bits)."""
    det, bits, value = _one_slot(lambda: det_laurent(m))
    assert value == _at(det, 1 << bits)
    return det


# coefficients up to 2**30 give determinant coefficients of over a hundred bits
_large_entry = st.one_of(
    st.just(()),
    small_polys,
    st.builds(
        lambda e, cs: (0,) * e + tuple(cs),
        st.integers(0, 10),
        st.lists(st.integers(-(2**30), 2**30), max_size=8),
    ),
)


@st.composite
def large_coefficient_matrices(draw):
    """Square polynomial matrices; a singular one repeats a row times a polynomial."""
    n = draw(st.integers(1, 4))
    m = [[draw(_large_entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        factor = draw(small_polys)
        m[dst] = [ref.dense(ref.mul(_ref(factor), _ref(p))) for p in m[src]]
    return m


@st.composite
def unit_determinant_matrices(draw):
    """L * U with L unit lower triangular and U upper with +-t**k diagonal.

    The entries are long and large, the determinant a single monomial, far
    below the Hadamard bound of the entries.
    """
    n = draw(st.integers(2, 4))
    entry = st.builds(
        ref.poly,
        st.integers(0, 6),
        st.lists(st.integers(-(2**12), 2**12), min_size=1, max_size=12),
    )
    diagonal = [
        {draw(st.integers(0, 8)): draw(st.sampled_from([1, -1]))} for _ in range(n)
    ]
    lower = [
        [draw(entry) if j < i else ref.poly(0, (int(i == j),)) for j in range(n)]
        for i in range(n)
    ]
    upper = [
        [draw(entry) if j > i else diagonal[i] if i == j else {} for j in range(n)]
        for i in range(n)
    ]
    product = [[ref.dense(p) for p in row] for row in ref.mat_mul(lower, upper)]
    return product, ref.dense(ref.mul(*diagonal))


@settings(max_examples=200, deadline=None)
@given(large_coefficient_matrices())
def test_det_of_large_coefficient_matrices_takes_one_slot(m):
    assert _det_at_one_slot(m) == _cofactor_det(m)


@settings(max_examples=60, deadline=None)
@given(unit_determinant_matrices())
def test_det_of_unit_determinant_matrices_takes_one_slot(case):
    m, expected = case
    assert _det_at_one_slot(m) == expected == _cofactor_det(m)


def test_det_with_large_determinant_coefficients_takes_one_slot():
    # det = big**2 * t**2 - 1 on a wide Hadamard slot
    big = 2**40 + 3
    a = ref.poly(1, (5, -7, 1, 3, 0, 2, 1, big))
    m = [
        [ref.dense(ref.mul(a, {0: big})), (1,)],
        [(1,), ref.dense(a)],
    ]
    assert _det_at_one_slot(m) == _cofactor_det(m)
    # a determinant that is a single large constant, on one 1 x 1 entry
    constant = (2**37,)
    assert _det_at_one_slot([[constant]]) == constant


def test_det_of_singular_and_zero_matrices_takes_one_slot():
    big = ref.poly(0, (2**50, -(2**50), 7, 1, 1, 1, 1, 1))
    row = [big, {1: 1}, ref.mul(big, big)]
    m = [row, [ref.mul(p, {3: 1}) for p in row], [{0: 1}, big, {1: 1}]]
    m = [[ref.dense(p) for p in r] for r in m]
    assert _det_at_one_slot(m) == ()
    assert _det_at_one_slot([[()] * 2] * 2) == ()


def test_charpoly_known_matrices():
    assert to_text(charpoly([[0, 1], [1, 1]])) == "0|-1 -1 1"
    assert charpoly([[1, 0], [0, 1]]) == (1, -2, 1)
    assert charpoly([[2, 1], [1, 1]]) == (1, -3, 1)
    assert charpoly([[5]]) == (-5, 1)
    # dense from t**0: a zero eigenvalue keeps the constant term 0
    assert charpoly([[0, 1], [0, 0]]) == (0, 0, 1)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_charpoly_evaluates_to_det(m):
    # p(x) = det(xI - M) for any integer x
    p = charpoly(m)
    for x in (0, 1, -2):
        shifted = [[((x if i == j else 0) - m[i][j],) for j in range(3)] for i in range(3)]
        assert _at(p, x) == _at(det_laurent(shifted), 0)


# -- Kronecker packing ---------------------------------------------------


@st.composite
def balanced_digits(draw):
    """A slot width and digits in [-2**(bits - 1), 2**(bits - 1))."""
    bits = draw(st.integers(2, 80))
    top = (1 << (bits - 1)) - 1
    low = -(1 << (bits - 1))
    digit = st.one_of(
        st.sampled_from([0, 1, -1, top, -top, low]), st.integers(low, top)
    )
    # up to 40 digits, so the halving split recurses several levels
    return bits, draw(st.lists(digit, max_size=40))


@settings(max_examples=300, deadline=None)
@given(balanced_digits())
def test_packing_round_trips(case):
    bits, digits = case
    value = sum(d << (bits * i) for i, d in enumerate(digits))
    assert value == _pack(digits, bits)
    # the digits back, less their top zeros
    assert tuple(_unpack(value, bits)) == ref.dense(ref.poly(0, digits))


@pytest.mark.parametrize("bits", [2, 3, 7, 8, 64, 80])
def test_packing_extreme_digits(bits):
    top = (1 << (bits - 1)) - 1
    low = -(1 << (bits - 1))
    assert _unpack(0, bits) == []
    for count in (1, 2, 9, 17, 33):
        for digits in (
            [top] * count,
            [-top] * count,
            [top, -top] * count,
            [low] * count,
            [low] * count + [1],  # the top digit above a run of lowest ones
            [low, top] * count,
            [top, low] * count,
            [1] + [0] * count + [low],
            [0] * count + [-1],  # negative top coefficient, zeros below
            [1] + [0] * count + [-top],
        ):
            assert _unpack(_pack(digits, bits), bits) == digits


def test_packing_reads_the_lowest_digit():
    # a low half ending in -2**(bits-1) once borrowed from the digit above
    digits = [-1, 0, 0, -128, 0, 0, 0, 0, 1]
    assert _unpack(_pack(digits, 8), 8) == digits
    # and a top digit above three lowest digits was left uncounted
    assert _unpack(_pack([-128, -128, -128, 1], 8), 8) == [-128, -128, -128, 1]


@given(st.integers(0, 2**200))
def test_slot_bits_holds_the_bound(bound):
    bits = slot_bits(bound)
    digits = [bound, -bound, 0, bound, -bound] * 3
    assert tuple(_unpack(_pack(digits, bits), bits)) == ref.dense(ref.poly(0, digits))


# -- rational gcd and root counting --------------------------------------


def F(x):
    return Fraction(x)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 40).flatmap(
        lambda bits: st.tuples(
            st.just(bits),
            st.lists(st.integers(-(2 ** (bits - 1)), 2 ** (bits - 1) - 1), max_size=20),
        )
    )
)
def test_packed_l1_is_the_l1_norm_of_the_digits(case):
    bits, coeffs = case
    assert laurent.packed_l1(_pack(coeffs, bits), bits) == sum(map(abs, coeffs))


def qmul(p, q):
    """Product of two dense ascending coefficient sequences."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(
    a=st.lists(st.integers(-40, 40), max_size=8),
    b=st.lists(st.integers(-40, 40), min_size=1, max_size=5).filter(
        lambda b: b[-1] != 0
    ),
)
def test_divide_is_pseudo_division(a, b):
    # |lc(b)|**k * a = quo * b + rem with deg rem < deg b, k the number of
    # quotient terms
    quo, rem = _divide(a, b)
    k = max(len(a) - len(b) + 1, 0)
    assert len(quo) == k and len(rem) < len(b)
    scaled = ref.poly(0, [abs(b[-1]) ** k * c for c in a])
    product = ref.mul(ref.poly(0, quo), ref.poly(0, b))
    assert scaled == ref.add(product, ref.poly(0, rem))


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _from_roots(roots, scale=1):
    # scale times the product of the primitive factors d*t - n, r = n/d;
    # by Gauss's lemma the product is primitive
    p = (scale,)
    for r in roots:
        p = qmul(p, (-r.numerator, r.denominator))
    return p


def test_sturm_chain_shape():
    chain = sturm_chain([-2, 0, 1])
    assert chain[0] == [-2, 0, 1]
    assert len(chain) >= 2
    # p is taken over its content
    assert sturm_chain((-4, 0, 2))[0] == [-2, 0, 1]


def test_sturm_chain_takes_integer_coefficients_only():
    # a Fraction or float coefficient is refused, not scaled or truncated;
    # the evaluation points stay rational
    for p in ([Fraction(-1, 2), 0, 1], [F(-2), F(0), F(1)], [-2.0, 0, 1]):
        with pytest.raises(TypeError):
            sturm_chain(p)
    assert count_roots_in(sturm_chain([-1, 0, 2]), Fraction(1, 2), Fraction(3, 4)) == 1


def test_count_roots_half_open():
    x2m2 = sturm_chain([-2, 0, 1])
    assert count_roots_in(x2m2, F(1), F(2)) == 1
    assert count_roots_in(x2m2, F(0), F(1)) == 0
    assert count_roots_in(x2m2, F(-2), F(2)) == 2
    quad = sturm_chain([6, -5, 1])  # roots 2 and 3
    assert count_roots_in(quad, F(1), F(3)) == 2
    assert count_roots_in(quad, F(2), F(3)) == 1  # 2 excluded, 3 included
    assert count_roots_in(quad, F(1), F(2)) == 1
    assert count_roots_in(quad, F(3), F(9)) == 0


def test_count_roots_refuses_a_reversed_interval():
    # (lo, lo] is empty; lo > hi is no interval, not a negative count
    x2m2 = sturm_chain([-2, 0, 1])
    assert count_roots_in(x2m2, F(2), F(2)) == 0
    with pytest.raises(ValueError, match="lo > hi"):
        count_roots_in(x2m2, F(2), F(-2))
    with pytest.raises(ValueError, match="lo > hi"):
        count_roots_in(x2m2, Fraction(1, 3), Fraction(1, 4))
    # the zero polynomial has no chain, and no count
    with pytest.raises(ValueError, match="zero polynomial"):
        count_roots_in(sturm_chain([0, 0]), F(0), F(1))


def test_count_roots_with_repeated_factor():
    # (x-1)^2 (x+2) = x^3 - 3x + 2: multiplicity does not inflate the count
    p = sturm_chain([2, -3, 0, 1])
    assert count_roots_in(p, F(0), F(2)) == 1
    assert count_roots_in(p, F(-3), F(0)) == 1
    assert count_roots_in(p, F(-3), F(2)) == 2


dyadics = st.builds(
    lambda n, k: Fraction(n, 2**k), st.integers(-64, 64), st.integers(0, 4)
)
non_dyadics = st.builds(
    lambda n, d: Fraction(n, d), st.integers(-60, 60), st.sampled_from((3, 5, 7, 9))
)


@settings(max_examples=300, deadline=None)
@given(
    roots=st.lists(
        st.tuples(small_rationals, st.integers(1, 3)), min_size=1, max_size=4
    ),
    lead=st.integers(-30, 30).filter(bool),
    data=st.data(),
)
def test_count_roots_matches_factored_oracle(roots, lead, data):
    # p = lead * prod (b t - a)^m over the roots a/b has exactly the
    # distinct a/b as real roots, so counting them needs no Sturm theory
    p = _from_roots([r for r, m in roots for _ in range(m)], lead)
    # endpoints: dyadic, non-dyadic, or exactly on a root (half-open edge)
    endpoint = st.one_of(
        dyadics, non_dyadics, st.sampled_from([r for r, _ in roots])
    )
    lo, hi = sorted((data.draw(endpoint), data.draw(endpoint)))
    expected = len({r for r, _ in roots if lo < r <= hi})
    chain = sturm_chain(p)
    assert all(isinstance(c, int) for row in chain for c in row)
    assert count_roots_in(chain, lo, hi) == expected


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=6), max_size=5),
    st.integers(-50, 50),
    st.integers(1, 40),
)
# the first row vanishes at 4 / 2 = 2
@example([[-2, 1], [1]], 4, 2)
def test_sign_changes_at_a_ratio_match_the_reference(chain, a, b):
    # rows that vanish at a / b, and ratios not in lowest terms, among them
    assert _sign_changes(chain, a, b) == ref.changes(chain, Fraction(a, b))


@settings(max_examples=300, deadline=None)
@given(
    roots=st.lists(
        st.tuples(small_rationals, st.integers(1, 3)), min_size=1, max_size=4
    ),
    scale=st.integers(-6, 6).filter(bool),
    r=st.lists(st.integers(-9, 9), max_size=5),
    data=st.data(),
)
def test_sylvester_count_matches_factored_oracle(roots, scale, r, data):
    # the chain of p and (p' r) mod p counts the distinct roots x of p in
    # (lo, hi], neither end a root, each with the sign of r(x)
    p = _from_roots([x for x, m in roots for _ in range(m)], scale)
    dp = [i * c for i, c in enumerate(p)][1:]
    s = _divide(qmul(dp, r) if r else (), p)[1]
    xs = {x for x, _ in roots}
    endpoint = st.one_of(dyadics, non_dyadics).filter(lambda e: e not in xs)
    lo, hi = sorted((data.draw(endpoint), data.draw(endpoint)))
    values = [sum(c * x**i for i, c in enumerate(r)) for x in xs if lo < x <= hi]
    expected = sum((v > 0) - (v < 0) for v in values)
    assert count_roots_in(sturm_chain(p, s), lo, hi) == expected


def test_sturm_chain_with_a_second_row_that_reduces_to_nothing():
    # q = 0 leaves p alone in the chain, which counts 0 everywhere
    assert sturm_chain([-2, 0, 1], []) == [[1]]
    assert count_roots_in(sturm_chain([-2, 0, 1], [0, 0]), F(-2), F(2)) == 0
    assert sturm_chain([-2, 0, 1], [0, 2]) == sturm_chain([-2, 0, 1])
