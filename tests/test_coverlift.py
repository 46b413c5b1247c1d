"""Homological monodromy: transvection lifts, covers, Seifert solves, modules."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import polyref as ref
from braidkit import laurent
from braidkit.braid import BraidWord, FamilySpec, family_braid
from braidkit.coverlift import (
    ConventionError,
    _sparsest_first,
    branched_cover_euler,
    charpoly_int,
    fibred_alexander,
    growth_sequence,
    intersection_form,
    is_cyclic,
    lift_homological,
    mat_identity,
    mat_max_abs,
    mat_mul,
    seifert_from_monodromy,
    transvection,
)
from braidkit.invariants import alexander_from_seifert, knot_determinant
from braidkit.laurent import normalized, to_text


def _transpose(a):
    return tuple(zip(*a))


def small_words(genus=2, max_len=8):
    n = 2 * genus + 1
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    return st.lists(letter, max_size=max_len).map(
        lambda ls: BraidWord(n, tuple(ls))
    )


# -- surface and transvections -------------------------------------------


def test_chain_surface_shape():
    # the chain form of the genus-3 surface
    form = intersection_form(6)
    assert len(form) == 6 and all(len(row) == 6 for row in form)
    for rank in (0, 3, -2):
        with pytest.raises(ValueError):
            intersection_form(rank)


def test_intersection_form_is_chain_symplectic():
    form = intersection_form(4)
    assert form == (
        (0, 1, 0, 0),
        (-1, 0, 1, 0),
        (0, -1, 0, 1),
        (0, 0, -1, 0),
    )


def test_transvection_matrices():
    assert transvection(4, 1, 1)[0] == (1, -1, 0, 0)
    assert transvection(4, 1, -1)[0] == (1, 1, 0, 0)
    # opposite signs cancel
    assert (
        mat_mul(transvection(4, 2, 1), transvection(4, 2, -1))
        == mat_identity(4)
    )
    with pytest.raises(ValueError):
        transvection(4, 5, 1)
    with pytest.raises(ValueError):
        transvection(4, 1, 0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda g: st.tuples(st.just(g), small_words(genus=g, max_len=12))
    )
)
def test_lift_equals_transvection_product(case):
    genus, word = case
    expected = mat_identity(2 * genus)
    for letter in word.letters:
        t = transvection(2 * genus, abs(letter), 1 if letter > 0 else -1)
        expected = mat_mul(t, expected)
    assert lift_homological(word) == expected


def test_transvections_are_symplectic():
    for i in range(1, 7):
        for sign in (1, -1):
            assert ref.is_symplectic(transvection(6, i, sign))


def test_lift_respects_braid_relations():
    assert lift_homological(BraidWord(5, (1, 2, 1))) == lift_homological(
        BraidWord(5, (2, 1, 2))
    )
    assert lift_homological(BraidWord(5, (1, 3))) == lift_homological(
        BraidWord(5, (3, 1))
    )


def test_lift_known_values():
    m = lift_homological(BraidWord(3, (2, -1)))
    assert m == ((2, 1), (1, 1))
    assert to_text(charpoly_int(m)) == "0|1 -3 1"
    trefoil_monodromy = lift_homological(BraidWord(3, (1, 2)))
    assert charpoly_int(trefoil_monodromy) == (1, -1, 1)


def test_lift_strand_mismatch():
    with pytest.raises(ValueError):
        lift_homological(BraidWord(4, (1,)))


@settings(max_examples=60, deadline=None)
@given(small_words())
def test_lifts_are_symplectic(w):
    m = lift_homological(w)
    assert ref.is_symplectic(m)
    inv = lift_homological(w.inverse())
    assert mat_mul(inv, m) == mat_identity(4)


# -- fibred Alexander ----------------------------------------------------


def test_fibred_alexander_original():
    assert to_text(fibred_alexander(FamilySpec(1, 0))) == "0|1 -3 1"
    assert fibred_alexander(FamilySpec(2, 0)) == (1, -7, 13, -7, 1)
    assert knot_determinant(fibred_alexander(FamilySpec(2, 0))) == 29
    # the genus 1 family is constant in the power
    assert fibred_alexander(FamilySpec(1, 6)) == fibred_alexander(
        FamilySpec(1, 0)
    )


def test_fibred_alexander_enhanced_invariance():
    reference = fibred_alexander(FamilySpec(2, 0, "enhanced"))
    assert reference == (1, -1, 1, -1, 1)
    for n in (1, 2, 3):
        assert fibred_alexander(FamilySpec(2, n, "enhanced")) == reference


def test_enhanced_stirring_word_lifts_trivially():
    from braidkit.braid import enhanced_phi

    lift = lift_homological(enhanced_phi(2))
    assert lift == mat_identity(4)


def test_fibred_degree_is_twice_genus():
    for g in (1, 2, 3, 4):
        poly = fibred_alexander(FamilySpec(g, 1))
        assert poly[0] and len(poly) == 2 * g + 1
        assert poly == poly[::-1]


# -- branched covers -----------------------------------------------------


def test_branched_cover_over_disk():
    for g in (1, 2, 5, 64):
        data = branched_cover_euler(2 * g + 1)
        assert data.chi == 1 - 2 * g
        assert data.boundary == 1
        assert data.genus == g
    data = branched_cover_euler(3)
    assert data.genus == 1 and data.boundary == 1


def test_branched_cover_even_points():
    data = branched_cover_euler(2)
    assert data.chi == 0 and data.boundary == 2 and data.genus == 0
    data = branched_cover_euler(4)
    assert data.genus == 1 and data.boundary == 2


def test_branched_cover_needs_a_branch_point():
    with pytest.raises(ValueError):
        branched_cover_euler(0)
    with pytest.raises(ValueError):
        branched_cover_euler(-2)


# -- Seifert solve -------------------------------------------------------


def test_seifert_from_trefoil_monodromy():
    m = lift_homological(BraidWord(3, (1, 2)))
    v = seifert_from_monodromy(m)
    assert v == ((-1, 0), (1, -1))
    sym = tuple(tuple(x + y for x, y in zip(row, col)) for row, col in zip(v, zip(*v)))
    assert sym == ((-2, 1), (1, -2))  # negative definite: positive fibred knot


def test_seifert_solve_identities():
    # S - S^T = -J and S^T = S M, the defining relations of the solve
    for g in (1, 2, 3):
        m = lift_homological(family_braid(g, 1))
        v = seifert_from_monodromy(m)
        vt = tuple(map(tuple, zip(*v)))
        j = intersection_form(2 * g)
        assert all(
            v[i][k] - vt[i][k] == -j[i][k]
            for i in range(2 * g)
            for k in range(2 * g)
        )
        assert mat_mul(v, m) == _transpose(v)


def test_seifert_solve_round_trips_charpoly():
    for g in (1, 2, 3, 4):
        m = lift_homological(family_braid(g, 2))
        v = seifert_from_monodromy(m)
        assert alexander_from_seifert(v) == normalized(charpoly_int(m))


def test_seifert_solve_rejects_unit_eigenvalue():
    with pytest.raises(ValueError):
        seifert_from_monodromy(mat_identity(2))


def test_seifert_solve_rejects_a_two_component_link():
    # the closure of s1^2 s2 has two components; its monodromy solve is
    # non-integral under the knot convention
    m = lift_homological(BraidWord(3, (1, 1, 2)))
    with pytest.raises(ConventionError):
        seifert_from_monodromy(m)


def _solve_right(a, rhs):
    """Solve X * a = rhs over the rationals by Gauss-Jordan elimination.

    The reference for the fraction-free solve: it eliminates the
    transposed system a^T X^T = rhs^T and returns None when a is singular.
    """
    size = len(a)
    at = [[Fraction(a[r][c]) for r in range(size)] for c in range(size)]
    bt = [[Fraction(rhs[r][c]) for r in range(size)] for c in range(size)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if at[r][col] != 0), None)
        if pivot is None:
            return None
        at[col], at[pivot] = at[pivot], at[col]
        bt[col], bt[pivot] = bt[pivot], bt[col]
        inv = 1 / at[col][col]
        at[col] = [x * inv for x in at[col]]
        bt[col] = [x * inv for x in bt[col]]
        for r in range(size):
            if r != col and at[r][col] != 0:
                f = at[r][col]
                at[r] = [x - f * y for x, y in zip(at[r], at[col])]
                bt[r] = [x - f * y for x, y in zip(bt[r], bt[col])]
    # rows of the reduced bt are columns of X
    return [[bt[c][r] for c in range(size)] for r in range(size)]


@st.composite
def one_letter_each_words(draw, genus, max_squares=12):
    """Each generator once, any order and signs, with squares inserted.

    The permutation is then a (2g+1)-cycle, so the closure is a knot and
    the solve is more often integral than for a uniform random word.
    """
    n = 2 * genus + 1
    letters = [
        i * draw(st.sampled_from([1, -1]))
        for i in draw(st.permutations(range(1, n)))
    ]
    for _ in range(draw(st.integers(0, max_squares))):
        i = draw(st.integers(1, n - 1)) * draw(st.sampled_from([1, -1]))
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = [i, i]
    return BraidWord(n, tuple(letters))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda g: st.tuples(
            st.just(g),
            st.one_of(small_words(genus=g, max_len=40), one_letter_each_words(g)),
        )
    )
)
def test_seifert_solve_matches_the_rational_oracle(case):
    genus, word = case
    m = lift_homological(word)
    k = 2 * genus
    j = intersection_form(k)
    i_minus_m = [[int(r == c) - m[r][c] for c in range(k)] for r in range(k)]
    expected = _solve_right(i_minus_m, [[-x for x in row] for row in j])
    if expected is None:
        with pytest.raises(ValueError, match="eigenvalue"):
            seifert_from_monodromy(m)
        return
    if any(x.denominator != 1 for row in expected for x in row):
        with pytest.raises(ConventionError):
            seifert_from_monodromy(m)
        return
    v = seifert_from_monodromy(m)
    assert v == tuple(tuple(int(x) for x in row) for row in expected)
    vt = _transpose(v)
    assert all(
        v[r][c] - vt[r][c] == -j[r][c] for r in range(k) for c in range(k)
    )
    assert mat_mul(v, m) == vt


def _nonzeros_of_i_minus_m(m, r):
    return sum(x != int(r == c) for c, x in enumerate(m[r]))


_solve_entry = st.one_of(st.sampled_from([0, 0, 0, 1, 1, -1, 2]), st.integers())


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(_solve_entry, min_size=n, max_size=n).map(tuple),
            min_size=n,
            max_size=n,
        ).map(tuple)
    )
)
def test_sparsest_first_counts_the_nonzeros_of_i_minus_m(m):
    # the count from M's zeros and its diagonal is the count of I - M, so
    # the solve takes its unknowns, and its pivots, in the same order
    for r in range(len(m)):
        assert (
            len(m) - m[r].count(0) - (m[r][r] != 0) + (m[r][r] != 1)
            == _nonzeros_of_i_minus_m(m, r)
        )
    expected = sorted(range(len(m)), key=lambda r: _nonzeros_of_i_minus_m(m, r))
    assert _sparsest_first(m) == expected


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda g: st.tuples(st.just(g), one_letter_each_words(g, max_squares=4))
    )
)
def test_seifert_solve_is_exact_with_deferred_row_scaling(case):
    # rows with a zero pivot-column entry keep an older divisor, so S^T's
    # rows end divided by different pivots; S must still solve the system
    genus, word = case
    m = lift_homological(word)
    k = 2 * genus
    j = intersection_form(k)
    i_minus_m = tuple(
        tuple(int(r == c) - m[r][c] for c in range(k)) for r in range(k)
    )
    minus_j = tuple(tuple(-x for x in row) for row in j)
    try:
        v = seifert_from_monodromy(m)
    except ConventionError:
        expected = _solve_right(i_minus_m, minus_j)
        assert any(x.denominator != 1 for row in expected for x in row)
        return
    assert mat_mul(v, i_minus_m) == minus_j
    vt = _transpose(v)
    assert all(
        v[r][c] - vt[r][c] == -j[r][c] for r in range(k) for c in range(k)
    )


def _assert_seifert_identities(v, m):
    # S(I - M) = -J and S - S^T = -J
    k = len(m)
    j = intersection_form(k)
    i_minus_m = tuple(
        tuple(int(r == c) - m[r][c] for c in range(k)) for r in range(k)
    )
    assert mat_mul(v, i_minus_m) == tuple(tuple(-x for x in row) for row in j)
    vt = _transpose(v)
    assert all(
        v[r][c] - vt[r][c] == -j[r][c] for r in range(k) for c in range(k)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda g: st.tuples(
            st.just(g), st.integers(0, 3), small_words(genus=g, max_len=16)
        )
    )
)
def test_seifert_solve_on_conjugated_family_words(case):
    # conjugation keeps the unknot closure, so I - M stays unimodular and S
    # integral, but S is denser than the family's nearly bidiagonal one
    genus, power, conjugator = case
    word = conjugator * family_braid(genus, power) * conjugator.inverse()
    m = lift_homological(word)
    k = 2 * genus
    i_minus_m = [[int(r == c) - m[r][c] for c in range(k)] for r in range(k)]
    minus_j = [[-x for x in row] for row in intersection_form(k)]
    expected = _solve_right(i_minus_m, minus_j)
    assert all(x.denominator == 1 for row in expected for x in row)
    v = seifert_from_monodromy(m)
    assert v == tuple(tuple(int(x) for x in row) for row in expected)
    _assert_seifert_identities(v, m)


def test_seifert_solve_on_the_monodromy_lift_grid():
    for genus in range(2, 11):
        for power in range(11):
            m = lift_homological(family_braid(genus, power))
            v = seifert_from_monodromy(m)
            _assert_seifert_identities(v, m)


@pytest.mark.parametrize(
    "matrix",
    [
        ((1, -1),),
        ((1, -1, 99), (1, 0, 99)),
        ((1, -1), (1, 0, 99)),
        ((1, -1), (1,)),
        ((1,), (1,)),
    ],
)
def test_seifert_solve_rejects_rows_of_the_wrong_length(matrix):
    # the trefoil lift is ((1, -1), (1, 0)); no row may be cut or padded
    with pytest.raises(ValueError, match="must be a square matrix"):
        seifert_from_monodromy(matrix)


@pytest.mark.parametrize("matrix", [(), ((2,),), ((1, 0, 0), (0, 1, 0), (0, 0, 2))])
def test_seifert_solve_rejects_an_odd_or_empty_size(matrix):
    with pytest.raises(ValueError, match="positive even rank"):
        seifert_from_monodromy(matrix)


# -- Alexander module ----------------------------------------------------


def test_monodromy_lift_pencils_take_one_slot():
    # the 99 charpolys and 99 Seifert pencils of genus 2..10, power 0..10:
    # each sizes one slot and runs one integer elimination, and none takes
    # the mantissa elimination of the Burau determinants
    calls = []
    real_slot = laurent._det_slot_bits
    real_plain, real_det = laurent._bareiss_plain, laurent._bareiss_det

    def slot(row_squares):
        calls.append("slot")
        return real_slot(row_squares)

    def eliminate(rows):
        calls.append("plain")
        return real_plain(rows)

    def mantissa(values, exps):
        calls.append("mantissa")
        return real_det(values, exps)

    for genus in range(2, 11):
        for power in range(0, 11):
            lift = lift_homological(family_braid(genus, power))
            seifert = seifert_from_monodromy(lift)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(laurent, "_det_slot_bits", slot)
                patch.setattr(laurent, "_bareiss_plain", eliminate)
                patch.setattr(laurent, "_bareiss_det", mantissa)
                charpoly_int(lift)
                alexander_from_seifert(seifert)
            assert calls == ["slot", "plain"] * 2, (genus, power, calls)
            calls.clear()


def test_module_invariants_identity():
    # tI - I has the invariant factors t - 1, t - 1
    assert not is_cyclic(((1, 0), (0, 1)))


def test_module_invariants_single_factor():
    m = lift_homological(family_braid(2, 0, "enhanced"))
    assert is_cyclic(m)


def _companion(coeffs):
    # companion matrix of t^n + coeffs[n-1] t^(n-1) + ... + coeffs[0]
    n = len(coeffs)
    return tuple(
        tuple(-coeffs[i] if j == n - 1 else int(i == j + 1) for j in range(n))
        for i in range(n)
    )


def _block_diagonal(a, b):
    n, m = len(a), len(b)
    return tuple(tuple(row) + (0,) * m for row in a) + tuple(
        (0,) * n + tuple(row) for row in b
    )


def _fraction_rank(rows):
    # Gauss-Jordan over the rationals
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


monic_coeffs = st.lists(st.integers(-6, 6), min_size=1, max_size=4)
square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.one_of(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(lambda m: tuple(map(tuple, m))),
        # scalar matrices: cyclic at n = 1 only
        st.integers(-3, 3).map(
            lambda c: tuple(
                tuple(c * int(i == j) for j in range(n)) for i in range(n)
            )
        ),
    )
)


@settings(max_examples=100, deadline=None)
@given(monic_coeffs, st.integers(-3, 3), st.integers(2, 4))
def test_is_cyclic_on_companions_and_repeated_blocks(coeffs, c, n):
    companion = _companion(coeffs)
    # dense from t**0, low zeros kept
    assert charpoly_int(companion) == tuple(coeffs + [1])
    assert is_cyclic(companion)
    # two copies of one module, and a scalar, need n generators
    assert not is_cyclic(_block_diagonal(companion, companion))
    scalar = tuple(tuple(c * int(i == j) for j in range(n)) for i in range(n))
    assert not is_cyclic(scalar)


@settings(max_examples=100, deadline=None)
@given(
    square_matrices,
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2)),
        max_size=6,
    ),
)
def test_is_cyclic_is_a_conjugation_invariant(m, moves):
    # conjugate by the elementary unimodular E = I + s e_ij, whose inverse
    # is I - s e_ij, one move at a time
    n = len(m)
    conjugated = m
    for i, j, s in moves:
        i, j = i % n, j % n
        if i == j:
            continue
        step = [list(row) for row in mat_identity(n)]
        back = [list(row) for row in mat_identity(n)]
        step[i][j], back[i][j] = s, -s
        step, back = tuple(map(tuple, step)), tuple(map(tuple, back))
        conjugated = mat_mul(mat_mul(step, conjugated), back)
    assert is_cyclic(conjugated) == is_cyclic(m)


@settings(max_examples=200, deadline=None)
@given(square_matrices)
def test_is_cyclic_matches_the_rank_of_the_powers(m):
    # cyclic exactly when I, M, ..., M^(n-1) are linearly independent
    n = len(m)
    power, flat = mat_identity(n), []
    for _ in range(n):
        flat.append([x for row in power for x in row])
        power = mat_mul(power, m)
    assert is_cyclic(m) == (_fraction_rank(flat) == n)


# -- growth proxy --------------------------------------------------------


def test_growth_sequence_frozen_values():
    assert growth_sequence(2, range(0, 6)) == (2, 4, 31, 238, 1678, 11603)


def test_growth_sequence_refuses_a_bad_variant_as_family_spec_does():
    message = r"variant must be one of \('original', 'enhanced'\)"
    with pytest.raises(ValueError, match=message):
        growth_sequence(2, range(0, 2), "bogus")


def test_growth_strictly_increasing_from_two():
    seq = growth_sequence(2, range(2, 8))
    assert all(a < b for a, b in zip(seq, seq[1:]))


def test_mat_max_abs():
    assert mat_max_abs(((1, -9), (3, 2))) == 9
    assert mat_max_abs(mat_identity(2)) == 1
