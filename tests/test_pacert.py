"""Twist-pair classification, eigenvalue enclosures, and filling Euler counts."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import polyref as ref
from braidkit import pacert
from braidkit.laurent import charpoly, count_roots_in
from braidkit.pacert import (
    MU_TOLERANCE,
    MulticurvePair,
    chain_pair,
    classify,
    complement_euler,
    mu,
    mu_certificate,
    mu_enclosure,
    parse_twist_word,
    trace_polynomial,
)


# -- curve pairs and eigenvalues -----------------------------------------


def test_multicurve_validation():
    MulticurvePair(((1, 2), (0, 1)))
    with pytest.raises(ValueError):
        MulticurvePair(())
    with pytest.raises(ValueError):
        MulticurvePair(((1,), (1, 2)))
    with pytest.raises(ValueError):
        MulticurvePair(((-1,),))


def test_chain_pair_shape():
    assert chain_pair(1).matrix == ((1,),)
    assert chain_pair(2).matrix == ((1, 1), (0, 1))
    assert chain_pair(3).matrix == ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    with pytest.raises(ValueError):
        chain_pair(0)


def test_chain_pair_connected():
    for g in range(1, 20):
        assert chain_pair(g).is_connected()


def test_disconnected_pair_detected():
    assert not MulticurvePair(((1, 0), (0, 1))).is_connected()


def test_mu_matches_closed_form():
    # top eigenvalue of N N^T for the chain is 4 cos^2(pi / (2g+1))
    for g in (1, 2, 3, 5, 8):
        expect = 4 * math.cos(math.pi / (2 * g + 1)) ** 2
        assert abs(mu(chain_pair(g)) - expect) < 1e-9


def test_mu_enclosure_is_tight_and_certified():
    lo, hi = mu_enclosure(chain_pair(2))
    assert hi - lo <= MU_TOLERANCE
    golden = Fraction(
        2618033988749894848, 10**18
    )  # (3 + sqrt 5)/2 to 18 digits
    assert lo <= golden <= hi + MU_TOLERANCE


def test_mu_enclosure_certified_for_genus_1_to_12():
    for g in range(1, 13):
        pair = chain_pair(g)
        lo, hi = mu_enclosure(pair)
        assert 0 < hi - lo <= MU_TOLERANCE
        n = pair.matrix
        gram = [[sum(a * b for a, b in zip(r, s)) for s in n] for r in n]
        assert count_roots_in(charpoly(gram), lo, hi) == 1
        # the float closed form carries ~1e-15 error; the width is 1e-12
        expect = 4 * math.cos(math.pi / (2 * g + 1)) ** 2
        assert float(lo) - 1e-14 <= expect <= float(hi) + 1e-14


def test_sweep_computes_mu_once_per_genus(monkeypatch):
    from braidkit.sweep import SweepConfig, run_sweep

    sizes = []

    def counting_charpoly(matrix):
        sizes.append(len(matrix))
        return charpoly(matrix)

    monkeypatch.setattr(pacert, "charpoly", counting_charpoly)
    mu_certificate.cache_clear()
    records = run_sweep(
        SweepConfig(
            genus=(1, 2),
            power=(0, 1, 2),
            variants=("original", "enhanced"),
            checks=("pa",),
            parallelism=1,
        )
    )
    assert len(records) == 12
    assert all(r["status"] == "verified" for r in records)
    assert sorted(sizes) == [1, 2]
    assert mu_certificate.cache_info().misses == 2


def test_sweep_classifies_once_per_genus(monkeypatch):
    from braidkit.sweep import SweepConfig, run_sweep

    words = []

    def counting_trace_polynomial(word):
        words.append(word)
        return trace_polynomial(word)

    monkeypatch.setattr(pacert, "trace_polynomial", counting_trace_polynomial)
    classify.cache_clear()
    records = run_sweep(
        SweepConfig(
            genus=(1, 2),
            power=(0, 1, 2),
            variants=("original", "enhanced"),
            checks=("pa",),
            parallelism=1,
        )
    )
    assert len(records) == 12
    assert all(r["status"] == "verified" for r in records)
    assert words == [parse_twist_word("A B-")] * 2
    assert classify.cache_info().misses == 2


# -- twist words and traces ----------------------------------------------


def test_parse_twist_word():
    assert parse_twist_word("A B-") == (("A", 1), ("B", -1))
    assert parse_twist_word("a+ b") == (("A", 1), ("B", 1))
    assert parse_twist_word("B- A-") == (("B", -1), ("A", -1))
    with pytest.raises(ValueError):
        parse_twist_word("C")
    with pytest.raises(ValueError):
        parse_twist_word("A2")


def test_trace_polynomials_exact():
    # conjugated into SL(2, Z[mu]), traces are integer polynomials in the
    # eigenvalue; these three are the load-bearing ones
    assert trace_polynomial(parse_twist_word("A B-")) == (2, 1)
    assert trace_polynomial(parse_twist_word("A B")) == (2, -1)
    assert trace_polynomial(parse_twist_word("A")) == (2,)
    assert trace_polynomial(parse_twist_word("B A B- A-")) == (2, 0, 1)
    # every B letter adds a top coefficient; those that cancel are trimmed
    assert trace_polynomial(parse_twist_word("A B B-")) == (2,)
    assert trace_polynomial(parse_twist_word("B- A B")) == (2,)
    assert trace_polynomial(parse_twist_word("A A")) == (2,)
    with pytest.raises(ValueError):
        trace_polynomial(())


@pytest.mark.parametrize(
    "word",
    [
        (("A", 0), ("B", 1)),
        (("A", 2),),
        (("B", -2), ("A", 1)),
        (("C", 1),),
    ],
)
def test_malformed_twist_letters_are_refused(word):
    with pytest.raises(ValueError):
        trace_polynomial(word)
    with pytest.raises(ValueError):
        classify(word, chain_pair(2))


def _s_matrix_trace(word, s):
    """Trace of the unconjugated product over Q, with A^e = [[1, -e s], [0, 1]]
    and B^e = [[1, 0], [e s, 1]], each letter multiplying from the left."""
    m = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for symbol, e in word:
        g = ((1, -e * s), (0, 1)) if symbol == "A" else ((1, 0), (e * s, 1))
        m = tuple(
            tuple(sum(g[i][k] * m[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
    return m[0][0] + m[1][1]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("AB"), st.sampled_from((1, -1))),
        min_size=1,
        max_size=30,
    ),
    st.fractions(min_value=-5, max_value=5, max_denominator=50).filter(
        lambda s: s != 0
    ),
)
def test_trace_polynomial_matches_s_matrix_product(word, s):
    word = tuple(word)
    assert _at(trace_polynomial(word), s * s) == _s_matrix_trace(word, s)


def test_trace_is_conjugation_invariant():
    a = trace_polynomial(parse_twist_word("A B- A B"))
    b = trace_polynomial(parse_twist_word("B- A B A"))
    assert a == b


def test_inverse_word_has_same_trace():
    # tr(M) = tr(M^-1) for M in SL2
    a = trace_polynomial(parse_twist_word("A B-"))
    b = trace_polynomial(parse_twist_word("B A-"))
    assert a == b


# -- classification ------------------------------------------------------


def test_classify_pseudo_anosov():
    for g in (1, 2, 3, 4):
        verdict = classify(parse_twist_word("A B-"), chain_pair(g))
        assert verdict.kind == "pseudo-anosov"
        assert verdict.dilatation is not None and verdict.dilatation > 1
        m = mu(chain_pair(g))
        tr = 2 + m
        assert abs(verdict.trace - tr) < 1e-9
        assert abs(verdict.dilatation - (tr + math.sqrt(tr * tr - 4)) / 2) < 1e-9


def test_classify_g2_dilatation_frozen():
    verdict = classify(parse_twist_word("A B-"), chain_pair(2))
    assert abs(verdict.dilatation - 4.390256884515715) < 1e-12


def test_classify_g1_dilatation_is_golden_square():
    verdict = classify(parse_twist_word("A B-"), chain_pair(1))
    assert abs(verdict.dilatation - (3 + math.sqrt(5)) / 2) < 1e-9


def test_classify_parabolic_and_elliptic():
    p = chain_pair(2)
    assert classify(parse_twist_word("A"), p).kind == "parabolic"
    assert classify(parse_twist_word("A A"), p).kind == "parabolic"
    assert classify(parse_twist_word("A B"), p).kind == "elliptic"
    assert classify(parse_twist_word("A B"), chain_pair(1)).kind == "elliptic"


def test_classify_conjugation_invariance():
    p = chain_pair(2)
    d1 = classify(parse_twist_word("A B-"), p).dilatation
    d2 = classify(parse_twist_word("B- A"), p).dilatation
    assert d1 == d2


def test_sign_at_mu_is_exact_inside_the_enclosure():
    # mu_2 = (3 + sqrt 5)/2; near has its root at the enclosure's midpoint,
    # so its sign at mu is only read after halving toward mu
    cert = mu_certificate(chain_pair(2))
    root = (cert.lo + cert.hi) / 2
    near = (-root.numerator, root.denominator)
    assert count_roots_in(near, cert.lo, cert.hi) == 1
    expect = 1 if (2 * root - 3) ** 2 < 5 else -1  # mu > root
    assert pacert._sign_at_mu(near, cert) == expect
    assert pacert._sign_at_mu([-c for c in near], cert) == -expect
    assert pacert._sign_at_mu(_times(near, near), cert) == 1
    assert pacert._sign_at_mu((1, -3, 1), cert) == 0
    assert pacert._sign_at_mu(_times((1, -3, 1), near), cert) == 0
    assert pacert._sign_at_mu((-2,), cert) == -1
    assert pacert._sign_at_mu((-2, 0, 0), cert) == -1  # zero-padded
    assert pacert._sign_at_mu((), cert) == 0


def _random_pairs(count, seed):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        matrix = tuple(tuple(rng.randint(0, 3) for _ in range(b)) for _ in range(a))
        if any(map(any, matrix)):
            pairs.append(MulticurvePair(matrix))
    return pairs


def _at(poly, x):
    return sum(c * x**i for i, c in enumerate(poly))


def _times(a, b):
    """Dense product of two dense polynomials, by the reference arithmetic."""
    return ref.dense(ref.mul(ref.poly(0, a), ref.poly(0, b)))


def test_mu_certificate_never_puts_lo_on_a_root():
    # Sylvester's count is only sound when lo is not a root of the charpoly
    for pair in [chain_pair(g) for g in range(1, 31)] + _random_pairs(400, 2101):
        cert = mu_certificate(pair)
        assert _at(cert.poly, cert.lo) != 0
        assert count_roots_in(cert.poly, cert.lo, cert.hi) == 1
        assert 0 < cert.hi - cert.lo <= MU_TOLERANCE


def test_a_root_at_lo_breaks_the_count_and_the_guard_moves_it():
    # (t - 1)(t^2 - 3) on (1, 2]: sqrt 3 is the only root inside, but lo = 1
    # is a root too, and the count reads -2 for the constant -1
    cubic = (3, -3, -1, 1)
    on_root = pacert.MuCertificate(cubic, Fraction(1), Fraction(2))
    assert pacert._sign_at_mu((-1,), on_root) == -2
    assert pacert._sign_at_mu((-3, 0, 1), on_root) == -1  # 0 at sqrt 3
    # (t - 1)(e t - e - 1), e = 2^41, has roots 1 and 1 + 1/e, closer than
    # MU_TOLERANCE: halving from (0, 2] reaches (1, 1 + 2/e] with lo on the
    # root 1, and only the guard halves on until lo is off it
    e = 2**41
    close = (e + 1, -(2 * e + 1), e)
    top = 1 + Fraction(1, e)
    unguarded = pacert.MuCertificate(close, Fraction(1), 1 + Fraction(2, e))
    assert count_roots_in(close, unguarded.lo, unguarded.hi) == 1
    assert pacert._sign_at_mu((-1,), unguarded) == -2
    lo, hi = pacert._enclose(close, Fraction(2))
    assert _at(close, lo) != 0 and lo < top <= hi and hi - lo <= MU_TOLERANCE
    guarded = pacert.MuCertificate(close, lo, hi)
    assert pacert._sign_at_mu((-1,), guarded) == -1
    assert pacert._sign_at_mu((-e - 1, e), guarded) == 0


def _chain_enclose_inputs(genus):
    """The charpoly and upper end that `mu_certificate` bisects."""
    gram = pacert._gram(chain_pair(genus))
    return charpoly(gram), Fraction(max(sum(map(abs, r)) for r in gram) + 1)


# chain pairs at genus 1..8, and (t - 1)(e t - e - 1), e = 2^41, whose roots
# 1 and 1 + 1/e are closer than MU_TOLERANCE
ENCLOSE_CASES = [_chain_enclose_inputs(g) for g in range(1, 9)] + [
    ((2**41 + 1, -(2**42 + 1), 2**41), Fraction(2))
]


@pytest.mark.parametrize("poly, hi", ENCLOSE_CASES)
def test_one_count_bisection_matches_the_two_count_oracle(poly, hi):
    assert pacert._enclose(poly, hi) == ref.enclose(poly, hi, MU_TOLERANCE)


@st.composite
def polys_with_a_simple_largest_root(draw):
    """lead * prod (b t - a)^m * prod (t^2 - k) with a simple largest root
    r > 0 above every other root, and an integer upper end above r."""
    roots = [Fraction(a, b) for a, b in draw(
        st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 6)), max_size=4)
    )]
    gap = draw(
        st.sampled_from([Fraction(1, 2**41), Fraction(1, 3**25)])
        | st.fractions(Fraction(1, 50), 10, max_denominator=50)
    )
    r = max(roots + [Fraction(0)]) + gap
    poly = (draw(st.sampled_from([1, -1, 3])),)
    for x in roots:
        for _ in range(draw(st.integers(1, 3))):
            poly = _times(poly, (-x.numerator, x.denominator))
    poly = _times(poly, (-r.numerator, r.denominator))
    for k in draw(st.lists(st.integers(1, 30), max_size=2)):
        if k < r * r:  # +-sqrt(k) stay below r
            poly = _times(poly, (-k, 0, 1))
    return poly, Fraction(int(r) + draw(st.integers(1, 9)))


@settings(max_examples=150, deadline=None)
@given(polys_with_a_simple_largest_root())
def test_one_count_bisection_matches_the_oracle_on_random_polynomials(case):
    poly, hi = case
    lo, hi_out = pacert._enclose(poly, hi)
    assert (lo, hi_out) == ref.enclose(poly, hi, MU_TOLERANCE)
    assert count_roots_in(poly, lo, hi_out) == 1


@pytest.mark.parametrize("poly, hi", ENCLOSE_CASES)
def test_bisection_counts_once_per_halving(monkeypatch, poly, hi):
    calls = []

    def counting(chain, x):
        calls.append(x)
        return sign_changes(chain, x)

    sign_changes = pacert._sign_changes
    monkeypatch.setattr(pacert, "_sign_changes", counting)
    lo, out = pacert._enclose(poly, hi)
    # each halving halves the width, so the final width is hi / 2**halvings
    halvings = (hi / (out - lo)).numerator.bit_length() - 1
    assert hi / (out - lo) == 2**halvings
    assert len(calls) == halvings + 2


@pytest.mark.parametrize(
    "word, kind, trace",
    [
        ("A B-", "pseudo-anosov", 3),
        ("A", "parabolic", 2),
        ("A B", "elliptic", 1),
        ("A B A B", "elliptic", -1),
        ("A B A B A B A", "parabolic", -2),
        ("A B A B A B A B-", "pseudo-anosov", -3),
    ],
)
def test_genus_1_verdicts_where_mu_is_the_enclosures_upper_end(word, kind, trace):
    # at genus 1, mu = 1 = hi: the count must not stop at hi, a root of p
    pair = chain_pair(1)
    assert mu_certificate(pair).hi == 1
    assert _at(trace_polynomial(parse_twist_word(word)), 1) == trace
    verdict = classify(parse_twist_word(word), pair)
    assert verdict.kind == kind
    assert abs(verdict.trace - trace) < 1e-9


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([chain_pair(g) for g in range(1, 6)] + _random_pairs(40, 7)),
    st.lists(st.integers(-5, 5), max_size=6),
)
def test_sign_at_mu_is_zero_on_multiples_of_the_charpoly_and_minimal_polynomial(
    pair, factor
):
    cert = mu_certificate(pair)
    assert pacert._sign_at_mu(_times(cert.poly, factor), cert) == 0
    # mu_2 = (3 + sqrt 5)/2 has minimal polynomial t^2 - 3t + 1
    minimal = (1, -3, 1)
    assert pacert._sign_at_mu(_times(minimal, factor), mu_certificate(chain_pair(2))) == 0


def test_long_words_get_exact_verdicts():
    # at genus 3, tr(A B) = 2 - mu = 2 cos(5 pi / 7): A B is a rotation, and
    # (A B)^n has trace 2 cos(5 n pi / 7), which is -+2 exactly when 7 | n
    pair = chain_pair(3)
    for n in (7, 140, 200):
        verdict = classify(parse_twist_word("A B " * n), pair)
        assert verdict.kind == ("parabolic" if n % 7 == 0 else "elliptic")
        assert abs(verdict.trace - 2 * math.cos(5 * n * math.pi / 7)) < 1e-6
    assert classify(parse_twist_word("A B- " * 200), pair).kind == "pseudo-anosov"


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(
        st.sampled_from(["A", "A-", "B", "B-"]), min_size=1, max_size=10
    ),
)
def test_classify_never_lies_about_kind(genus, tokens):
    word = parse_twist_word(" ".join(tokens))
    verdict = classify(word, chain_pair(genus))
    # float oracle: mu_g = 4 cos^2(pi / (2g + 1)), trusted away from +-2
    mu_g = 4 * math.cos(math.pi / (2 * genus + 1)) ** 2
    trace = _at(trace_polynomial(word), mu_g)
    assert abs(verdict.trace - trace) < 1e-6 * max(1.0, abs(trace))
    if abs(abs(trace) - 2) > 1e-6:
        expect = "pseudo-anosov" if abs(trace) > 2 else "elliptic"
        assert verdict.kind == expect
    if verdict.kind == "pseudo-anosov":
        lam = verdict.dilatation
        assert abs(lam + 1 / lam - abs(verdict.trace)) < 1e-6 * abs(trace)
    else:
        assert verdict.dilatation is None


small_pairs = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.tuples(*[st.integers(0, 3)] * shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@settings(max_examples=300, deadline=None)
@given(
    small_pairs.filter(lambda rows: any(map(any, rows))),
    st.lists(st.sampled_from(["A", "A-", "B", "B-"]), min_size=1, max_size=14),
)
def test_verdicts_on_random_pairs_match_a_float_oracle(rows, tokens):
    numpy = pytest.importorskip("numpy")
    n = numpy.array(rows, dtype=float)
    top = float(max(numpy.linalg.eigvalsh(n @ n.T)))
    word = parse_twist_word(" ".join(tokens))
    tr = trace_polynomial(word)
    trace = _at(tr, top)
    # a float this close to +-2, relative to the size of its terms, decides nothing
    size = 1 + sum(abs(c) * top**i for i, c in enumerate(tr))
    if abs(trace * trace - 4) <= 1e-6 * size * size:
        return
    verdict = classify(word, MulticurvePair(tuple(rows)))
    assert verdict.kind == ("pseudo-anosov" if abs(trace) > 2 else "elliptic")


# -- Euler characteristic bookkeeping ------------------------------------


def test_complement_euler():
    for g in (1, 2, 3, 64):
        assert complement_euler(g, punctured=True) == 0
        assert complement_euler(g, punctured=False) == 1
    with pytest.raises(ValueError):
        complement_euler(0, punctured=True)
