"""Alexander invariants of braid closures along two independent pipelines.

Pipeline one: the reduced Burau representation.  Each Artin generator maps
to an (n-1) x (n-1) matrix over the integer Laurent ring; for a knot
closure, det(rho(w) - I) equals the Alexander polynomial times
1 + t + ... + t^(n-1) up to a unit, and the quotient is carried out by
exact division.

That determinant is taken on the two half-words.  Split w = w1 w2 at
h = floor(|w| / 2), every word at its middle.  The representation is a
homomorphism and det rho(w1) = (-t)**e(w1), e the exponent sum, so

    rho(w) - I = rho(w1) (rho(w2) - rho(w1^-1)),
    det(rho(w) - I) = (-1)**h * t**e(w1) * det(rho(w2) - rho(w1^-1)),

and the unit goes with the final normalization.  Each entry of the
difference has about half the coefficients and half the bits of an entry
of rho(w), and the determinant's packed operands shrink with both (at
genus 2, power 6, enhanced, its Hadamard slot goes from 395 to 202 bits).

The product is evaluated at t = 2**B, one integer per entry (Kronecker
substitution).  A letter's matrix differs from the identity in one column,
so each letter updates that column of every row with one shift and two
additions.  The slot width B comes first, as a bound on the l1 norm, hence
on every coefficient, of each Burau entry.  The l1 norm is subadditive
and submultiplicative, so two bounds are proven:

- the same recurrence on the absolute-value matrices at t = 1, whose
  product bounds every entry entrywise;
- for a word cut into chunks, the product of the chunks' exact l1
  matrices (entry (i, j) the l1 norm of the chunk's Burau entry), each
  chunk computed by this same packed product.

A chunk's l1 matrix depends on the strand count and the chunk's letters
alone, so `_chunk_l1` keeps it behind an lru_cache of _CHUNK_CACHE
entries and the bound is exact whether it hits or not.  Chunks repeat:
the half-words of the genus-2 enhanced family start at one offset inside
phi at every power, so one example sweep asks for 96 chunk products and
28 of them are distinct.

The recurrence ignores every cancellation, so on a long word it is far
too wide (288 bits for genus 2, power 6, enhanced, whose largest
coefficient has 94); the chunk product sees the cancellation inside each
chunk and gives 119.  Words longer than four 16-letter chunks take the
chunk product; shorter ones keep the recurrence, which costs next to
nothing beside the chunks.

With N negative letters, every partial-product entry e has exponents
>= -N, so t**N * e is a polynomial and its value at 2**B an integer.  A
negative letter divides a difference of such values by 2**B; the quotient
t**N times the new entry is again a polynomial, so the shift is exact, not
a floor, at any slot.

The two halves w2 and w1^-1 run through this product at one common slot,
slot_bits of the sum of their two bounds: the l1 norm of a difference is
at most the sum of the two l1 norms, so that slot holds every coefficient
of rho(w2) - rho(w1^-1) (63 bits at genus 2, power 6, enhanced, against
119 for the whole word).  With N2 and N1 negative letters in the halves,
each packed value is shifted up by B * (N - N_i), N = max(N1, N2), so both
stand for t**N times their entries, and the packed integers are
subtracted.  Every difference is then divided by t**L, L the least index
of a nonzero slot among them (a packed value's 2-adic valuation over B),
so that no entry, and no determinant, carries zeros that every entry
shares.  Each entry is unpacked once, by `laurent._unpack`, into the
dense coefficients of t**(N - L) times it, and `laurent.det_laurent` takes
the determinant; the power of t it gains is a unit, which the
normalization drops before the quotient.  `reduced_burau` returns N and
the unpacked rows of t**N times rho(w).

Pipeline two: the Bennequin surface.  A braid word with sign-pure columns
(every occurrence of an index has one sign) bounds a surface made of n
disks and one band per letter.  First homology has one generator per brick,
a consecutive pair of bands in the same column, and the Seifert linking
form is given by a local sign table: brick self-linking from the two band
signs, shared-band bricks in a column, and interleaved bricks in adjacent
columns, which meet once on the surface.  The table below is pinned by the
requirement that both pipelines agree up to units and that positive torus
words get negative definite symmetrized forms.  A Seifert form S, from
`brick_seifert` or `coverlift.seifert_from_monodromy`, is a tuple of int
tuples.  The Alexander polynomial det(S - t S^T) is an integer pencil, so
it goes to `laurent.det_transpose_pencil` straight from S.

Signatures are exact at every rational point omega = x + iy of the unit
circle, omega = -1 included.  The form (1 - omega) S + (1 - conj omega) S^T
is H = (1 - x)(S + S^T) + i y (S^T - S).  On the circle x and y share one
denominator d > 0, and d H = A + iB is integral, A symmetric and B
antisymmetric; a positive scalar moves no eigenvalue across 0.  At
z = u + iv, z* (A + iB) z is the real form [[A, -B], [B, A]] at (u, v),
whose spectrum is that of A + iB twice over: its signature is 2 sigma.
Descartes' rule counts the positive roots of its real-rooted
characteristic polynomial; a zero constant term means omega is a root of Delta.
The polynomial is taken as `det_pencil` of the pencil with its two row
blocks swapped, rows [B, A] over [A, -B] and the t-part permuted alike,
which is (-1)^m times it and leaves both tests alone: the first-nonzero
pivots then fall on the short entries of B rather than on the long
diagonal of t I - M.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .braid import BraidWord, closure_components
from .laurent import (
    _divide,
    _unpack,
    det_laurent,
    det_pencil,
    det_transpose_pencil,
    normalized,
    packed_l1,
    slot_bits,
)


# words longer than four chunks of this many letters bound their Burau
# slot by the product of the chunks' exact l1 matrices
_CHUNK = 16
# distinct (strands, chunk) keys kept by `_chunk_l1`; the example sweep
# asks for 28 per process
_CHUNK_CACHE = 1024


@lru_cache(maxsize=_CHUNK_CACHE)
def _chunk_l1(n: int, chunk: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The exact l1 matrix of a chunk's reduced Burau product on n strands:
    entry (i, j) is the l1 norm of the entry's coefficients."""
    m, bits, _ = _packed_burau(n, chunk)
    return tuple(tuple(packed_l1(v, bits) for v in row[1:n]) for row in m)


def _l1_bound(n: int, letters) -> int:
    """A bound on the l1 norm of every entry of the reduced Burau product."""
    if len(letters) > 4 * _CHUNK:
        # l1 is submultiplicative, and each chunk's l1 matrix is exact
        bound = None
        for i in range(0, len(letters), _CHUNK):
            l1 = _chunk_l1(n, letters[i : i + _CHUNK])
            bound = l1 if bound is None else [
                [sum(map(mul, row, col)) for col in zip(*l1)] for row in bound
            ]
        return max(map(max, bound))
    rows = [[int(i == j) for j in range(n + 1)] for i in range(1, n)]
    for x in letters:
        k = abs(x)
        for row in rows:
            row[k] += row[k - 1] + row[k + 1]
    return max(map(max, rows))


def _packed_burau(n: int, letters, bits: int = 0) -> tuple[list[list[int]], int, int]:
    """(rows, bits, neg): t**neg times the reduced Burau product at t = 2**bits.

    Rows are padded with a zero column at each end, so letter k updates
    column k from columns k - 1 and k + 1 with no edge cases; neg is the
    number of negative letters.  The values are exact at any slot; bits
    defaults to the slot of `_l1_bound`, which holds every coefficient.
    """
    bits = bits or slot_bits(_l1_bound(n, letters))
    neg = sum(1 for x in letters if x < 0)
    m = [[int(i == j) << (bits * neg) for j in range(n + 1)] for i in range(1, n)]
    for x in letters:
        k = abs(x)
        if x > 0:
            for row in m:
                row[k] = ((row[k - 1] - row[k]) << bits) + row[k + 1]
        else:
            # the shift is exact, not floor: with q = t**neg * entry, the new
            # q[k] - q[k-1] is (q[k+1] - q[k]) / t, and every entry keeps
            # exponents >= -neg, so q[k+1] - q[k] is t times a polynomial and
            # its value at 2**bits a multiple of 2**bits
            for row in m:
                row[k] = ((row[k + 1] - row[k]) >> bits) + row[k - 1]
    return m, bits, neg


def reduced_burau(word: BraidWord) -> tuple[int, list[list[tuple[int, ...]]]]:
    """(neg, rows): t**neg times the reduced Burau matrix of a braid word,
    each entry dense from t**0, with neg its number of negative letters;
    a left-to-right homomorphism.

    On two strands sigma_1 maps to the 1 x 1 matrix (-t).  The product is
    evaluated at t = 2**B, with B from the t = 1 absolute-value recursion
    or, past four 16-letter chunks, from the product of the chunks' exact
    l1 matrices; see the module notes.
    """
    n = word.strands
    if n < 2:
        return 0, []
    m, bits, neg = _packed_burau(n, word.letters)
    return neg, [[tuple(_unpack(v, bits)) for v in row[1:n]] for row in m]


def alexander_from_burau(word: BraidWord) -> tuple[int, ...]:
    """Alexander polynomial of the knot closure, normalized so the lowest
    exponent is 0 and the constant term is positive.

    The word is split at its middle, w = w1 w2 with |w1| = floor(|w| / 2),
    and det(rho(w2) - rho(w1^-1)) is taken in place of det(rho(w) - I):
    the two differ by the unit (-1)**|w1| * t**e(w1), which
    `normalized` drops.  Both half products share one slot; see the
    module notes.
    """
    if closure_components(word) != 1:
        raise ValueError("Alexander pipeline needs a knot closure")
    n = word.strands
    if n < 2:
        return (1,)
    h = len(word.letters) // 2
    second = word.letters[h:]
    first_inverse = tuple(-x for x in reversed(word.letters[:h]))
    # the l1 norm of a difference is at most the sum of the two norms
    bits = slot_bits(_l1_bound(n, second) + _l1_bound(n, first_inverse))
    a, _, neg_a = _packed_burau(n, second, bits)
    b, _, neg_b = _packed_burau(n, first_inverse, bits)
    # shift each half's packed t**neg_x X up to t**neg X, then subtract
    neg = max(neg_a, neg_b)
    shift_a = bits * (neg - neg_a)
    shift_b = bits * (neg - neg_b)
    diff = [
        [(x << shift_a) - (y << shift_b) for x, y in zip(row_a[1:n], row_b[1:n])]
        for row_a, row_b in zip(a, b)
    ]
    # a packed value's lowest nonzero slot is its 2-adic valuation // bits;
    # t**low divides every entry, a unit, so it is shifted out
    low = min((((v & -v).bit_length() - 1) // bits for row in diff for v in row if v), default=0)
    m = [[_unpack(v >> (low * bits), bits) for v in row] for row in diff]
    # divided by the monic 1 + t + ... + t^(n-1), so the division is exact
    quotient, remainder = _divide(normalized(det_laurent(m)), [1] * n)
    if any(remainder):
        raise ValueError("Burau determinant not divisible by 1 + t + ... + t^(n-1)")
    return normalized(quotient)


# -- Bennequin surface ---------------------------------------------------


# Adjacent-column bricks meet once on the surface; the asymmetric unit goes
# in the slot fixed by cross-pipeline agreement with the Burau determinant
# (240 random homogeneous knot words) and by matching tabulated signatures
# for torus, figure-eight, 6_2 and 6_3 closures.
_SHARED_POS = (1, 0)  # V[earlier][later], V[later][earlier], shared band positive
_SHARED_NEG = (0, -1)  # shared band negative
_INTERLEAVE_LOW_FIRST = (0, 1)  # x in lower column starts first: V[x][y], V[y][x]
_INTERLEAVE_HIGH_FIRST = (0, -1)  # y in higher column starts first: V[x][y], V[y][x]


def brick_seifert(word: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Seifert matrix of the Bennequin surface of a sign-pure braid word.

    Preconditions: the closure is a knot, every index 1..n-1 occurs (the
    surface is connected), and each column is sign-pure.  The matrix has
    len(word) - strands + 1 rows.
    """
    n = word.strands
    present = {abs(x) for x in word.letters}
    if present != set(range(1, n)):
        raise ValueError("every index 1..n-1 must occur for a connected surface")
    if closure_components(word) != 1:
        raise ValueError("Bennequin Seifert matrix needs a knot closure")
    for i in range(1, n):
        signs = {1 if x > 0 else -1 for x in word.letters if abs(x) == i}
        if len(signs) > 1:
            raise ValueError(f"column {i} mixes crossing signs; brick rules need sign-pure columns")
    columns: dict[int, list[int]] = {i: [] for i in range(1, n)}
    for pos, x in enumerate(word.letters):
        columns[abs(x)].append(pos)
    bricks = []  # (column, start position, end position, column sign)
    for i in range(1, n):
        occ = columns[i]
        sign = 1 if word.letters[occ[0]] > 0 else -1
        for a, b in zip(occ, occ[1:]):
            bricks.append((i, a, b, sign))
    size = len(bricks)
    mat = [[0] * size for _ in range(size)]
    for a in range(size):
        ca, pa, qa, sa = bricks[a]
        mat[a][a] = -sa
        for b in range(a + 1, size):
            cb, pb, qb, sb = bricks[b]
            if ca == cb and qa == pb:
                vab, vba = _SHARED_POS if sa > 0 else _SHARED_NEG
                mat[a][b] = vab
                mat[b][a] = vba
            elif cb - ca == 1:
                if pa < pb < qa < qb:
                    mat[a][b], mat[b][a] = _INTERLEAVE_LOW_FIRST
                elif pb < pa < qb < qa:
                    mat[a][b], mat[b][a] = _INTERLEAVE_HIGH_FIRST
    return tuple(tuple(row) for row in mat)


def alexander_from_seifert(s) -> tuple[int, ...]:
    """det(S - t S^T), normalized; the empty matrix gives 1.

    `det_transpose_pencil` refuses a non-square S.
    """
    return normalized(det_transpose_pencil(s))


class SignatureMarginError(ValueError):
    """The evaluation point is a root of the Alexander polynomial."""


def signature_function(s, omega=-1) -> int:
    """Signature of (1-omega) S + (1-conj(omega)) S^T, exactly.

    omega is -1 or a pair (x, y) of ints or Fractions on the unit circle,
    not (1, 0); see the module notes.  A root of Delta = det(S - t S^T)
    raises SignatureMarginError.  A knot's form never does: Delta(1) = +-1,
    and a rational point (p + ir)/q in lowest terms has q odd, so its
    primitive minimal polynomial (q t**2 - 2p t + q, or t + 1) is even at 1
    and, by Gauss's lemma, cannot divide Delta in Z[t].
    """
    m = len(s)
    if any(len(row) != m for row in s):
        raise ValueError("Seifert matrix must be square")
    point = (-1, 0) if isinstance(omega, int) and omega == -1 else omega
    pair = isinstance(point, tuple) and len(point) == 2
    if not (pair and all(isinstance(c, (int, Fraction)) for c in point)):
        raise ValueError("omega must be -1 or a pair (x, y) of ints or Fractions")
    x, y = map(Fraction, point)
    if x * x + y * y != 1 or (x, y) == (1, 0):
        raise ValueError("omega must be a point of the unit circle other than 1")
    a, b = x.denominator - x.numerator, y.numerator  # d (1 - x) and d y
    big_a = [[a * (u + v) for u, v in zip(row, col)] for row, col in zip(s, zip(*s))]
    big_b = [[b * (v - u) for u, v in zip(row, col)] for row, col in zip(s, zip(*s))]
    top = [ra + [-v for v in rb] for ra, rb in zip(big_a, big_b)]  # [A, -B]
    bottom = [rb + ra for ra, rb in zip(big_a, big_b)]  # [B, A]
    swap = [[-int(j == (i + m) % (2 * m)) for j in range(2 * m)] for i in range(2 * m)]
    # det(P M - t P) = (-1)^m det(t I - M) for the block swap P
    p = det_pencil(bottom + top, swap)
    if not p[0]:
        raise SignatureMarginError("omega is a root of the Alexander polynomial")
    # the 2m roots are real and nonzero, so (positive - negative) / 2 = positive - m
    return _descartes(p) - m


def _descartes(coeffs: list[int]) -> int:
    """Positive-root count, with multiplicity, of a real-rooted polynomial."""
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def knot_determinant(alex) -> int:
    """|Delta(-1)|, the alternating sum of the coefficients."""
    return abs(sum(alex[::2]) - sum(alex[1::2]))

