"""Exact integer polynomials: their one form, determinants and root counts.

A polynomial is a dense ascending tuple of ints from t**0, the coefficient
of t**k at position k, and () is zero.  Determinants return one with its
low zeros kept and no top zeros.  `normalized` takes it up to a unit
(zeros stripped at both ends, the constant term positive), which is how
Alexander polynomials are compared, and `to_text` prints it for reports.
A Laurent polynomial, such as a Burau entry, is carried as t**N times it
for a known N.  Nothing here ever touches floating point.

Determinants use Kronecker substitution: every entry is evaluated at
t = 2**B, the integer matrix is eliminated fraction-free (Bareiss), and
the determinant is read back off the final integer in balanced base-2**B
digits, so the hot loop is CPython's big-integer multiply.  Four packers
share the one slot rule below.  `det_laurent` packs a matrix of
polynomials (the Burau path) and `det_pencil(A, B)` the integer pencil
A + t*B as A_ij + (B_ij << B), entry by entry.  The fibred column's two
pencils are packed straight from one matrix.  `charpoly` takes t*I - M
from M: it negates each entry once, takes row i's sum of squared entry l1
norms as sum_j M_ij**2 + 2|M_ii| + 1 (the diagonal entry -M_ii + t has l1
norm |M_ii| + 1), and adds 2**B to the diagonal.  `det_transpose_pencil`
takes S - t*S^T from the nonzero entries of S alone, found by `compress`:
each x = S_ij adds x**2 + 2|x S_ji| to row i's sum of squares and x**2 to
row j's, which sums the squared |S_ij| + |S_ji| of `det_pencil(S, -S^T)`,
and then -x << B to entry (j, i) of S.  The Seifert forms are mostly
zeros, and the 99 `monodromy-lift` determinants take about 0.6 of the
time of `det_pencil(S, -S^T)`: 5.2 to 7.6 ms against 8.8 to 11.6 over
two host speeds (in process, best of 15, 2-core Xeon).

There are two eliminations, one per kind of matrix, with one pivot rule
and one deferred row scaling.  Step k pivots on row k when its column-k
entry is nonzero, with no search; otherwise on the first row i > k whose
column-k entry is nonzero, swapped in with a sign flip; a column with no
nonzero entry left gives 0.  Row pivoting keeps Bareiss exact: each
quotient is a minor of the row-permuted matrix.  Step k takes row i to
(p_k * r_ij - r_ik * r_kj) / p_(k-1), p_0 = 1; when r_ik = 0 that is r_ij
times p_k / p_(k-1), and over a run of such steps the factors telescope to
p_k / p_l, l the row's last real update.  So such a row is left as it is
and keeps a divisor, the pivot of its last update (1 at the start): its
up-to-date entries are the stored ones times prev / divisor.  A real
update divides by the row's divisor in place of prev, which gives the same
exact minor, and sets the divisor to the step's pivot.  The pivot row, and
the final entry, are brought up to date by one multiply by prev and one
exact division by the divisor.  A stored entry is 0 exactly when its
up-to-date value is, so the first nonzero entry is read off the stored
rows, and its row is nearly always one that the step before updated.

`_bareiss_plain` takes the integer matrices, on plain ints, each row
dropping its pivot-column entry as the step passes it: the pencils of
the three integer packers, the Gram determinant of `coverlift.is_cyclic`
and the augmented rows of `coverlift.seifert_from_monodromy`, which reads
the caught-up pivot rows.  The pencils are sparse: the genus-10, power-10
monodromy M has 170 zero entries in 400 and its Seifert form 358, and 170
of the 190 row updates of either pencil, tI - M or S - tS^T, are such
scalings.  On the 99 `monodromy-lift` matrices (the eliminations alone,
in process, medians of 30 runs, 2-core Xeon host) it takes the charpolys
in 5.8 ms against 9.7 for `_bareiss_det`, and the Seifert pencils in 4.1
against 6.0.

`_bareiss_det` takes the Burau matrices of `det_laurent`, whose packed
entries carry powers of t.  It stores every entry, and each divisor, as an
odd mantissa m and an exponent e >= 0, the value m * 2**e (zero is 0 with
e = 0); its first pass moves the trailing zeros of an even entry into its
exponent.  An entry t**k * p packs to 2**(k*B) times the packed p, and
every k x k Bareiss minor of aligned entries carries such a factor, so the
powers of two that aligning creates stay in the exponents and out of the
big-integer operands.  A product adds exponents; a difference shifts the
mantissa with the larger exponent up to the smaller one; each result drops
its trailing zeros into its exponent.  The division by the previous pivot
pm * 2**pe uses the odd pm alone, and is exact: the Bareiss quotient is an
integer (a minor), so the odd pm divides the odd part of the numerator,
and the quotient's exponent ve - pe is its 2-adic valuation, hence >= 0.
On the 56 example-sweep Burau determinants it takes 6.1 ms against 14.3
for `_bareiss_plain`, and 6.3 against 7.7 without deferred scaling.

Only the final determinant is unpacked (the Bareiss intermediates are exact
integers whatever B is), so B has to cover its coefficients alone.  It is
sized from Hadamard's inequality on the unit circle:

- for |t| = 1, |det P(t)| <= prod_i ||row_i(t)||_2;
- on the circle, |P_ij(t)| <= |P_ij|_1, the l1 norm of its coefficients;
- each coefficient of a Laurent polynomial p is the mean of p(t) * t**-k
  over the circle, so it is at most the maximum modulus of p there.

So every coefficient of the determinant is at most
ceil(sqrt(prod_i sum_j |P_ij|_1**2)), computed exactly with `isqrt` and
rounded up.  For a pencil, |A_ij + t*B_ij|_1 = |A_ij| + |B_ij|.  Since
sum x**2 <= (sum x)**2, the bound is never wider than the product of the
row l1 norms.

That bound is often far above the coefficients, and every Bareiss operand
is as long as the longest entry times the slot.  One slot still suffices,
because the Burau determinants come from the two short half-words (see
`invariants`): several narrower slots, certified, pay only at genus 2,
enhanced, powers 6 to 10, and save 0.5 to 5 ms of determinants of 3 to
14 ms (best of 15, interleaved, 2-core Xeon host).

The packing lives here alone.  `slot_bits(bound)` is the slot width whose
balanced digits, in [-2**(B-1), 2**(B-1)), hold every integer of size at
most bound; `_unpack(value, bits)` reads a packed value back as dense
coefficients, which is how the Burau product of `invariants` is unpacked.
`_pack` and `_unpack` split in halves.  Packing adds the low half to the
high half shifted by h*B.  Unpacking first adds 2**(B-1) to every slot,
which makes every digit nonnegative, so the value splits with masks and
shifts, and then takes 2**(B-1) off each digit.  Both halves recurse, so k
digits cost O(k B log k) bit operations rather than the O(k**2 B) of one
digit at a time.

It also holds the one polynomial arithmetic of the product, on dense
ascending int sequences, tuples or lists: that of root counting, of the
trace polynomials and mu tests of `pacert` and of the Burau quotient of
`invariants`.  `_mul(a, b)` is the product.
`_divide(a, b)` is pseudo-division: the quotient and remainder of
|lc(b)|**k * a by b, with k = len(a) - len(b) + 1.  The multiplier is
positive, so every sign is kept, and it is 1 when b is monic, so
reduction modulo a characteristic polynomial, and division by
1 + t + ... + t^(n-1), is exact.

Root counting is fraction-free.  A Sturm chain starts from p over its
content and from its derivative, or from a given second row q; each next
row is minus the pseudo-remainder of the two before it over its content,
so row i is a positive multiple of the rational chain's row i and keeps
every sign (Collins, JACM 1967).  The rows are then
divided exactly by the last one, gcd(p, p') or gcd(p, q), which changes no
count between points that are not roots of p.  Between two such points
the count from p and q is the Cauchy index of q / p; with q = p' * r, or
its remainder mod p, it is Sylvester's: the roots x of p there, each
counted once with the sign of r(x) (Basu, Pollack and Roy, Algorithms in
Real Algebraic Geometry, ch. 2).
The sign of a row q of degree d at x = a/b (b > 0) is the sign of the
integer sum c_i a^i b^(d-i), which is b^d q(x).  Bisections pass the
prebuilt `SturmChain` to `count_roots_in`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, islice
from math import gcd, isqrt
from operator import index, mul


def normalized(coeffs) -> tuple[int, ...]:
    """coeffs up to a unit: zeros stripped at both ends, the constant term
    positive; () for the zero polynomial."""
    lo, hi = 0, len(coeffs)
    while hi and not coeffs[hi - 1]:
        hi -= 1
    while lo < hi and not coeffs[lo]:
        lo += 1
    sign = 1 if lo == hi or coeffs[lo] > 0 else -1
    return tuple(sign * c for c in coeffs[lo:hi])


def to_text(coeffs) -> str:
    """The report text of a polynomial from t**0: its lowest exponent 0, a
    bar, then the coefficients."""
    return "0|" + " ".join(map(str, coeffs))


def _pack(coeffs, bits: int) -> int:
    """The value of sum(coeffs[i] * t**i) at t = 2**bits, split in halves."""
    n = len(coeffs)
    if n <= 8:
        acc = 0
        for c in reversed(coeffs):
            acc = (acc << bits) + c
        return acc
    h = n // 2
    return _pack(coeffs[:h], bits) + (_pack(coeffs[h:], bits) << (h * bits))


def slot_bits(bound: int) -> int:
    """Slot width whose balanced digits hold every integer of size <= bound."""
    return bound.bit_length() + 2


def _unpack(value: int, bits: int) -> list[int]:
    """Balanced base-2**bits digits of value, lowest first, no top zeros."""
    # a top digit 1 in slot t over digits -2**(bits-1) leaves a value just
    # under 2**(t*bits - 1), so t can be bit_length // bits + 1
    count = value.bit_length() // bits + 2
    # half = 2**(bits-1) in every slot turns each digit d into d + half >= 0
    half = 1 << (bits - 1)
    slots, filled = half, 1
    while filled < count:
        slots |= slots << (filled * bits)
        filled *= 2
    slots &= (1 << (count * bits)) - 1
    digits = _split(value + slots, bits, count, half)
    while digits and not digits[-1]:
        digits.pop()
    return digits


def _split(value: int, bits: int, count: int, half: int) -> list[int]:
    # value is nonnegative with count digits in [0, 2**bits); each comes
    # out minus half.  A few digits are cheaper peeled one at a time.
    if count <= 8:
        mask = (1 << bits) - 1
        out = []
        for _ in range(count):
            out.append((value & mask) - half)
            value >>= bits
        return out
    h = count // 2
    width = h * bits
    return _split(value & ((1 << width) - 1), bits, h, half) + _split(
        value >> width, bits, count - h, half
    )


def packed_l1(value: int, bits: int) -> int:
    """l1 norm of the polynomial read off value by `_unpack(value, bits)`.

    Peels one balanced digit at a time, which suits the short values of a
    few digits it is used on.
    """
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    total = 0
    while value:
        digit = ((value + half) & mask) - half
        total += abs(digit)
        value = (value - digit) >> bits
    return total


def _det_slot_bits(row_squares) -> int:
    """Slot width for a determinant, from each row's sum of squared entry l1
    norms: Hadamard's inequality on the unit circle (see the module notes)."""
    product = 1
    for square in row_squares:
        product *= square
    root = isqrt(product)
    return slot_bits(root if root * root == product else root + 1)


def _bareiss_plain(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Fraction-free (Bareiss) elimination of the first n columns of n int
    rows, which may run on as an augmented right-hand side: see the module
    notes.  Destroys the rows.  Returns the caught-up pivot rows, row k from
    column k on, and the signed determinant of the leading n x n block, 0
    when a column has no pivot left (the pivot rows then stop short).
    """
    n = len(rows)
    # each row's divisor: the pivot of its last update; the row is its
    # stored entries times prev / divisor
    divs = [1] * n
    upper = []
    sign = prev = 1
    for col in range(n):
        # every row starts at column col: the columns before it are done
        if not rows[col][0]:
            r = next((i for i in range(col + 1, n) if rows[i][0]), None)
            if r is None:
                return upper, 0
            rows[col], rows[r] = rows[r], rows[col]
            divs[col], divs[r] = divs[r], divs[col]
            sign = -sign
        row = rows[col]
        div = divs[col]
        if div != prev:
            # bring the pivot row up to date
            row = [x * prev // div for x in row]
        upper.append(row)
        pivot = row[0]
        tail = row[1:]
        for i in range(col + 1, n):
            below = rows[i]
            f = below[0]
            if f:
                div = divs[i]
                rows[i] = [
                    (pivot * x - f * y) // div
                    for x, y in zip(islice(below, 1, None), tail)
                ]
                divs[i] = pivot
            else:
                # the step would only scale the row by pivot / prev
                del below[0]
        prev = pivot
    return upper, sign * prev


def _bareiss_det(values: list[list[int]], exps: list[list[int]]) -> int:
    """Determinant of the integer matrix (values[i][j] << exps[i][j]).

    Fraction-free (Bareiss) elimination on odd mantissas, pivoting on the
    first nonzero entry of each column and leaving a row unscaled while its
    pivot-column entries are 0: see the module notes.  Every
    exponent must be >= 0.  Destroys both arguments, and reorders their rows
    in place.
    """
    n = len(values)
    if n == 0:
        return 1
    for mi, ei in zip(values, exps):
        for j, x in enumerate(mi):
            if x & 1:
                # already an odd mantissa
                continue
            if x:
                tz = (x & -x).bit_length() - 1
                mi[j] = x >> tz
                ei[j] += tz
            else:
                ei[j] = 0
    # each row's divisor: the pivot (odd mantissa, exponent) of its last
    # update; the row's entries are its stored ones times prev / divisor
    divs = [1] * n
    div_exps = [0] * n
    sign = 1
    prev, prev_exp = 1, 0
    for k in range(n - 1):
        if not values[k][k]:
            r = next((i for i in range(k + 1, n) if values[i][k]), None)
            if r is None:
                return 0
            values[k], values[r] = values[r], values[k]
            exps[k], exps[r] = exps[r], exps[k]
            divs[k], divs[r] = divs[r], divs[k]
            div_exps[k], div_exps[r] = div_exps[r], div_exps[k]
            sign = -sign
        mk, ek = values[k], exps[k]
        div, div_exp = divs[k], div_exps[k]
        if div != prev or div_exp != prev_exp:
            # bring the pivot row up to date
            for j in range(k, n):
                if mk[j]:
                    mk[j] = mk[j] * prev // div
                    ek[j] += prev_exp - div_exp
        pivot, pivot_exp = mk[k], ek[k]
        for i in range(k + 1, n):
            mi = values[i]
            a = mi[k]
            if not a:
                # the step would only scale the row by pivot / prev
                continue
            ei = exps[i]
            ea = ei[k]
            div, div_exp = divs[i], div_exps[i]
            for j in range(k + 1, n):
                # pivot * v_ij - v_ik * v_kj, aligned at the smaller exponent
                x = pivot * mi[j]
                y = a * mk[j]
                ex = pivot_exp + ei[j]
                ey = ea + ek[j]
                if ex > ey:
                    x = (x << (ex - ey)) - y
                    ex = ey
                else:
                    x -= y << (ey - ex)
                if x:
                    # the Bareiss quotient is an integer and div is odd, so
                    # div divides the odd part exactly, and the quotient's
                    # exponent is its 2-adic valuation, hence >= 0
                    tz = (x & -x).bit_length() - 1
                    mi[j] = (x >> tz) // div
                    ei[j] = ex + tz - div_exp
                else:
                    mi[j] = 0
                    ei[j] = 0
            mi[k] = 0
            divs[i], div_exps[i] = pivot, pivot_exp
        prev, prev_exp = pivot, pivot_exp
    last = values[n - 1][n - 1]
    if not last:
        # a zero keeps exponent 0, which the catch-up could take below 0
        return 0
    return sign * (last * prev // divs[n - 1]) << (
        exps[n - 1][n - 1] + prev_exp - div_exps[n - 1]
    )


def det_laurent(matrix) -> tuple[int, ...]:
    """Exact determinant of a square matrix of integer polynomials.

    Entries are dense ascending int sequences from t**0, and so is the
    result, with its low zeros kept; a float or Fraction raises TypeError.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    matrix = [[tuple(map(index, p)) for p in row] for row in matrix]
    bits = _det_slot_bits(
        sum(sum(map(abs, p)) ** 2 for p in row) for row in matrix
    )
    values = [[_pack(p, bits) for p in row] for row in matrix]
    exps = [[0] * n for _ in range(n)]
    return tuple(_unpack(_bareiss_det(values, exps), bits))


def det_pencil(a, b) -> tuple[int, ...]:
    """Exact determinant det(A + t*B) of two square integer matrices.

    The Hadamard slot rule of `det_laurent` on the pencil's entries
    A_ij + B_ij * t, whose l1 norms are |A_ij| + |B_ij|, packed straight
    from the integers and eliminated by `_bareiss_plain`.  The result is
    dense from t**0.
    """
    n = len(a)
    if len(b) != n or any(len(row) != n for row in a) or any(len(row) != n for row in b):
        raise ValueError("determinant of a non-square pencil")
    a = [[index(x) for x in row] for row in a]
    b = [[index(y) for y in row] for row in b]
    bits = _det_slot_bits(
        sum((abs(x) + abs(y)) ** 2 for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )
    values = [[x + (y << bits) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return tuple(_unpack(_bareiss_plain(values)[1], bits))


def det_transpose_pencil(s) -> tuple[int, ...]:
    """Exact determinant det(S - t*S^T) of a square integer matrix S, at
    the slot of `det_pencil(S, -S^T)`, packed from the nonzero entries of S
    alone (see the module notes).  The result is dense from t**0."""
    n = len(s)
    if any(len(row) != n for row in s):
        raise ValueError("determinant of a non-square pencil")
    s = [list(map(index, row)) for row in s]
    squares = [0] * n
    nonzeros = []
    for i, row in enumerate(s):
        for j in compress(range(n), row):
            x = row[j]
            squares[i] += x * x + 2 * abs(x * s[j][i])
            squares[j] += x * x
            nonzeros.append((j, i, x))
    bits = _det_slot_bits(squares)
    for j, i, x in nonzeros:
        s[j][i] -= x << bits
    return tuple(_unpack(_bareiss_plain(s)[1], bits))


def charpoly(matrix) -> tuple[int, ...]:
    """Characteristic polynomial det(t*I - M) of an integer matrix, exactly,
    its pencil packed straight from M (see the module notes)."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square pencil")
    values = [[-index(x) for x in row] for row in matrix]
    bits = _det_slot_bits(
        sum(map(mul, row, row)) + 2 * abs(row[i]) + 1 for i, row in enumerate(values)
    )
    one = 1 << bits
    for i, row in enumerate(values):
        row[i] += one
    return tuple(_unpack(_bareiss_plain(values)[1], bits))


# -- integer polynomials -----------------------------------------------
# dense ascending integer coefficient lists: the coefficient of t^k at
# position k


def _mul(a, b) -> list[int]:
    """Product of a and b; empty (zero) when either is.  Not trimmed."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divide(a, b) -> tuple[list[int], list[int]]:
    """Quotient and remainder of |lc(b)|**k * a by b.

    k = max(len(a) - len(b) + 1, 0), and b is nonzero with no trailing
    zeros.  The multiplier is positive, so every sign is kept, and 1 when b
    is monic.  It is taken up front: the rational quotient's coefficients
    have denominators dividing lc(b)**k, so every step's division by lc(b)
    is exact.  Neither result is trimmed.
    """
    db = len(b) - 1
    lead = b[-1]
    k = max(len(a) - db, 0)
    scale = abs(lead) ** k
    rem = [c * scale for c in a]
    quo = [0] * k
    for i in range(k - 1, -1, -1):
        c = rem[i + db]
        if c:
            f = quo[i] = c // lead
            for j in range(db):
                rem[i + j] -= f * b[j]
    return quo, rem[:db]


def _primitive(row) -> list[int]:
    """row without trailing zeros, over the positive gcd of its entries."""
    n = len(row)
    while n and not row[n - 1]:
        n -= 1
    content = gcd(*row[:n])
    return [c // content for c in row[:n]]


class SturmChain(list):
    """Sturm chain of a polynomial as integer rows (dense, ascending).

    Row i is a positive integer multiple of p_i / gcd(p, q), where p_i is
    the rational chain of p and q (p' unless given).  The positive scale
    keeps every sign; the division keeps the rows from all vanishing at a
    common root.  `count_roots_in` takes one of these in place of a
    polynomial, so a bisection builds its chain once.
    """


def sturm_chain(p, q=None) -> SturmChain:
    """Sturm chain of a polynomial with int coefficients (dense, ascending),
    squarefree or not, and a second row q with int coefficients, p' by
    default (see the module notes for q = (p' r) mod p).  A float or
    Fraction coefficient of p raises TypeError."""
    p0 = _primitive(list(map(index, p)))
    if not p0:
        return SturmChain()
    chain = [p0]
    row = _primitive([i * c for i, c in enumerate(p0)][1:] if q is None else q)
    while row:
        chain.append(row)
        row = _primitive([-c for c in _divide(chain[-2], row)[1]])
    # the last row is gcd(p, q); dividing it out leaves rows that do not all
    # vanish at a root of it (for q = p', a multiple root of p)
    common = chain[-1]
    if len(common) > 1:
        chain = [_primitive(_divide(row, common)[0]) for row in chain]
    return SturmChain(chain)


def _sign_changes(chain: SturmChain, x: Fraction) -> int:
    """Sign changes along the chain at the rational x = a/b, in integers.

    With b > 0 the homogenised sum of c_i a^i b^(d-i) is b^d q(x), so it has
    the sign of q(x); Horner in a with the powers of b does it exactly.
    """
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    powers = [1]
    for _ in range(max(len(q) for q in chain) - 1):
        powers.append(powers[-1] * b)
    changes = 0
    last = 0
    for q in chain:
        d = len(q) - 1
        acc = q[d]
        for i in range(d - 1, -1, -1):
            acc = acc * a + q[i] * powers[d - i]
        if acc:
            if last and (acc > 0) != (last > 0):
                changes += 1
            last = acc
    return changes


def count_roots_in(p, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    p is a polynomial (dense, ascending, int coefficients) or its
    `SturmChain`; lo and hi are rationals.  lo == hi is the empty interval;
    lo > hi is an error.
    """
    if lo > hi:
        raise ValueError(f"root counting on ({lo}, {hi}]: lo > hi")
    chain = p if isinstance(p, SturmChain) else sturm_chain(p)
    if not chain:
        raise ValueError("root counting for the zero polynomial")
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)
