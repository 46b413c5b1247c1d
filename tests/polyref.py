"""Reference Laurent polynomial arithmetic for the tests' oracles.

A polynomial is a dict {exponent: coefficient} holding no zero
coefficient, so the zero polynomial is {} and two polynomials are equal
exactly when their dicts are.  Nothing here imports braidkit, so an oracle
built on these shares no code with the arithmetic it checks.  braidkit's
polynomials are dense coefficient tuples from t**0: `poly` reads dense
coefficients from any lowest exponent, `dense` writes them from t**0, and
`at` evaluates.

`enclose` is the two-count bisection of the mu enclosure on a rational
Sturm sequence, which takes dense coefficients as braidkit does.
"""

from fractions import Fraction
from math import lcm


def poly(offset, coeffs):
    """sum(coeffs[i] * t**(offset + i))."""
    return {offset + i: c for i, c in enumerate(coeffs) if c}


def dense(p):
    """The coefficients of p from t**0, no zero on top; () for 0.

    p has no negative exponent.
    """
    if min(p, default=0) < 0:
        raise ValueError("dense coefficients from t**0 need exponents >= 0")
    return tuple(p.get(e, 0) for e in range(max(p, default=-1) + 1))


def at(p, x):
    """The value of p, with no negative exponent, at the integer x."""
    if min(p, default=0) < 0:
        raise ValueError("integer values need exponents >= 0")
    return sum(c * x**e for e, c in p.items())


def add(*terms):
    out = {}
    for p in terms:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def neg(p):
    return {e: -c for e, c in p.items()}


def sub(a, b):
    return add(a, neg(b))


def mul(*factors):
    out = {0: 1}
    for p in factors:
        prod = {}
        for e, c in out.items():
            for f, d in p.items():
                prod[e + f] = prod.get(e + f, 0) + c * d
        out = {e: c for e, c in prod.items() if c}
    return out


def power(p, n):
    return mul(*[p] * n)


def identity(size):
    return [[{0: 1} if i == j else {} for j in range(size)] for i in range(size)]


def mat_mul(a, b):
    return [[add(*(mul(x, y) for x, y in zip(row, col))) for col in zip(*b)] for row in a]


def cofactor_det(m):
    """Determinant by expansion along the first row."""
    if not m:
        return {0: 1}
    terms = []
    for j, entry in enumerate(m[0]):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = mul(entry, cofactor_det(minor))
        terms.append(term if j % 2 == 0 else neg(term))
    return add(*terms)


def is_symplectic(matrix):
    """M^T J M = J for the integer matrix M and the chain form J of its size."""
    n = len(matrix)
    form = [[int(j == i + 1) - int(i == j + 1) for j in range(n)] for i in range(n)]

    def times(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    return times([list(col) for col in zip(*matrix)], times(form, matrix)) == form


def _trimmed(p):
    p = [Fraction(c) for c in p]
    while p and not p[-1]:
        p.pop()
    return p


def _divmod(a, b):
    """Quotient and remainder of dense rational polynomials, b nonzero."""
    a, b = _trimmed(a), _trimmed(b)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c, k = a[-1] / b[-1], len(a) - len(b)
        q[k] = c
        for i, x in enumerate(b):
            a[i + k] -= c * x
        a = _trimmed(a)  # the top coefficient is now exactly zero
    return q, a


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def sturm_sequence(p):
    """The rational Sturm sequence of the squarefree part of p: it counts
    the distinct real roots of p in (lo, hi] as changes(lo) - changes(hi)."""
    g, r = _trimmed(p), _trimmed(_derivative(p))
    while r:
        g, r = r, _divmod(g, r)[1]
    rows = [_divmod(p, g)[0]]
    rows.append(_trimmed(_derivative(rows[0])))
    while rows[-1]:
        rows.append([-c for c in _divmod(rows[-2], rows[-1])[1]])
    # a positive multiple of each row keeps every sign: make them integral
    return [[int(c * lcm(*(c.denominator for c in q))) for c in q] for q in rows[:-1]]


def changes(sequence, x):
    """Sign changes along an integral Sturm sequence at x, zeros skipped.

    At x = a/b, b > 0, the sum of c_i a^i b^(d - i) is b^d q(x)."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    values = [sum(c * a**i * b ** (len(q) - 1 - i) for i, c in enumerate(q)) for q in sequence]
    signs = [v > 0 for v in values if v]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def enclose(p, hi, tolerance):
    """(lo, hi] around the largest root of p in (0, hi], by the bisection
    braidkit used before it kept the counts at the ends: each step counts
    the roots in (lo, hi] and in (mid, hi] afresh, and it stops once one
    root is isolated, the width is at most tolerance and lo is not a root."""
    sequence = sturm_sequence(p)

    def count(a, b):
        return changes(sequence, a) - changes(sequence, b)

    lo = Fraction(0)
    while count(lo, hi) > 1 or hi - lo > tolerance or not sum(c * lo**i for i, c in enumerate(p)):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if count(mid, hi) else (lo, mid)
    return lo, hi
