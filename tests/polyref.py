"""Reference Laurent polynomial arithmetic for the tests' oracles.

A polynomial is a dict {exponent: coefficient} holding no zero
coefficient, so the zero polynomial is {} and two polynomials are equal
exactly when their dicts are.  Nothing here imports braidkit, so an oracle
built on these shares no code with the arithmetic it checks.  braidkit's
polynomials are dense coefficient tuples from t**0: `poly` reads dense
coefficients from any lowest exponent, `dense` writes them from t**0, and
`at` evaluates.
"""


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
