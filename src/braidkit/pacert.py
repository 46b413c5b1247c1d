"""Certification of two-multitwist mapping classes on chain configurations.

Two multicurves A and B that jointly fill a surface give a representation
of the group generated by their multitwists into PSL(2, R): with mu the
largest eigenvalue of N N^T (N the geometric intersection matrix), the
multitwists map to [[1, -s], [0, 1]] and [[1, 0], [s, 1]] where s^2 = mu.
A word in the twists is pseudo-Anosov exactly when its image is hyperbolic,
so the verdict reduces to comparing |trace| with 2.

The trace of any twist word is a polynomial in mu with integer
coefficients: matrices here keep even and odd parts in s separate, and the
diagonal is always even.  Parabolic cases are therefore decided exactly
(polynomial gcd plus Sturm root counting at mu), and the strict
inequalities are decided on a rational enclosure of mu that is refined
until the verdict clears the requested margin.

Everything those tests need from the pair is a pure function of it: the
characteristic polynomial of N N^T, its integer Sturm chain and the
enclosure of mu at MU_TOLERANCE.  `mu_certificate` computes them once per
(frozen, hashable) MulticurvePair behind an lru_cache, and `mu_enclosure`,
`mu` and `classify` all read that one certificate.  `classify` is memoized
the same way, per (word, pair, margin); a MarginError is never cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .laurent import (
    LaurentPoly,
    QPoly,
    SturmChain,
    charpoly,
    count_roots_in,
    poly_gcd_q,
    sturm_chain,
    to_qpoly,
)

IntMatrix = tuple[tuple[int, ...], ...]

MU_TOLERANCE = Fraction(1, 10**12)
CLASSIFY_MARGIN = Fraction(1, 10**9)


class MarginError(ArithmeticError):
    """A strict comparison could not be certified at the required margin."""


@dataclass(frozen=True)
class MulticurvePair:
    """Even- and odd-index halves of a curve system with their crossings.

    matrix[i][j] counts intersections of the i-th A-curve with the j-th
    B-curve; entries are nonnegative and the pair fills when the bipartite
    crossing graph is connected and the complement has no essential piece.
    """

    matrix: IntMatrix

    def __post_init__(self) -> None:
        if not self.matrix or not self.matrix[0]:
            raise ValueError("intersection matrix must be nonempty")
        widths = {len(row) for row in self.matrix}
        if len(widths) != 1:
            raise ValueError("ragged intersection matrix")
        if any(x < 0 for row in self.matrix for x in row):
            raise ValueError("intersection counts must be nonnegative")

    @property
    def size_a(self) -> int:
        return len(self.matrix)

    @property
    def size_b(self) -> int:
        return len(self.matrix[0])

    def is_connected(self) -> bool:
        """Connectivity of the bipartite graph of nonzero crossings."""
        a, b = self.size_a, self.size_b
        seen = {("a", 0)}
        stack = [("a", 0)]
        while stack:
            side, i = stack.pop()
            if side == "a":
                nbrs = [("b", j) for j in range(b) if self.matrix[i][j]]
            else:
                nbrs = [("a", j) for j in range(a) if self.matrix[j][i]]
            for node in nbrs:
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        return len(seen) == a + b


def chain_pair(genus: int) -> MulticurvePair:
    """Even/odd split of the 2g-chain: curve 2i crosses curves 2i-1, 2i+1."""
    if genus < 1:
        raise ValueError("genus must be at least 1")
    g = genus
    matrix = tuple(
        tuple(1 if j == i or j == i + 1 else 0 for j in range(g))
        for i in range(g)
    )
    return MulticurvePair(matrix)


def _gram(pair: MulticurvePair) -> IntMatrix:
    n = pair.matrix
    a, b = pair.size_a, pair.size_b
    return tuple(
        tuple(sum(n[i][k] * n[j][k] for k in range(b)) for j in range(a))
        for i in range(a)
    )


@dataclass(frozen=True)
class MuCertificate:
    """Everything the exact mu tests of one pair share.

    poly is the characteristic polynomial of N N^T, chain its integer Sturm
    chain, bound an upper bound on its roots, and (lo, hi] an enclosure of
    mu of width <= MU_TOLERANCE that isolates a single distinct root.
    """

    poly: QPoly
    chain: SturmChain
    bound: Fraction
    lo: Fraction
    hi: Fraction


@lru_cache(maxsize=None)
def mu_certificate(pair: MulticurvePair) -> MuCertificate:
    """Charpoly, Sturm chain and mu enclosure of a pair, computed once."""
    if all(x == 0 for row in pair.matrix for x in row):
        raise ValueError("zero intersection matrix has no top eigenvalue")
    gram = _gram(pair)
    poly = to_qpoly(charpoly(gram))
    chain = sturm_chain(poly)
    bound = Fraction(max(sum(abs(x) for x in row) for row in gram) + 1)
    lo, hi = _isolate_top_root(chain, bound, MU_TOLERANCE)
    return MuCertificate(poly, chain, bound, lo, hi)


def _isolate_top_root(
    chain: SturmChain, bound: Fraction, tolerance: Fraction
) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(0), bound
    # peel off the largest root: shrink from above first
    while count_roots_in(chain, lo, hi) > 1 or hi - lo > tolerance:
        mid = (lo + hi) / 2
        if count_roots_in(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def mu_enclosure(
    pair: MulticurvePair, tolerance: Fraction = MU_TOLERANCE
) -> tuple[Fraction, Fraction]:
    """Rational enclosure of the top eigenvalue of N N^T, width <= tolerance.

    The interval is bisected until it both meets the width target and
    isolates a single distinct root of the characteristic polynomial, so
    later exact tests can treat "root in enclosure" as "equals mu".  At the
    default tolerance this is the pair's memoized certificate.
    """
    cert = mu_certificate(pair)
    if tolerance == MU_TOLERANCE:
        return cert.lo, cert.hi
    return _isolate_top_root(cert.chain, cert.bound, tolerance)


def mu(pair: MulticurvePair) -> float:
    lo, hi = mu_enclosure(pair)
    return float((lo + hi) / 2)


TwistWord = tuple[tuple[str, int], ...]


def parse_twist_word(text: str) -> TwistWord:
    """Parse tokens like "A B- A+" into a two-multitwist word."""
    out = []
    for token in text.split():
        symbol = token[0].upper()
        if symbol not in ("A", "B"):
            raise ValueError(f"unknown twist symbol {token!r}")
        rest = token[1:]
        if rest in ("", "+"):
            exponent = 1
        elif rest == "-":
            exponent = -1
        else:
            raise ValueError(f"malformed twist token {token!r}")
        out.append((symbol, exponent))
    return tuple(out)


# 2x2 matrices over Z[mu] + Z[mu]s with s^2 = mu: each entry is a pair
# (even, odd) of integer polynomials in mu, standing for even + odd*s.
_Sym = tuple[LaurentPoly, LaurentPoly]
_SymMatrix = tuple[tuple[_Sym, _Sym], tuple[_Sym, _Sym]]

_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()
_MU = LaurentPoly.t()


def _sym_mul(x: _Sym, y: _Sym) -> _Sym:
    (a, b), (c, d) = x, y
    return (a * c + _MU * (b * d), a * d + b * c)


def _sym_add(x: _Sym, y: _Sym) -> _Sym:
    return (x[0] + y[0], x[1] + y[1])


def _mat_mul(m: _SymMatrix, n: _SymMatrix) -> _SymMatrix:
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            row.append(
                _sym_add(
                    _sym_mul(m[i][0], n[0][j]), _sym_mul(m[i][1], n[1][j])
                )
            )
        out.append(tuple(row))
    return tuple(out)


def _generator(symbol: str, exponent: int) -> _SymMatrix:
    s = (_ZERO, _ONE if exponent > 0 else -_ONE)
    neg_s = (_ZERO, -_ONE if exponent > 0 else _ONE)
    one = (_ONE, _ZERO)
    zero = (_ZERO, _ZERO)
    if symbol == "A":
        return ((one, neg_s), (zero, one))
    if symbol == "B":
        return ((one, zero), (s, one))
    raise ValueError(f"unknown twist symbol {symbol!r}")


def twist_matrix(word: TwistWord) -> _SymMatrix:
    acc: _SymMatrix = (
        ((_ONE, _ZERO), (_ZERO, _ZERO)),
        ((_ZERO, _ZERO), (_ONE, _ZERO)),
    )
    for symbol, exponent in word:
        acc = _mat_mul(_generator(symbol, exponent), acc)
    return acc


def trace_polynomial(word: TwistWord) -> LaurentPoly:
    """Trace of the represented word as an integer polynomial in mu.

    Diagonal entries of twist-word matrices are always even in s, so the
    trace never carries an s part.
    """
    if not word:
        raise ValueError("empty twist word has no classification")
    m = twist_matrix(word)
    tr = _sym_add(m[0][0], m[1][1])
    if not tr[1].is_zero():
        raise AssertionError("twist word trace acquired an odd part")
    return tr[0]


def _interval_eval(
    poly: LaurentPoly, lo: Fraction, hi: Fraction
) -> tuple[Fraction, Fraction]:
    acc_lo, acc_hi = Fraction(0), Fraction(0)
    for c in reversed(to_qpoly(poly)):
        cands = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(cands) + c, max(cands) + c
    return acc_lo, acc_hi


def _vanishes_at_mu(poly: LaurentPoly, cert: MuCertificate) -> bool:
    """Exact test of poly(mu) = 0 on the certificate's isolating enclosure."""
    if poly.is_zero():
        return True
    common = poly_gcd_q(to_qpoly(poly), cert.poly)
    if len(common) <= 1:
        return False
    return count_roots_in(common, cert.lo, cert.hi) >= 1


@dataclass(frozen=True)
class Classification:
    kind: str  # "pseudo-anosov" | "parabolic" | "elliptic"
    trace: float
    dilatation: float | None


@lru_cache(maxsize=None)
def classify(
    word: TwistWord,
    pair: MulticurvePair,
    margin: Fraction = CLASSIFY_MARGIN,
) -> Classification:
    """Thurston-Veech trichotomy for a word in the two multitwists.

    |trace| > 2 gives pseudo-Anosov with dilatation (|tr|+sqrt(tr^2-4))/2;
    |trace| = 2 parabolic (decided exactly); |trace| < 2 elliptic.  Strict
    verdicts must clear the margin, else MarginError.
    """
    tr = trace_polynomial(word)
    cert = mu_certificate(pair)
    lo, hi = cert.lo, cert.hi
    if _vanishes_at_mu(tr - LaurentPoly.constant(2), cert) or (
        _vanishes_at_mu(tr + LaurentPoly.constant(2), cert)
    ):
        mid = (lo + hi) / 2
        return Classification("parabolic", float(tr.eval(mid)), None)
    for _ in range(8):
        tlo, thi = _interval_eval(tr, lo, hi)
        if tlo > 2 or thi < -2:
            mag_lo = max(tlo, -thi)  # lower bound for |trace|
            if mag_lo - 2 >= margin:
                mid = float((tlo + thi) / 2)
                mag = abs(mid)
                dil = (mag + (mag * mag - 4) ** 0.5) / 2
                return Classification("pseudo-anosov", mid, dil)
        if -2 < tlo and thi < 2:
            if tlo + 2 >= margin and 2 - thi >= margin:
                return Classification("elliptic", float((tlo + thi) / 2), None)
        # verdict too close to the boundary: refine the mu enclosure
        lo, hi = _refine(cert.chain, lo, hi)
    raise MarginError(
        f"trace within {float(margin)} of the parabolic boundary"
    )


def _refine(
    chain: SturmChain, lo: Fraction, hi: Fraction
) -> tuple[Fraction, Fraction]:
    for _ in range(40):
        mid = (lo + hi) / 2
        if count_roots_in(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def complement_euler(genus: int, punctured: bool) -> int:
    """chi(surface) - chi(union of chain curves), the filling residue.

    The 2g-chain union is a 4-valent graph with 2g-1 vertices and twice
    that many edges.  Residue 0 on the once-punctured surface means the
    complement is a peripheral annulus; residue 1 on the closed surface
    means a disk.
    """
    if genus < 1:
        raise ValueError("genus must be at least 1")
    surface_chi = (1 if punctured else 2) - 2 * genus
    graph_chi = (2 * genus - 1) - 2 * (2 * genus - 1)
    return surface_chi - graph_chi
