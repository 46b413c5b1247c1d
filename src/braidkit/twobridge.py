"""Rational knots: continued fractions and their Alexander polynomials.

A two-bridge link is classified by a reduced fraction p/q with
0 < q < p, here reached from an all-plus continued fraction
a_1 + 1/(a_2 + 1/(... + 1/a_k)) with the leftmost term outermost.  For odd
p the link is a knot and its Alexander polynomial has the classical
staircase expansion: with q odd (replace q by q + p if needed) and
eps_i = (-1)^floor(i*q/p),

    Delta(t) = sum_{k=0}^{p-1} (-1)^k t^{e_k},   e_k = eps_1 + ... + eps_k.

The formula is imported from rational-knot theory, so the test suite
re-derives small cases from the independent Burau and Seifert pipelines
before trusting it at scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .braid import FamilySpec
from .coverlift import fibred_alexander
from .laurent import normalized


@dataclass(frozen=True)
class TwoBridgeFraction:
    p: int
    q: int

    def __post_init__(self) -> None:
        if not 0 < self.q < self.p:
            raise ValueError("need 0 < q < p")
        if gcd(self.p, self.q) != 1:
            raise ValueError("p and q must be coprime")

    @property
    def is_knot(self) -> bool:
        return self.p % 2 == 1

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def cf_to_fraction(terms: list[int] | tuple[int, ...]) -> TwoBridgeFraction:
    """Evaluate an all-plus continued fraction, leftmost term outermost."""
    if not terms:
        raise ValueError("continued fraction needs at least one term")
    if any(a == 0 for a in terms):
        raise ValueError("continued fraction terms must be nonzero")
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        if value == 0:
            raise ZeroDivisionError("zero denominator while evaluating")
        value = a + 1 / value
    return TwoBridgeFraction(value.numerator, value.denominator)


def odd_partner(fraction: TwoBridgeFraction) -> int:
    """The odd representative of q modulo p used by the staircase formula."""
    if not fraction.is_knot:
        raise ValueError("even p is a two-component link, not a knot")
    q = fraction.q
    return q if q % 2 == 1 else q + fraction.p


def twobridge_alexander(fraction: TwoBridgeFraction) -> tuple[int, ...]:
    """Alexander polynomial of the rational knot p/q, normalized."""
    p = fraction.p
    q = odd_partner(fraction)
    coeffs: dict[int, int] = {0: 1}
    exponent = 0
    for k in range(1, p):
        exponent += (-1) ** ((k * q) // p)
        coeffs[exponent] = coeffs.get(exponent, 0) + (-1) ** k
    lo = min(coeffs)
    hi = max(coeffs)
    return normalized([coeffs.get(e, 0) for e in range(lo, hi + 1)])


def crosscheck_w0(genus: int) -> bool:
    """Alexander match between the [2,...,2] rational knot and the lifted
    zero-power original family word at the same genus."""
    if genus < 1:
        raise ValueError("genus must be at least 1")
    fraction = cf_to_fraction([2] * (2 * genus))
    rational = twobridge_alexander(fraction)
    fibred = fibred_alexander(FamilySpec(genus, 0, "original"))
    return rational == fibred
