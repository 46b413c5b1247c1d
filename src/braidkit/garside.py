"""Left-greedy normal forms in the braid group.

Every braid word equals Delta^p * A_1 * ... * A_k where Delta is the half
twist, each A_i is a simple element (a positive braid in which any two
strands cross at most once, so A_i is determined by its permutation), and
each adjacent pair is left weighted: A_i already contains every generator
that could start A_{i+1}.  The (p, A_1..A_k) data is a complete invariant,
so word equality reduces to comparing normal forms.

Simple elements are stored as bare permutations; the left-weighted test is
a descent-set comparison, and negative letters enter through the left
complement sigma_i^-1 = Delta^-1 * (Delta sigma_i).  Nothing is tabulated,
so the computation stays polynomial in word length and strand count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, Permutation

# -- Coxeter bookkeeping on permutations ---------------------------------


def longest_element(n: int) -> Permutation:
    """The permutation of the half twist Delta: i -> n + 1 - i."""
    return Permutation(tuple(range(n, 0, -1)))


def starting_set(p: Permutation) -> set[int]:
    """Indices i with p = sigma_i * (shorter positive word)."""
    im = p.images
    return {i + 1 for i in range(len(im) - 1) if im[i] > im[i + 1]}


def finishing_set(p: Permutation) -> set[int]:
    """Indices i with p = (shorter positive word) * sigma_i."""
    return starting_set(p.inverse())


def permutation_length(p: Permutation) -> int:
    im = p.images
    return sum(1 for a in range(len(im)) for b in range(a + 1, len(im)) if im[a] > im[b])


def simple_to_word(p: Permutation, strands: int) -> BraidWord:
    """A reduced positive word for a simple element (smallest-descent-first)."""
    letters = []
    current = p
    while not current.is_identity():
        i = min(starting_set(current))
        letters.append(i)
        current = Permutation.transposition(strands, i).then(current)
    return BraidWord(strands, tuple(letters))


# -- normal form ---------------------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    """Delta power and left-weighted simple factors; a complete invariant."""

    strands: int
    power: int
    factors: tuple[Permutation, ...]

    def as_word(self) -> BraidWord:
        word = delta_word(self.strands) ** self.power
        for f in self.factors:
            word = word * simple_to_word(f, self.strands)
        return word


def _tau(p: Permutation, w0: Permutation) -> Permutation:
    """Conjugation by Delta; an involution on simple elements."""
    return w0.then(p).then(w0)


def _left_weight_pair(a: Permutation, b: Permutation) -> tuple[Permutation, Permutation, bool]:
    n = a.size
    moved = False
    while True:
        heads = starting_set(b) - finishing_set(a)
        if not heads:
            return a, b, moved
        i = min(heads)
        t = Permutation.transposition(n, i)
        a = a.then(t)
        b = t.then(b)
        moved = True


def normal_form(word: BraidWord) -> NormalForm:
    n = word.strands
    w0 = longest_element(n)
    items: list[tuple[Permutation, int]] = []
    for x in word.letters:
        t = Permutation.transposition(n, abs(x))
        if x > 0:
            items.append((t, 0))
        else:
            items.append((w0.then(t), -1))
    # push all Delta powers to the front; tau is an involution so only
    # the parity of the power accumulated to the right matters
    power = 0
    factors: list[Permutation] = []
    parity_right = 0
    for perm, dpow in reversed(items):
        if parity_right % 2:
            perm = _tau(perm, w0)
        factors.append(perm)
        power += dpow
        parity_right += dpow
    factors.reverse()
    factors = [f for f in factors if not f.is_identity()]
    # bubble letters left until every adjacent pair is left weighted
    i = 0
    while i + 1 < len(factors):
        a, b, moved = _left_weight_pair(factors[i], factors[i + 1])
        if not moved:
            i += 1
            continue
        factors[i] = a
        if b.is_identity():
            del factors[i + 1]
        else:
            factors[i + 1] = b
        i = max(i - 1, 0)
    while factors and factors[0] == w0:
        power += 1
        del factors[0]
    factors = [f for f in factors if not f.is_identity()]
    return NormalForm(strands=n, power=power, factors=tuple(factors))


def words_equal(u: BraidWord, v: BraidWord) -> bool:
    """Group equality of braid words via normal forms."""
    if u.strands != v.strands:
        raise ValueError("cannot compare words on different strand counts")
    return normal_form(u) == normal_form(v)


def is_trivial_word(word: BraidWord) -> bool:
    nf = normal_form(word)
    return nf.power == 0 and not nf.factors


def delta_word(n: int) -> BraidWord:
    """The staircase word for the half twist Delta."""
    letters = [i for k in range(1, n) for i in range(k, 0, -1)]
    return BraidWord(n, tuple(letters))


def full_twist(n: int) -> BraidWord:
    """Delta squared, the generator of the center for n >= 3."""
    d = delta_word(n)
    return d * d


def periodic_identity_check(genus: int) -> bool:
    """Check (sigma_2g ... sigma_2 sigma_1)^(2g+1) == Delta^2 on 2g+1 strands."""
    n = 2 * genus + 1
    step = BraidWord(n, tuple(range(n - 1, 0, -1)))
    return words_equal(step**n, full_twist(n))
