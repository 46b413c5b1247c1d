"""Braid words, strand permutations, and the two tunnel number one families.

Words in the braid group on n strands are tuples of signed nonzero integers:
letter i with 1 <= i <= n-1 is the Artin generator crossing strands i and
i+1 positively, and -i is its inverse.  The empty tuple is the identity.

The family constructors build, for each genus g >= 1 and power n >= 0, a
braid on 2g+1 strands whose closure is an unknot; its lift to the branched
double cover is a fibred knot of genus g.  Two variants are provided.  The
"original" variant uses an alternating-sign descending block and the
commuting pair sigma_2 sigma_3^-1; the "enhanced" variant uses the all
positive descending block together with a fixed 5-strand stirring word that
acts trivially on the homology of the cover.  The enhanced stirring word is
only defined at genus 2; other genera require an explicitly supplied word
(see build_family and default_phi_extension).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1..n} stored as a tuple of images (1-based)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, i: int) -> "Permutation":
        """The simple transposition (i, i+1) in S_n."""
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return Permutation(tuple(images))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def then(self, other: "Permutation") -> "Permutation":
        """Composite that applies self first, then other."""
        return Permutation(tuple(other.images[i - 1] for i in self.images))

    def inverse(self) -> "Permutation":
        out = [0] * len(self.images)
        for i, img in enumerate(self.images):
            out[img - 1] = i + 1
        return Permutation(tuple(out))

    def is_identity(self) -> bool:
        return all(img == i + 1 for i, img in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * len(self.images)
        out = []
        for start in range(1, len(self.images) + 1):
            if seen[start - 1]:
                continue
            cycle = []
            x = start
            while not seen[x - 1]:
                seen[x - 1] = True
                cycle.append(x)
                x = self(x)
            out.append(tuple(cycle))
        return out


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on `strands` strands."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        object.__setattr__(self, "letters", tuple(int(x) for x in self.letters))
        for x in self.letters:
            if x == 0 or abs(x) >= self.strands:
                raise ValueError(f"letter {x} out of range for {self.strands} strands")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("cannot concatenate words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "BraidWord":
        base = self if n >= 0 else self.inverse()
        return BraidWord(self.strands, base.letters * abs(n))

    def mirror(self) -> "BraidWord":
        """Negate every letter; the closure becomes the mirror image."""
        return BraidWord(self.strands, tuple(-x for x in self.letters))


def free_reduce(word: BraidWord) -> BraidWord:
    """Cancel all adjacent inverse pairs (full reduction, single stack pass)."""
    stack: list[int] = []
    for x in word.letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return BraidWord(word.strands, tuple(stack))


def underlying_permutation(word: BraidWord) -> Permutation:
    """Strand permutation: the image of position i is where strand i exits.

    This is a homomorphism for left-to-right composition:
    underlying_permutation(u * v) == underlying_permutation(u).then(...(v)).
    """
    # a swap at positions a - 1, a composes t_a on the right, so the
    # letters go last to first: images = t_1 then t_2 ... then t_k
    images = list(range(1, word.strands + 1))
    for x in reversed(word.letters):
        a = abs(x)
        images[a - 1], images[a] = images[a], images[a - 1]
    return Permutation(tuple(images))


def closure_components(word: BraidWord) -> int:
    """Number of link components of the braid closure."""
    return len(underlying_permutation(word).cycles())


def exponent_sum(word: BraidWord) -> int:
    return sum(1 if x > 0 else -1 for x in word.letters)


def format_braid_text(word: BraidWord) -> str:
    """Whitespace-separated signed integers; the first integer is the strand count."""
    return " ".join([str(word.strands)] + [str(x) for x in word.letters])


def parse_braid_text(text: str) -> BraidWord:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty braid text")
    try:
        values = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"braid text must be integers: {text!r}") from exc
    if values[0] < 1:
        raise ValueError("strand-count header must be a positive integer")
    return BraidWord(values[0], tuple(values[1:]))


# -- the two families ----------------------------------------------------

VARIANTS = ("original", "enhanced")


@dataclass(frozen=True)
class FamilySpec:
    """Parameters choosing one braid: genus g >= 1, power n >= 0, and variant."""

    genus: int
    power: int = 0
    variant: str = "original"

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise ValueError("genus must be at least 1")
        if self.power < 0:
            raise ValueError("power must be nonnegative")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    @property
    def strands(self) -> int:
        return 2 * self.genus + 1


@dataclass(frozen=True)
class FamilyWords:
    """The assembled braid together with its building blocks."""

    spec: FamilySpec
    pi: BraidWord
    phi: BraidWord
    braid: BraidWord


class FamilyError(ValueError):
    """Raised when a family spec cannot be realized."""


def original_pi(genus: int) -> BraidWord:
    """Descending block sigma_2g sigma_{2g-1}^-1 ... sigma_4 sigma_3^-1 sigma_2."""
    letters = tuple(i if i % 2 == 0 else -i for i in range(2 * genus, 1, -1))
    return BraidWord(2 * genus + 1, letters)


def enhanced_pi(genus: int) -> BraidWord:
    """All-positive descending block sigma_2g sigma_{2g-1} ... sigma_2."""
    return BraidWord(2 * genus + 1, tuple(range(2 * genus, 1, -1)))


def original_phi(genus: int) -> BraidWord:
    """The commuting-support stirring word sigma_2 sigma_3^-1.

    It lives on strands 2..4, so it needs at least 5 strands; at genus 1 the
    sub-disk holds two strands only and the word degenerates to the identity,
    making the genus 1 family constant in the power.
    """
    if genus == 1:
        return BraidWord(3, ())
    return BraidWord(2 * genus + 1, (2, -3))


_ENHANCED_PHI_G2 = (
    (3, 4, 4) + (2, 3) * 6 + (-4, -4, -3)
    + (-3, -4, -4) + (2, 3) * 6 + (4, 4, 3)
)


def enhanced_phi(genus: int) -> BraidWord:
    """The genus 2 stirring word for the enhanced variant.

    A product of two conjugates of the squared full twist on three adjacent
    strands; its lift to the branched double cover is a product of Dehn
    twists along null-homologous curves, so it acts trivially on homology.
    """
    if genus != 2:
        raise FamilyError(
            "the enhanced stirring word is only defined at genus 2; "
            "pass enhanced_phi= to build_family to supply one"
        )
    return BraidWord(5, _ENHANCED_PHI_G2)


def default_phi_extension(genus: int) -> BraidWord:
    """Sweep fixture supplying an enhanced-variant stirring word at genus != 2.

    No canonical enhanced stirring word exists away from genus 2, and this
    toolkit does not invent one.  For grid sweeps that still want the
    enhanced sign pattern at other genera, this returns a short word
    supported on strands 2..2g+1 (the only property the unknotting and
    Alexander-triviality checks rely on): sigma_2 sigma_3^-1 for g >= 2 and
    the identity at genus 1.  Reports record when this fixture was used.
    """
    if genus == 1:
        return BraidWord(3, ())
    return BraidWord(2 * genus + 1, (2, -3))


def build_family(
    spec: FamilySpec,
    enhanced_phi_word: BraidWord | None = None,
) -> FamilyWords:
    """Assemble pi * phi^n * sigma_1^(-1 or +1) * phi^-n for the given spec.

    The original variant inserts sigma_1^-1, the enhanced variant sigma_1.
    For the enhanced variant away from genus 2 a stirring word must be
    supplied via enhanced_phi_word (it must avoid index 1 so that the
    closure stays a knot); otherwise FamilyError is raised.
    """
    n = spec.strands
    if spec.variant == "original":
        pi = original_pi(spec.genus)
        phi = original_phi(spec.genus)
        middle = -1
    else:
        pi = enhanced_pi(spec.genus)
        middle = 1
        if spec.genus == 2 and enhanced_phi_word is None:
            phi = enhanced_phi(2)
        elif enhanced_phi_word is None:
            raise FamilyError(
                f"enhanced variant at genus {spec.genus} needs an explicit stirring word"
            )
        else:
            phi = enhanced_phi_word
    if phi.strands != n:
        raise FamilyError(f"stirring word must live on {n} strands, got {phi.strands}")
    if any(abs(x) == 1 for x in phi.letters):
        raise FamilyError("stirring word must avoid index 1 (support on strands 2..n)")
    stirred = phi**spec.power
    braid = pi * stirred * BraidWord(n, (middle,)) * stirred.inverse()
    return FamilyWords(spec=spec, pi=pi, phi=phi, braid=braid)


def family_braid(
    genus: int,
    power: int,
    variant: str = "original",
    enhanced_phi_word: BraidWord | None = None,
    allow_extension_fixture: bool = False,
) -> BraidWord:
    """Convenience wrapper returning just the braid word.

    With allow_extension_fixture=True, the enhanced variant at genus != 2
    falls back to default_phi_extension instead of raising.
    """
    spec = FamilySpec(genus=genus, power=power, variant=variant)
    if (
        variant == "enhanced"
        and genus != 2
        and enhanced_phi_word is None
        and allow_extension_fixture
    ):
        enhanced_phi_word = default_phi_extension(genus)
    return build_family(spec, enhanced_phi_word).braid
