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
only defined at genus 2; elsewhere build_family substitutes the fixture
original_phi(genus) when asked to, and says so in FamilyWords.fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1..n} stored as a tuple of images (1-based)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

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
    """A word in the braid group on `strands` strands; integers only, never truncated."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "strands", index(self.strands))
        object.__setattr__(self, "letters", tuple(map(index, self.letters)))
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
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
        object.__setattr__(self, "genus", index(self.genus))
        object.__setattr__(self, "power", index(self.power))
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
    """The assembled braid together with its building blocks.

    fixture is True when phi is the fixture word standing in for the
    enhanced stirring word away from genus 2.
    """

    spec: FamilySpec
    pi: BraidWord
    phi: BraidWord
    braid: BraidWord
    fixture: bool


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
            f"genus {genus} needs the fixture word "
            "(allow_extension_fixture=True, --fixture on the CLI)"
        )
    return BraidWord(5, _ENHANCED_PHI_G2)


def build_family(
    spec: FamilySpec, allow_extension_fixture: bool = False
) -> FamilyWords:
    """Assemble pi * phi^n * sigma_1^(-1 or +1) * phi^-n for the given spec.

    The original variant inserts sigma_1^-1, the enhanced variant sigma_1.
    This is the one place that chooses the stirring word.  The enhanced
    variant away from genus 2 raises FamilyError unless
    allow_extension_fixture is set; then it takes the fixture
    original_phi(genus), a word on strands 2..4 that is not in the Torelli
    group (empty at genus 1), and the result's fixture field is True.
    """
    n = spec.strands
    fixture = (
        allow_extension_fixture and spec.variant == "enhanced" and spec.genus != 2
    )
    if spec.variant == "original":
        pi, phi, middle = original_pi(spec.genus), original_phi(spec.genus), -1
    else:
        pi, middle = enhanced_pi(spec.genus), 1
        phi = original_phi(spec.genus) if fixture else enhanced_phi(spec.genus)
    stirred = phi**spec.power
    braid = pi * stirred * BraidWord(n, (middle,)) * stirred.inverse()
    return FamilyWords(spec=spec, pi=pi, phi=phi, braid=braid, fixture=fixture)


def family_braid(
    genus: int,
    power: int,
    variant: str = "original",
    allow_extension_fixture: bool = False,
) -> BraidWord:
    """Convenience wrapper returning just the braid word of build_family."""
    spec = FamilySpec(genus=genus, power=power, variant=variant)
    return build_family(spec, allow_extension_fixture).braid
