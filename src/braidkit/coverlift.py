"""Homological lifts of braid words to the double cover of the disk.

A braid on 2g+1 strands permutes 2g+1 marked points of a disk.  The double
cover of the disk branched over those points is a genus-g surface with one
boundary circle, and each half-twist generator lifts to a Dehn twist along
a curve of a 2g-chain.  On first homology the twist along the i-th chain
curve acts by the symplectic transvection x -> x + e<x, a_i> a_i, so every
braid word lifts to an integer symplectic matrix.  Characteristic
polynomials of such lifts are the Alexander polynomials of the fibred
links the words describe, and the Seifert form can be recovered from the
monodromy matrix by a linear solve.

No function takes the surface: a word's 2g + 1 strands and a matrix's
size 2g fix the genus.  All matrices here are tuples of tuples of Python
ints; sizes stay small, so exactness beats vectorization.  The lift
updates one row per letter, in one `map` over the row; the product of
`transvection` matrices is the reference it is tested against.  The
Seifert solve and `is_cyclic`, which decides whether a lift presents a
cyclic Alexander module, stay in the integers: both eliminate with
`laurent._bareiss_plain`, and the solve ends in a fraction-free back
substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add, neg, sub

from .braid import BraidWord, FamilySpec, build_family, family_braid
from .laurent import _bareiss_plain, charpoly, normalized

IntMatrix = tuple[tuple[int, ...], ...]


class ConventionError(ValueError):
    """A solve produced a non-integral matrix under the adopted convention."""


def mat_identity(size: int) -> IntMatrix:
    return tuple((0,) * i + (1,) + (0,) * (size - i - 1) for i in range(size))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    size = len(a)
    inner = len(b)
    width = len(b[0]) if b else 0
    out = []
    for i in range(size):
        row = []
        for j in range(width):
            row.append(sum(a[i][k] * b[k][j] for k in range(inner)))
        out.append(tuple(row))
    return tuple(out)


def mat_max_abs(a: IntMatrix) -> int:
    return max(map(abs, chain.from_iterable(a)), default=0)


def intersection_form(rank: int) -> IntMatrix:
    """The chain form J on a 2g-chain basis a_1 .. a_{2g} of H_1.

    The genus-g surface with one boundary has rank 2g homology, with
    <a_i, a_{i+1}> = 1 and all other pairings zero; the form is
    antisymmetric and unimodular.
    """
    if rank < 2 or rank % 2:
        raise ValueError(f"the chain form needs a positive even rank, got {rank}")
    form = [[0] * rank for _ in range(rank)]
    for i in range(rank - 1):
        form[i][i + 1] = 1
        form[i + 1][i] = -1
    return tuple(tuple(row) for row in form)


def transvection(rank: int, index: int, sign: int) -> IntMatrix:
    """Matrix of x -> x + sign * <x, a_index> a_index on the chain basis."""
    form = intersection_form(rank)
    if not 1 <= index <= rank:
        raise ValueError(f"chain index {index} out of range 1..{rank}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    i = index - 1
    rows = list(mat_identity(rank))
    # row i picks up -sign * (J row i): M = I - sign * e_i e_i^T J
    rows[i] = tuple(x - sign * j for x, j in zip(rows[i], form[i]))
    return tuple(rows)


def lift_homological(word: BraidWord) -> IntMatrix:
    """Ordered product of chain transvections; earlier letters act first.

    A word on 2g + 1 strands lifts to the rank 2g chain basis.
    Left-multiplying by transvection(2g, i, sign) changes only row i:
    row_i -= sign * (row_{i+1} - row_{i-1}), missing neighbours being zero,
    one `map` over the row (sub for sign +1, add for -1).
    """
    k = word.strands - 1
    if k < 2 or k % 2:
        raise ValueError(
            f"a chain lift needs an odd strand count of at least 3, got {word.strands}"
        )
    rows = [list(row) for row in mat_identity(k)]
    zero = [0] * k
    for letter in word.letters:
        i = abs(letter) - 1
        above = rows[i - 1] if i > 0 else zero
        below = rows[i + 1] if i + 1 < k else zero
        rows[i] = list(
            map(sub if letter > 0 else add, rows[i], map(sub, below, above))
        )
    return tuple(map(tuple, rows))


def charpoly_int(matrix: IntMatrix) -> tuple[int, ...]:
    return charpoly(matrix)


def fibred_alexander(spec: FamilySpec) -> tuple[int, ...]:
    """Normalized characteristic polynomial of the lifted family word.

    For a fibred link the Alexander polynomial is the characteristic
    polynomial of the homological monodromy; that classical bridge is
    assumed, not re-derived here.
    """
    lift = lift_homological(build_family(spec).braid)
    return normalized(charpoly_int(lift))


@dataclass(frozen=True)
class BranchedCoverData:
    branch_points: int
    chi: int
    boundary: int
    genus: int


def branched_cover_euler(branch_points: int) -> BranchedCoverData:
    """The double cover of the disk branched over k points.

    chi(cover) = 2 chi(disk) - k = 2 - k.  The cover has one boundary
    circle when k is odd and two when k is even, which pins the genus.
    """
    if branch_points < 1:
        # with no branch points the double cover is a disjoint pair of
        # disks, and the connected-surface genus formula lies
        raise ValueError("branched cover needs at least one branch point")
    chi = 2 - branch_points
    boundary = 2 - branch_points % 2
    return BranchedCoverData(branch_points, chi, boundary, (2 - chi - boundary) // 2)


def _sparsest_first(matrix: IntMatrix) -> list[int]:
    """Row indices r of a square M by the nonzero count of row r of I - M,
    fewest first; a stable sort, so ties keep index order."""
    size = len(matrix)
    # entry (r, c) of I - M is nonzero when M_rc != delta_rc: the nonzero
    # entries of row r of M, less M_rr if nonzero, plus one if M_rr != 1
    return sorted(
        range(size),
        key=lambda r: size
        - matrix[r].count(0)
        - (matrix[r][r] != 0)
        + (matrix[r][r] != 1),
    )


def seifert_from_monodromy(matrix: IntMatrix) -> IntMatrix:
    """Integer S with S^T = S*M and S - S^T = -J, from S(I - M) = -J.

    det(S - t S^T) then agrees with the characteristic polynomial of M up
    to units.  Requires det(M - I) != 0; a non-integral solution means the
    matrix did not come from this convention and is reported as an error.

    S(I - M) = -J is solved as (I - M)^T S^T = -J^T: the unknowns are the
    rows r of I - M, and right-hand side c gives row c of S.  The unknowns
    are taken sparsest first, in increasing order of the number of nonzero
    entries in row r of I - M (a stable sort, so ties keep index order;
    `_sparsest_first`): the lifts' I - M is nearly triangular, and this
    order leaves few entries below each pivot.

    The forward pass is `laurent._bareiss_plain` on the augmented rows
    [(I - M)^T | -J^T], with the left block's columns in that order.  Its
    caught-up pivot row k is row k of [U | b], an upper triangular system
    with the same solutions, and its determinant d is +-det(I - M).

    Back substitution runs on x' = d*x, one right-hand side at a time:

        u_kk * x'_k = d * b_k - sum(u_kj * x'_j for j > k).

    By Cramer's rule x_k is an integer minor over det(I - M) = +-d, so
    x'_k is an integer and the division by u_kk is exact.  S is nearly
    bidiagonal, so most x'_j are 0, and the sum runs only over those found
    nonzero so far.  Each x'_k is then divided by d; a remainder is a
    ConventionError.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("monodromy must be a square matrix")
    form = intersection_form(size)  # refuses an odd or empty size
    order = _sparsest_first(matrix)
    # row c is column c of I - M, in that order, then column c of -J,
    # which is row c of the antisymmetric J
    rows = [list(map(neg, column)) for column in zip(*(matrix[r] for r in order))]
    for k, r in enumerate(order):
        rows[r][k] += 1
    for row, form_row in zip(rows, form):
        row += form_row
    upper, d = _bareiss_plain(rows)  # d = +-det(I - M)
    if not d:
        raise ValueError("monodromy has 1 as an eigenvalue; no Seifert solve")
    out = [[0] * size for _ in range(size)]
    for c in range(size):
        found = []  # (j, x'_j) with x'_j != 0
        for k in range(size - 1, -1, -1):
            u = upper[k]
            # u[j - k] is u_kj, u[size - k + c] is b_k of right-hand side c
            acc = d * u[size - k + c]
            for j, x in found:
                acc -= u[j - k] * x
            if acc:
                x = acc // u[0]
                q, rem = divmod(x, d)
                if rem:
                    raise ConventionError(
                        "Seifert solve is non-integral; convention mismatch"
                    )
                out[c][order[k]] = q
                found.append((k, x))
    return tuple(map(tuple, out))


def is_cyclic(matrix: IntMatrix) -> bool:
    """Whether M makes Q^n a cyclic Q[t]-module, for a nonempty n x n M.

    Equivalently tI - M has a single nonconstant invariant factor, and the
    minimal polynomial of M is its characteristic polynomial.  That holds
    exactly when I, M, ..., M^(n-1) are linearly independent, that is when
    the Gram matrix of their flattened entries is nonsingular.
    """
    size = len(matrix)
    power = mat_identity(size)
    flat = []
    for _ in range(size):
        flat.append([x for row in power for x in row])
        power = mat_mul(power, matrix)
    gram = [[sum(x * y for x, y in zip(u, v)) for v in flat] for u in flat]
    return bool(_bareiss_plain(gram)[1])


def growth_sequence(
    genus: int,
    powers: range,
    variant: str = "original",
) -> tuple[int, ...]:
    """Max-absolute-entry of the lifted family word for each power."""
    out = []
    for n in powers:
        word = family_braid(genus, n, variant)
        out.append(mat_max_abs(lift_homological(word)))
    return tuple(out)
