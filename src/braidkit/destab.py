"""Greedy unknot certification by free reduction and Markov destabilization.

The certifier repeatedly applies closure-preserving moves to a braid word:

* reduce: delete an adjacent inverse pair,
* destab_bottom: if index 1 appears exactly once, delete that letter and
  shift every index down (conjugate the unique sigma_1^+-1 to the end, then
  remove the first strand),
* destab_top: if the top index appears exactly once, delete that letter and
  drop the last strand,
* rotate: cyclic conjugation, which only exists to expose cyclic
  cancellations to the reduce move.

Move priority is reduce, then destab_bottom, then destab_top, then rotate,
with a rotation budget of the current word length between productive moves.
Reaching the empty word on one strand certifies the closure unknotted.  The
procedure is sound but deliberately incomplete: a stuck word means "no
certificate found", never "knotted".

Certificates record every move and can be replayed step by step; the replay
re-validates each move's precondition, so a replayed certificate is a proof
that the starting closure is the unknot.  Search and replay edit one list
of letters in place through `_apply`, the one implementation of the moves,
and build a `BraidWord` for the final word only; the search looks for
inverse pairs from `start` on, never from 0 (see `destabilize_greedy`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, closure_components

Move = tuple[str, int]


@dataclass(frozen=True)
class UnknotCertificate:
    initial: BraidWord
    moves: tuple[Move, ...]
    final: BraidWord
    certified: bool
    rotations_used: int


class MoveError(ValueError):
    """A recorded move does not apply to the word it was replayed against."""


def _apply(strands: int, letters: list[int], move: Move) -> int:
    """Check one move, then apply it to letters in place; return the strands."""
    kind, arg = move
    if kind == "reduce":
        if not 0 <= arg < len(letters) - 1:
            raise MoveError(f"reduce position {arg} out of range")
        if letters[arg] != -letters[arg + 1]:
            raise MoveError(f"letters at {arg} are not an inverse pair")
        del letters[arg : arg + 2]
        return strands
    if kind == "rotate":
        if not letters:
            raise MoveError("rotating the empty word")
        k = arg % len(letters)
        letters[:] = letters[k:] + letters[:k]
        return strands
    if kind == "destab_bottom":
        if not 0 <= arg < len(letters) or abs(letters[arg]) != 1:
            raise MoveError(f"no index-1 letter at position {arg}")
        if letters.count(1) + letters.count(-1) != 1:
            raise MoveError("bottom destabilization needs a unique index-1 letter")
        del letters[arg]
        letters[:] = [x - 1 if x > 0 else x + 1 for x in letters]
        return strands - 1
    if kind == "destab_top":
        top = strands - 1
        if not 0 <= arg < len(letters) or abs(letters[arg]) != top:
            raise MoveError(f"no index-{top} letter at position {arg}")
        if letters.count(top) + letters.count(-top) != 1:
            raise MoveError("top destabilization needs a unique top-index letter")
        del letters[arg]
        return strands - 1
    raise MoveError(f"unknown move kind {kind!r}")


def apply_move(word: BraidWord, move: Move) -> BraidWord:
    """Apply one closure-preserving move, validating its precondition."""
    letters = list(word.letters)
    return BraidWord(_apply(word.strands, letters, move), tuple(letters))


def _find_reduce(letters: list[int], start: int) -> int | None:
    for i in range(start, len(letters) - 1):
        if letters[i] == -letters[i + 1]:
            return i
    return None


def _find_unique(letters: list[int], index: int) -> int | None:
    if letters.count(index) + letters.count(-index) != 1:
        return None
    return letters.index(index) if index in letters else letters.index(-index)


def destabilize_greedy(word: BraidWord) -> UnknotCertificate:
    """Search for an unknot certificate; never misreports a stuck word.

    Raises ValueError when the closure is not a knot, since a certificate
    could then never exist.
    """
    if closure_components(word) != 1:
        raise ValueError("closure is not a knot; unknot certification does not apply")
    strands, letters = word.strands, list(word.letters)
    moves: list[Move] = []
    stall = 0
    # Invariant: no inverse pair starts before `start`.  A reduce at p
    # keeps the pairs before p - 1 and can make one only at p - 1.  The
    # other moves are tried only when no pair exists: deleting the letter
    # at p can make one only at p - 1 (the shift x -> x -+ 1 maps pairs to
    # pairs and non-pairs to non-pairs), and rotating by one only at
    # len - 2, where the old last letter meets the old first.
    start = 0
    while letters:
        pos = _find_reduce(letters, start)
        if pos is not None:
            move = ("reduce", pos)
        elif (pos := _find_unique(letters, 1)) is not None:
            move = ("destab_bottom", pos)
        elif strands > 2 and (pos := _find_unique(letters, strands - 1)) is not None:
            move = ("destab_top", pos)
        elif stall >= len(letters):
            break
        else:
            move = ("rotate", 1)
        strands = _apply(strands, letters, move)
        moves.append(move)
        if pos is None:  # a rotation
            stall += 1
            start = max(len(letters) - 2, 0)
        else:
            stall = 0
            start = max(pos - 1, 0)
    final = BraidWord(strands, tuple(letters))
    # a knot closure can only exhaust its letters on a single strand
    certified = not letters and strands == 1
    rotations = moves.count(("rotate", 1))
    return UnknotCertificate(word, tuple(moves), final, certified, rotations)


def replay_certificate(cert: UnknotCertificate) -> BraidWord:
    """Re-run every recorded move with full validation; return the final word.

    Because each move preserves the closure type and the replay checks each
    precondition, a certified replay ending with the empty one-strand word
    re-derives that the initial closure is the unknot.
    """
    strands, letters = cert.initial.strands, list(cert.initial.letters)
    for move in cert.moves:
        strands = _apply(strands, letters, move)
    current = BraidWord(strands, tuple(letters))
    if current != cert.final:
        raise MoveError("replay did not reproduce the recorded final word")
    if cert.certified and (current.letters or current.strands != 1):
        raise MoveError("certificate claims the unknot but the replay is nonempty")
    return current
