"""Unknot certification: greedy move search and certificate replay."""

import dataclasses

import pytest
from hypothesis import find, given, settings, strategies as st

from braidkit import destab
from braidkit.braid import BraidWord, closure_components, family_braid
from braidkit.destab import (
    MoveError,
    apply_move,
    destabilize_greedy,
    replay_certificate,
)


def knot_words(max_strands=5, max_len=10):
    def build(n):
        letter = st.integers(1, n - 1).flatmap(
            lambda i: st.sampled_from([i, -i])
        )
        return st.tuples(
            st.just(n), st.lists(letter, max_size=max_len).map(tuple)
        )

    return (
        st.integers(2, max_strands)
        .flatmap(build)
        .map(lambda t: BraidWord(*t))
        .filter(lambda w: closure_components(w) == 1)
    )


# -- single moves --------------------------------------------------------


def test_reduce_move():
    w = BraidWord(3, (1, 2, -2, 1))
    assert apply_move(w, ("reduce", 1)).letters == (1, 1)
    with pytest.raises(MoveError):
        apply_move(w, ("reduce", 0))
    with pytest.raises(MoveError):
        apply_move(w, ("reduce", 3))


def test_rotate_move():
    w = BraidWord(3, (1, 2, -1))
    assert apply_move(w, ("rotate", 1)).letters == (2, -1, 1)
    assert apply_move(w, ("rotate", 3)).letters == w.letters
    with pytest.raises(MoveError):
        apply_move(BraidWord(3, ()), ("rotate", 1))


def test_destab_bottom_shifts_indices_down():
    w = BraidWord(3, (2, -1, 2))
    out = apply_move(w, ("destab_bottom", 1))
    assert out.strands == 2
    assert out.letters == (1, 1)
    with pytest.raises(MoveError):
        apply_move(BraidWord(3, (1, 2, -1)), ("destab_bottom", 0))


def test_destab_top_drops_last_strand():
    w = BraidWord(3, (1, 2, 1))
    out = apply_move(w, ("destab_top", 1))
    assert out.strands == 2
    assert out.letters == (1, 1)
    with pytest.raises(MoveError):
        apply_move(BraidWord(3, (2, 1, 2)), ("destab_top", 0))


def test_unknown_move_kind():
    with pytest.raises(MoveError):
        apply_move(BraidWord(2, (1,)), ("stabilize", 0))


# -- greedy search -------------------------------------------------------


def test_certifies_stabilized_unknots():
    for w in (
        BraidWord(2, (1,)),
        BraidWord(4, (1, 2, 3)),
        BraidWord(4, (-1, 2, -3)),
        BraidWord(3, (1, 1, -1, 2)),
    ):
        cert = destabilize_greedy(w)
        assert cert.certified
        assert cert.final == BraidWord(1, ())
        assert replay_certificate(cert) == cert.final


def test_certifies_family_words():
    for genus in (1, 2, 3):
        for power in (0, 2, 5):
            for variant in ("original", "enhanced"):
                w = family_braid(
                    genus, power, variant, allow_extension_fixture=True
                )
                cert = destabilize_greedy(w)
                assert cert.certified, (genus, power, variant)
                assert replay_certificate(cert) == BraidWord(1, ())


def test_trefoil_is_stuck_not_refuted():
    cert = destabilize_greedy(BraidWord(2, (1, 1, 1)))
    assert not cert.certified
    assert cert.final.letters  # stuck, letters remain
    # the stuck certificate still replays to its recorded final word
    assert replay_certificate(cert) == cert.final


def test_rejects_non_knot_closures():
    with pytest.raises(ValueError):
        destabilize_greedy(BraidWord(3, ()))
    with pytest.raises(ValueError):
        destabilize_greedy(BraidWord(3, (1,)))
    with pytest.raises(ValueError):
        destabilize_greedy(BraidWord(2, (1, 1)))


def test_cyclic_cancellation_needs_rotation():
    # no adjacent inverse pair until the word is rotated
    w = BraidWord(2, (1, 1, -1, -1, 1))
    cert = destabilize_greedy(w)
    assert cert.certified


def test_tampered_certificate_fails_replay():
    cert = destabilize_greedy(BraidWord(4, (1, 2, 3)))
    assert cert.certified and cert.moves
    kind, arg = cert.moves[0]
    tampered = dataclasses.replace(
        cert, moves=((kind, arg + 1),) + cert.moves[1:]
    )
    with pytest.raises(MoveError):
        replay_certificate(tampered)
    wrong_final = dataclasses.replace(cert, final=BraidWord(2, (1,)))
    with pytest.raises(MoveError):
        replay_certificate(wrong_final)


@settings(max_examples=150, deadline=None)
@given(knot_words())
def test_replay_always_matches_search(w):
    cert = destabilize_greedy(w)
    out = replay_certificate(cert)
    assert out == cert.final
    if cert.certified:
        assert out.strands == 1 and not out.letters


# -- the list search against the word-rebuilding reference ----------------


def _reference_apply(word, move):
    """One move on an immutable word, rebuilt from slices of its letters."""
    kind, arg = move
    letters = word.letters
    if kind == "reduce":
        if not 0 <= arg < len(letters) - 1:
            raise MoveError(f"reduce position {arg} out of range")
        if letters[arg] != -letters[arg + 1]:
            raise MoveError(f"letters at {arg} are not an inverse pair")
        return BraidWord(word.strands, letters[:arg] + letters[arg + 2 :])
    if kind == "rotate":
        if not letters:
            raise MoveError("rotating the empty word")
        k = arg % len(letters)
        return BraidWord(word.strands, letters[k:] + letters[:k])
    if kind == "destab_bottom":
        if not 0 <= arg < len(letters) or abs(letters[arg]) != 1:
            raise MoveError(f"no index-1 letter at position {arg}")
        if sum(1 for x in letters if abs(x) == 1) != 1:
            raise MoveError("bottom destabilization needs a unique index-1 letter")
        rest = letters[:arg] + letters[arg + 1 :]
        shifted = tuple(x - 1 if x > 0 else x + 1 for x in rest)
        return BraidWord(word.strands - 1, shifted)
    if kind == "destab_top":
        top = word.strands - 1
        if not 0 <= arg < len(letters) or abs(letters[arg]) != top:
            raise MoveError(f"no index-{top} letter at position {arg}")
        if sum(1 for x in letters if abs(x) == top) != 1:
            raise MoveError("top destabilization needs a unique top-index letter")
        return BraidWord(word.strands - 1, letters[:arg] + letters[arg + 1 :])
    raise MoveError(f"unknown move kind {kind!r}")


def _reference_search(word):
    """The greedy search rescanning a rebuilt word from position 0 per move.

    Returns (moves, final, certified, rotations_used).
    """
    current = word
    moves = []
    rotations = 0
    stall = 0
    while current.letters:
        letters = current.letters
        pairs = [i for i in range(len(letters) - 1) if letters[i] == -letters[i + 1]]
        bottom = [i for i, x in enumerate(letters) if abs(x) == 1]
        top = [i for i, x in enumerate(letters) if abs(x) == current.strands - 1]
        if pairs:
            move = ("reduce", pairs[0])
        elif len(bottom) == 1:
            move = ("destab_bottom", bottom[0])
        elif current.strands > 2 and len(top) == 1:
            move = ("destab_top", top[0])
        elif stall >= len(letters):
            break
        else:
            move = ("rotate", 1)
            stall += 1
            rotations += 1
        if move[0] != "rotate":
            stall = 0
        current = _reference_apply(current, move)
        moves.append(move)
    certified = not current.letters and current.strands == 1
    return tuple(moves), current, certified, rotations


GRID_WORDS = [
    family_braid(g, n, v, allow_extension_fixture=True)
    for g in range(1, 7)
    for n in range(11)
    for v in ("original", "enhanced")
]

# knotted closures (trefoil, figure-eight, cinquefoil, the (3, 4) torus knot)
# that no move can shorten, each conjugated by a drawn word
_STUCK = (
    BraidWord(2, (1, 1, 1)),
    BraidWord(3, (1, -2, 1, -2)),
    BraidWord(2, (1,) * 5),
    BraidWord(3, (1, 2) * 4),
)


@st.composite
def stuck_words(draw):
    knot = draw(st.sampled_from(_STUCK))
    n = knot.strands
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    conj = BraidWord(n, tuple(draw(st.lists(letter, max_size=4))))
    return conj.inverse() * knot * conj


@st.composite
def rotation_words(draw):
    """A knot word wrapped in x^-1 ... x: the pair is cyclic, not adjacent."""
    w = draw(knot_words())
    x = draw(st.integers(1, w.strands - 1)) * draw(st.sampled_from([1, -1]))
    return BraidWord(w.strands, (-x,) + w.letters + (x,))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        knot_words(), stuck_words(), rotation_words(), st.sampled_from(GRID_WORDS)
    )
)
def test_search_matches_the_word_rebuilding_reference(w):
    cert = destabilize_greedy(w)
    got = (cert.moves, cert.final, cert.certified, cert.rotations_used)
    assert got == _reference_search(w)


def test_grid_search_matches_the_reference_without_rotations():
    for w in GRID_WORDS:
        cert = destabilize_greedy(w)
        assert cert.certified and cert.rotations_used == 0
        got = (cert.moves, cert.final, cert.certified, cert.rotations_used)
        assert got == _reference_search(w)


def test_the_drawn_words_reach_stuck_and_rotating_searches():
    find(stuck_words(), lambda w: not destabilize_greedy(w).certified)
    find(rotation_words(), lambda w: destabilize_greedy(w).rotations_used > 0)


def test_every_single_edit_of_a_grid_certificate_fails_replay():
    for w in GRID_WORDS:
        cert = destabilize_greedy(w)
        for i, (kind, arg) in enumerate(cert.moves):
            dropped = cert.moves[:i] + cert.moves[i + 1 :]
            shifted = cert.moves[:i] + ((kind, arg + 1),) + cert.moves[i + 1 :]
            for moves in (dropped, shifted):
                with pytest.raises(MoveError):
                    replay_certificate(dataclasses.replace(cert, moves=moves))


def test_search_and_replay_build_only_the_final_word(monkeypatch):
    built = []

    class CountingWord(BraidWord):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(destab, "BraidWord", CountingWord)
    w = family_braid(2, 10, "enhanced")
    cert = destabilize_greedy(w)
    assert len(cert.moves) > 100 and len(built) == 1
    replay_certificate(cert)
    assert len(built) == 2
