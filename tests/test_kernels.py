"""The kernels against brute force and the greedy references."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracle
from cactus_groups import KERNEL_BACKEND, _kernels_py, kernels
from cactus_groups.words import DiagramWord
from helpers import (
    reference_append_slot,
    reference_canonical_if_lean,
    reference_is_lean,
    reference_lean_reduce,
    reference_lex_least,
)

# One parameter, whose id names the backend in every test id ("[python-...]").
@pytest.fixture(params=[_kernels_py], ids=["python"])
def kern(request):
    return request.param


# One parameter, so the search tests keep their "[python]" ids.
@pytest.fixture(params=[oracle], ids=["python"])
def bfs(request):
    return request.param


def test_selected_backend_is_exported():
    assert KERNEL_BACKEND == kernels.BACKEND == "python"
    exported = {name for name in vars(kernels) if not name.startswith("_")} - {"BACKEND"}
    assert exported == {
        "append_slot",
        "canonical_if_lean",
        "commutes",
        "is_lean",
        "lean_reduce",
        "lex_least",
    }
    for name in exported:
        assert getattr(kernels, name) is getattr(_kernels_py, name), name
    assert kernels.lean_reduce((3, 3)) == ()


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (3, 12, True),  # disjoint
        (3, 7, True),  # nested
        (7, 3, True),
        (3, 5, False),  # overlapping, non-nested
        (3, 6, False),
        (5, 5, True),  # equal
        (1, 2, True),
    ],
)
def test_commutes(kern, a, b, expected):
    assert kern.commutes(a, b) is expected


@pytest.mark.parametrize(
    "word, expected",
    [
        ((), True),
        ((3,), True),
        ((3, 5), True),
        ((3, 3), False),
        ((3, 7, 3), False),  # the middle letter commutes past
        ((3, 5, 3), True),  # the middle letter blocks
        ((3, 7, 5, 7, 6, 7), False),
        ((3, 5, 3, 5), True),
    ],
)
def test_is_lean(kern, word, expected):
    assert kern.is_lean(word) is expected


@pytest.mark.parametrize(
    "word, expected",
    [
        ((), ()),
        ((3, 3), ()),
        ((3, 7, 7, 3), ()),
        ((3, 7, 5, 7, 6, 7), (3, 5, 6, 7)),
        ((3, 5, 3, 5), (3, 5, 3, 5)),
        # central letters: singletons, and the union of the word's letters
        ((1,), (1,)),  # arity 1: the one chord is central
        ((1, 1, 1, 1, 1), (1,)),
        ((4, 1, 4, 1, 4, 1), (1, 4)),
        ((7, 1, 7, 7, 2, 4, 4), (1, 2, 7)),  # odd counts survive, sorted
        ((7, 7, 2, 2, 4, 4), ()),  # even counts cancel
        ((3, 5, 1), (1, 3, 5)),  # an odd singleton goes before larger letters
        ((3, 5, 7, 4), (3, 4, 5, 7)),  # the union chord 7 goes last
        ((6, 22, 20, 2, 22), (2, 6, 20)),  # union 22 = {2,3,5} at n = 6 cancels
        ((6, 20, 22, 16), (6, 16, 20, 22)),  # and an odd one is kept
    ],
)
def test_lean_reduce(kern, word, expected):
    assert kern.lean_reduce(word) == expected == reference_lex_least(reference_lean_reduce(word))


@pytest.mark.parametrize(
    "word, expected",
    [
        ((), ()),
        ((12, 3), (3, 12)),  # disjoint letters sort
        ((3, 5), (3, 5)),  # blocked letters stay
        ((5, 3), (5, 3)),
        ((7, 3, 5), (3, 5, 7)),  # nested letters bubble through
        ((3, 7, 5), (3, 5, 7)),
    ],
)
def test_lex_least(kern, word, expected):
    assert kern.lex_least(word) == expected


def test_canonical_if_lean(kern):
    assert kern.canonical_if_lean((12, 3)) == (3, 12)
    assert kern.canonical_if_lean((3, 7, 3)) is None
    assert kern.canonical_if_lean(()) == ()


def test_lean_reduce_preserves_per_letter_parity(kern, rng):
    for _ in range(80):
        word = tuple(rng.randrange(1, 16) for _ in range(rng.randrange(0, 12)))
        reduced = kern.lean_reduce(word)
        for x in set(word):
            assert word.count(x) % 2 == reduced.count(x) % 2


def test_append_slot(kern):
    assert kern.append_slot((), 5) == 0
    assert kern.append_slot((3, 12), 5) == 2  # 12 blocks 5: append at the end
    assert kern.append_slot((3, 12), 4) == 1  # commutes with both, goes before 12
    assert kern.append_slot((3, 12), 3) == ~0  # reaches the equal 3
    assert kern.append_slot((3, 12), 3, cancel=False) == 1
    assert kern.append_slot((5, 3), 5) == 2  # 3 blocks before the equal 5


# Strands {2, 3, 5} at n = 6: the union of letters inside them is central in
# the word without being the full chord.
UNION_235 = 0b10110


def submasks(mask):
    return [a for a in range(1, mask + 1) if a & mask == a]


def central_chords(mask):
    """The singletons inside ``mask``, and ``mask`` itself."""
    return [a for a in submasks(mask) if a & (a - 1) == 0] + [mask]


def random_word(rng, length):
    """Letters on n <= 5 strands, drawn uniformly or 60% from the central
    chords, or the submasks of UNION_235."""
    kind = rng.randrange(3)
    if kind == 2:
        return tuple(rng.choice(submasks(UNION_235)) for _ in range(length))
    full = (1 << rng.randrange(1, 6)) - 1
    central = central_chords(full)
    return tuple(
        rng.choice(central) if kind and rng.random() < 0.6 else rng.randrange(1, full + 1)
        for _ in range(length)
    )


def test_folds_match_greedy_references(kern, rng):
    for _ in range(450):
        word = random_word(rng, rng.randrange(0, 25))
        lean = reference_lean_reduce(word)
        assert kern.lean_reduce(word) == reference_lex_least(lean)
        assert kern.lex_least(word) == reference_lex_least(word)
        assert kern.is_lean(word) is reference_is_lean(word)
        assert kern.canonical_if_lean(word) == reference_canonical_if_lean(word)
        assert kern.canonical_if_lean(lean) == kern.lean_reduce(word)


words_strategy = st.lists(st.integers(1, 15), max_size=8).map(tuple)


def least_of_class(word):
    try:
        cls = oracle.commutation_class(DiagramWord(4, word), 10**5)
    except oracle.StateCapExceeded:
        assume(False)
    return min(w.letters for w in cls)


@given(words_strategy)
def test_lean_reduce_is_least_of_the_lean_class(word):
    assert _kernels_py.lean_reduce(word) == least_of_class(reference_lean_reduce(word))


@given(words_strategy)
def test_lex_least_is_least_of_the_class(word):
    assert _kernels_py.lex_least(word) == least_of_class(word)


@given(words_strategy, st.integers(1, 15))
def test_append_slot_inserts_into_the_least_word(word, letter):
    canonical = _kernels_py.lex_least(word)
    slot = _kernels_py.append_slot(canonical, letter, cancel=False)
    grown = canonical[:slot] + (letter,) + canonical[slot:]
    assert grown == least_of_class(word + (letter,))


@given(st.lists(st.integers(1, 31), max_size=30), st.integers(1, 31), st.booleans())
def test_append_slot_matches_the_indexed_scan(word, letter, cancel):
    # on both kinds of canonical word: least of a class, and lean and least
    for canonical in (reference_lex_least(word), reference_lex_least(reference_lean_reduce(word))):
        expected = reference_append_slot(canonical, letter, cancel)
        assert _kernels_py.append_slot(canonical, letter, cancel) == expected


@st.composite
def central_heavy_words(draw):
    """Words half of whose letters are central chords, on n <= 5 strands or
    inside UNION_235.  In some the union chord itself never occurs, so the
    largest letter is not central."""
    span = draw(st.sampled_from([1, 3, 7, 15, 31, UNION_235]))
    alphabet, central = submasks(span), central_chords(span)
    if span & (span - 1) and draw(st.booleans()):
        alphabet, central = alphabet[:-1], central[:-1]
    letter = st.one_of(st.sampled_from(central), st.sampled_from(alphabet))
    return tuple(draw(st.lists(letter, max_size=30)))


@given(central_heavy_words())
def test_lean_reduce_folds_central_chords_last(word):
    assert _kernels_py.lean_reduce(word) == reference_lex_least(reference_lean_reduce(word))


def w3(*letters):
    return DiagramWord(3, letters)


def test_bfs_reach_examples(bfs):
    assert bfs.bfs_equal(w3(3, 3), w3(), max_len=4)
    assert not bfs.bfs_equal(w3(3, 6), w3(6, 3), max_len=4)
    targets = [w3(3, 6), w3(6, 3), w3()]
    assert bfs.bfs_equal_many(w3(3, 6), targets, max_len=4) == [True, False, False]


def test_reachable_class_small(bfs):
    got = bfs.reachable_class(w3(3), max_len=3)
    assert (3,) in got
    assert (3, 5, 5) in got  # one insertion
    assert () not in got  # a single letter never cancels


def test_swap_class_examples(bfs):
    def swap_class(*letters):
        return {w.letters for w in bfs.commutation_class(DiagramWord(4, letters))}

    assert swap_class(3, 12) == {(3, 12), (12, 3)}
    assert swap_class(3, 5) == {(3, 5)}
    assert swap_class(3, 7, 5) == {(3, 7, 5), (3, 5, 7), (7, 3, 5)}


def test_component_ids_small(bfs):
    words = [w3(), w3(3, 3), w3(5, 5), w3(3, 5), w3(5, 3), w3(3)]
    ids = bfs.component_partition(words, max_len=4)
    assert ids[0] == ids[1] == ids[2]
    assert len({ids[3], ids[4], ids[5], ids[0]}) == 4


def test_state_cap_returns_none(bfs):
    # Named for the old contract, under which searches returned None at the
    # cap; the name keeps the test id stable.
    with pytest.raises(bfs.StateCapExceeded):
        bfs.reachable_class(w3(3), max_len=6, state_cap=10)
    with pytest.raises(bfs.StateCapExceeded):
        bfs.bfs_equal(w3(3), w3(5), max_len=6, state_cap=10)
    with pytest.raises(bfs.StateCapExceeded):
        bfs.component_partition([w3(3), w3(5)], max_len=6, state_cap=10)
    with pytest.raises(bfs.StateCapExceeded):
        bfs.commutation_class(DiagramWord(4, (3, 12) * 6), state_cap=5)
