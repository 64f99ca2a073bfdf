"""The word kernels against brute force and the greedy references, and
both breadth-first kernel backends against each other."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cactus_groups import _kernels_py, kernels
from helpers import (
    reference_canonical_if_lean,
    reference_is_lean,
    reference_lean_reduce,
    reference_lex_least,
)

try:
    from cactus_groups import _kernels_cy
except ImportError:
    _kernels_cy = None

# The word kernels, all folds of append_slot, have one implementation.  The
# breadth-first kernels also have a compiled twin, and their tests run
# against every backend that is built.
WORD_BACKENDS = [_kernels_py]
BFS_BACKENDS = [_kernels_py] + ([_kernels_cy] if _kernels_cy is not None else [])
both = pytest.mark.skipif(_kernels_cy is None, reason="compiled backend not built")

ALPHA3 = tuple(range(1, 8))


@pytest.fixture(params=WORD_BACKENDS, ids=lambda m: m.BACKEND)
def word_kern(request):
    return request.param


@pytest.fixture(params=BFS_BACKENDS, ids=lambda m: m.BACKEND)
def kern(request):
    return request.param


def test_selected_backend_is_exported():
    assert kernels.BACKEND in ("python", "cython")
    assert kernels.lean_reduce((3, 3)) == ()
    assert kernels.lean_reduce is _kernels_py.lean_reduce
    assert kernels.append_slot is _kernels_py.append_slot


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
def test_commutes(word_kern, a, b, expected):
    assert word_kern.commutes(a, b) is expected


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
def test_is_lean(word_kern, word, expected):
    assert word_kern.is_lean(word) is expected


@pytest.mark.parametrize(
    "word, expected",
    [
        ((), ()),
        ((3, 3), ()),
        ((3, 7, 7, 3), ()),
        ((3, 7, 5, 7, 6, 7), (3, 5, 6, 7)),
        ((3, 5, 3, 5), (3, 5, 3, 5)),
    ],
)
def test_lean_reduce(word_kern, word, expected):
    assert word_kern.lean_reduce(word) == expected


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
def test_lex_least(word_kern, word, expected):
    assert word_kern.lex_least(word) == expected


def test_canonical_if_lean(word_kern):
    assert word_kern.canonical_if_lean((12, 3)) == (3, 12)
    assert word_kern.canonical_if_lean((3, 7, 3)) is None
    assert word_kern.canonical_if_lean(()) == ()


def test_lean_reduce_preserves_per_letter_parity(word_kern, rng):
    for _ in range(80):
        word = tuple(rng.randrange(1, 16) for _ in range(rng.randrange(0, 12)))
        reduced = word_kern.lean_reduce(word)
        for x in set(word):
            assert word.count(x) % 2 == reduced.count(x) % 2


def test_append_slot(word_kern):
    assert word_kern.append_slot((), 5) == 0
    assert word_kern.append_slot((3, 12), 5) == 2  # 12 blocks 5: append at the end
    assert word_kern.append_slot((3, 12), 4) == 1  # commutes with both, goes before 12
    assert word_kern.append_slot((3, 12), 3) == ~0  # reaches the equal 3
    assert word_kern.append_slot((3, 12), 3, cancel=False) == 1
    assert word_kern.append_slot((5, 3), 5) == 2  # 3 blocks before the equal 5


def test_folds_match_greedy_references(word_kern, rng):
    for _ in range(300):
        n = rng.randrange(1, 6)
        word = tuple(rng.randrange(1, 1 << n) for _ in range(rng.randrange(0, 25)))
        lean = reference_lean_reduce(word)
        assert word_kern.lean_reduce(word) == reference_lex_least(lean)
        assert word_kern.lex_least(word) == reference_lex_least(word)
        assert word_kern.is_lean(word) is reference_is_lean(word)
        assert word_kern.canonical_if_lean(word) == reference_canonical_if_lean(word)
        assert word_kern.canonical_if_lean(lean) == word_kern.lean_reduce(word)


words_strategy = st.lists(st.integers(1, 15), max_size=8).map(tuple)


def least_of_class(word):
    cls = kernels.swap_class(word, 10**5)
    assume(cls is not None)
    return min(cls)


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


def test_bfs_reach_examples(kern):
    assert kern.bfs_reach((3, 3), [()], ALPHA3, 4, 10**6) == [True]
    assert kern.bfs_reach((3, 6), [(6, 3)], ALPHA3, 4, 10**6) == [False]
    assert kern.bfs_reach((3, 6), [(3, 6), (6, 3), ()], ALPHA3, 4, 10**6) == [
        True,
        False,
        False,
    ]


def test_reachable_class_small(kern):
    got = kern.reachable_class((3,), ALPHA3, 3, 10**6)
    assert (3,) in got
    assert (3, 5, 5) in got  # one insertion
    assert () not in got  # a single letter never cancels


def test_swap_class_examples(kern):
    assert kern.swap_class((3, 12), 10**6) == {(3, 12), (12, 3)}
    assert kern.swap_class((3, 5), 10**6) == {(3, 5)}
    assert kern.swap_class((3, 7, 5), 10**6) == {(3, 7, 5), (3, 5, 7), (7, 3, 5)}


def test_component_ids_small(kern):
    words = [(), (3, 3), (5, 5), (3, 5), (5, 3), (3,)]
    ids = kern.component_ids(words, ALPHA3, 4, 10**6)
    assert ids is not None
    assert ids[0] == ids[1] == ids[2]
    assert len({ids[3], ids[4], ids[5], ids[0]}) == 4


def test_state_cap_returns_none(kern):
    assert kern.reachable_class((3,), ALPHA3, 6, 10) is None
    assert kern.bfs_reach((3,), [(5,)], ALPHA3, 6, 10) is None
    assert kern.component_ids([(3,), (5,)], ALPHA3, 6, 10) is None
    assert kern.swap_class(tuple([3, 12] * 6), 5) is None


def test_cap_semantics_match_across_backends(rng):
    if _kernels_cy is None:
        pytest.skip("compiled backend not built")
    for cap in (1, 2, 3, 5, 17, 100, 10**6):
        py = _kernels_py.reachable_class((3, 5), ALPHA3, 4, cap)
        cy = _kernels_cy.reachable_class((3, 5), ALPHA3, 4, cap)
        assert (py is None) == (cy is None)
        if py is not None:
            assert py == cy


def test_compiled_backend_falls_back_on_wide_letters():
    if _kernels_cy is None:
        pytest.skip("compiled backend not built")
    big = 1 << 80
    got = _kernels_cy.reachable_class((big,), (big, 3), 3, 10**6)
    assert got == _kernels_py.reachable_class((big,), (big, 3), 3, 10**6)


@both
@settings(max_examples=25)
@given(st.lists(st.integers(1, 7), max_size=3).map(tuple))
def test_backends_agree_on_reachable_class(word):
    bound = len(word) + 2
    py = _kernels_py.reachable_class(word, ALPHA3, bound, 10**6)
    cy = _kernels_cy.reachable_class(word, ALPHA3, bound, 10**6)
    assert py == cy


@both
@settings(max_examples=25)
@given(
    st.lists(st.lists(st.integers(1, 7), max_size=3).map(tuple), min_size=1, max_size=6)
)
def test_backends_agree_on_component_ids(words):
    bound = max(len(w) for w in words) + 2
    py = _kernels_py.component_ids(words, ALPHA3, bound, 10**6)
    cy = _kernels_cy.component_ids(words, ALPHA3, bound, 10**6)
    # labels are order-of-first-visit in both backends
    assert py == cy


@both
@settings(max_examples=40)
@given(st.lists(st.integers(1, 15), max_size=8).map(tuple))
def test_backends_agree_on_swap_class(word):
    assert _kernels_py.swap_class(word, 10**6) == _kernels_cy.swap_class(word, 10**6)
