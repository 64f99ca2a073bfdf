import pytest

from cactus_groups.diagram_group import equal_diagrams, lex_normal_form
from cactus_groups.words import DiagramWord, parse_diagram_word
from helpers import random_diagram_word
from oracle import (
    StateCapExceeded,
    bfs_equal,
    bfs_equal_many,
    commutation_class,
    component_partition,
    reachable_class,
)


def dw(text, n=3):
    return parse_diagram_word(text, n)


def test_bfs_equal_examples():
    assert bfs_equal(dw("t{1,2} t{1,2}"), dw(""), max_len=4)
    assert not bfs_equal(dw("t{1,2} t{2,3}"), dw("t{2,3} t{1,2}"), max_len=4)
    w = dw("t{1,2} t{1,2,3} t{1,3}")
    assert bfs_equal(w, w, max_len=5)


def test_bfs_equal_default_bound_is_length_plus_two():
    assert bfs_equal(dw("t{1,2} t{1,2}"), dw(""))
    assert bfs_equal(
        dw("t{1,2} t{1,2,3} t{1,2,3} t{1,2}"), dw("t{1,3} t{1,3}", 3)
    )


def test_bfs_equal_needs_matching_arity():
    with pytest.raises(ValueError):
        bfs_equal(dw("t{1,2}", 3), dw("t{1,2}", 4))


def test_bfs_equal_many():
    w = dw("t{1,2} t{1,2}")
    targets = [dw(""), dw("t{1,3} t{1,3}"), dw("t{2,3}")]
    assert bfs_equal_many(w, targets) == [True, True, False]
    w = dw("t{1,2} t{2,3}")
    targets = [w, dw("t{2,3} t{1,2}"), dw("")]
    assert bfs_equal_many(w, targets, max_len=4) == [True, False, False]


def test_reachable_class_returns_letter_tuples():
    got = reachable_class(dw("t{1,2}"), max_len=3)
    assert (3,) in got
    assert (3, 5, 5) in got  # one insertion
    assert () not in got  # a single letter never cancels
    assert all(isinstance(t, tuple) for t in got)


def test_commutation_class_examples():
    disjoint = commutation_class(dw("t{1,2} t{3,4}", 4))
    assert {w.letters for w in disjoint} == {(3, 12), (12, 3)}
    blocked = commutation_class(dw("t{1,2} t{1,3}"))
    assert {w.letters for w in blocked} == {(3, 5)}
    mixed = commutation_class(dw("t{1,2} t{1,2,3} t{1,3}"))
    assert {w.letters for w in mixed} == {(3, 7, 5), (3, 5, 7), (7, 3, 5)}


def test_commutation_class_members_share_arity():
    for w in commutation_class(dw("t{1,2} t{3,4}", 4)):
        assert isinstance(w, DiagramWord)
        assert w.n == 4


def test_state_cap_exceeded():
    with pytest.raises(StateCapExceeded):
        bfs_equal(dw("t{1,2} t{1,3}"), dw("t{1,3} t{1,2}"), max_len=6, state_cap=5)
    with pytest.raises(StateCapExceeded):
        reachable_class(dw("t{1,2}"), max_len=6, state_cap=5)
    with pytest.raises(StateCapExceeded):
        long_word = DiagramWord(4, (3, 12) * 6)
        commutation_class(long_word, state_cap=10)
    with pytest.raises(StateCapExceeded):
        component_partition([dw("t{1,2}"), dw("t{1,3}")], max_len=6, state_cap=5)


def test_component_partition_matches_pairwise_bfs():
    words = [
        dw(""),
        dw("t{1,2} t{1,2}"),
        dw("t{1,3} t{1,3}"),
        dw("t{1,2}"),
        dw("t{1,2} t{1,3}"),
        dw("t{1,3} t{1,2}"),
        dw("t{1,2} t{1,2,3}"),
        dw("t{1,2,3} t{1,2}"),
    ]
    bound = max(len(w) for w in words) + 2
    ids = component_partition(words, max_len=bound)
    for i, wi in enumerate(words):
        for j, wj in enumerate(words):
            assert (ids[i] == ids[j]) == bfs_equal(wi, wj, max_len=bound)


def test_oracle_agrees_with_normal_forms(rng):
    for _ in range(60):
        w1 = random_diagram_word(rng, 3, rng.randrange(0, 5))
        w2 = random_diagram_word(rng, 3, rng.randrange(0, 5))
        assert bfs_equal(w1, w2) == equal_diagrams(w1, w2)


def test_normal_form_is_reachable(rng):
    for _ in range(40):
        w = random_diagram_word(rng, 3, rng.randrange(0, 5))
        assert bfs_equal(w, lex_normal_form(w))
