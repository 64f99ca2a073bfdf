import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactus_groups.cactus_core import diagram_of, inverse_word, is_pure
from cactus_groups.diagram_group import (
    big_chord_sets,
    commute,
    construct_pure_generator,
    delta,
    equal_diagrams,
    gamma_circ_projection,
    in_even_subgroup,
    in_gamma_circ,
    is_lean,
    lean_reduce,
    lex_normal_form,
    projection_dimension,
)
from cactus_groups.words import (
    DiagramWord,
    chord_mask,
    parse_cactus_word,
    parse_diagram_word,
)
from helpers import random_cactus_word
from oracle import relation_neighbors

WORKED = "s1,2 s1,3 s1,2 s1,3 s1,2 s1,3"


def dw(text, n=3):
    return parse_diagram_word(text, n)


def test_commute_examples():
    assert commute(chord_mask([1, 2], 3), chord_mask([1, 2, 3], 3))
    assert commute(chord_mask([1, 2], 4), chord_mask([3, 4], 4))
    assert not commute(chord_mask([1, 2], 3), chord_mask([2, 3], 3))


def test_is_lean_examples():
    assert is_lean(dw("t{1,2} t{1,3}"))
    assert not is_lean(dw("t{1,2} t{1,2,3} t{1,2}"))
    assert is_lean(dw("t{1,2} t{1,3} t{1,2}"))
    assert is_lean(dw(""))


def test_lean_reduce_examples():
    assert lean_reduce is lex_normal_form
    assert lean_reduce(dw("t{1,2} t{1,2}")) == dw("")
    assert lean_reduce(
        dw("t{1,2} t{1,2,3} t{1,3} t{1,2,3} t{2,3} t{1,2,3}")
    ) == dw("t{1,2} t{1,3} t{2,3} t{1,2,3}")
    w = dw("t{1,2} t{1,3} t{1,2} t{1,3}")
    assert lean_reduce(w) == w


def test_lex_normal_form_examples():
    assert lex_normal_form(dw("t{3,4} t{1,2}", 4)) == dw("t{1,2} t{3,4}", 4)
    assert lex_normal_form(dw("")) == dw("")
    assert lex_normal_form(
        dw("t{1,2} t{1,2,3} t{1,3} t{1,2,3} t{2,3} t{1,2,3}")
    ) == dw("t{1,2} t{1,3} t{2,3} t{1,2,3}")


def test_equal_diagrams_examples():
    assert equal_diagrams(dw("t{1,2} t{1,2}"), dw(""))
    assert equal_diagrams(dw("t{1,2} t{1,2,3}"), dw("t{1,2,3} t{1,2}"))
    assert not equal_diagrams(dw("t{1,2} t{2,3}"), dw("t{2,3} t{1,2}"))


def test_equal_diagrams_arity_mismatch():
    with pytest.raises(ValueError):
        equal_diagrams(dw("t{1,2}", 3), dw("t{1,2}", 4))


def test_delta_examples():
    assert delta(dw("")) == frozenset()
    assert delta(dw("t{1,2} t{1,2} t{1,3}")) == frozenset({chord_mask([1, 3], 3)})
    assert delta(diagram_of(parse_cactus_word(WORKED, 3))) == frozenset({3, 5, 6, 7})


def test_in_even_subgroup_examples():
    assert in_even_subgroup(dw(""))
    assert in_even_subgroup(dw("t{1,2} t{1,3} t{1,2} t{1,3}"))
    assert not in_even_subgroup(dw("t{1,2,3}"))


words3 = st.lists(st.integers(1, 7), max_size=8).map(tuple)


@given(words3)
def test_delta_is_relation_invariant(letters):
    base = delta(DiagramWord(3, letters))
    for moved in relation_neighbors(letters, 3):
        assert delta(DiagramWord(3, moved)) == base


@settings(max_examples=40)
@given(words3)
def test_normal_form_is_relation_invariant(letters):
    base = lex_normal_form(DiagramWord(3, letters))
    for moved in relation_neighbors(letters, 3):
        assert lex_normal_form(DiagramWord(3, moved)) == base


@given(words3)
def test_normal_form_is_idempotent_and_equivalent(letters):
    w = DiagramWord(3, letters)
    nf = lex_normal_form(w)
    assert lex_normal_form(nf) == nf
    assert equal_diagrams(w, nf)
    assert is_lean(nf)


def test_projection_dimension_constants():
    assert projection_dimension(3) == 1
    assert projection_dimension(4) == 5
    assert projection_dimension(5) == 16
    for n in range(3, 7):
        assert projection_dimension(n) == 2**n - n * (n + 1) // 2 - 1
        assert len(big_chord_sets(n)) == projection_dimension(n)


def test_big_chord_sets_are_ascending_masks_of_size_over_two():
    sets4 = big_chord_sets(4)
    assert sets4 == (7, 11, 13, 14, 15)
    assert all(bin(m).count("1") > 2 for m in sets4)
    assert list(sets4) == sorted(sets4)


def test_gamma_circ_projection_examples():
    assert gamma_circ_projection(parse_cactus_word("", 4)) == (0, 0, 0, 0, 0)
    assert gamma_circ_projection(parse_cactus_word(WORKED, 3)) == (1,)
    w = construct_pure_generator(4, {1, 2, 4})
    assert gamma_circ_projection(w) == (0, 1, 0, 0, 0)


def test_gamma_circ_projection_rejects_non_pure():
    with pytest.raises(ValueError):
        gamma_circ_projection(parse_cactus_word("s1,2", 3))


def test_in_gamma_circ_examples(rng):
    assert in_gamma_circ(parse_cactus_word("", 3))
    assert not in_gamma_circ(parse_cactus_word(WORKED, 3))
    for _ in range(20):
        n = rng.randrange(2, 6)
        u = random_cactus_word(rng, n, rng.randrange(0, 5))
        w = u * inverse_word(u)
        assert in_gamma_circ(w * w)


def test_construct_pure_generator_base_case():
    w = construct_pure_generator(3, {1, 2, 3})
    assert w == parse_cactus_word("s1,3 s1,2 s2,3 s1,2", 3)
    assert diagram_of(w) == dw("t{1,2,3} t{2,3} t{1,3} t{1,2}")


def test_construct_pure_generator_accepts_masks():
    assert construct_pure_generator(3, 7) == construct_pure_generator(3, {1, 2, 3})


@pytest.mark.parametrize(
    "n, chord",
    [
        (4, {1, 2, 3, 4}),
        (5, {1, 3, 5}),
        (5, {2, 3, 4, 5}),
        (6, {1, 4, 6}),
    ],
)
def test_construct_pure_generator_postconditions(n, chord):
    w = construct_pure_generator(n, chord)
    assert is_pure(w)
    big = [m for m in diagram_of(w).letters if bin(m).count("1") > 2]
    assert big == [chord_mask(chord, n)]


def test_construct_pure_generator_rejects_small_chords():
    with pytest.raises(ValueError):
        construct_pure_generator(3, {1, 2})
    with pytest.raises(ValueError):
        construct_pure_generator(4, {2})


def test_constructed_generators_hit_standard_basis():
    for n in (3, 4, 5):
        big = big_chord_sets(n)
        for idx, mask in enumerate(big):
            vec = gamma_circ_projection(construct_pure_generator(n, mask))
            assert vec == tuple(1 if i == idx else 0 for i in range(len(big)))


def test_projection_equivalence_on_pure_words(rng):
    # zero projection coincides with full chord-parity evenness of the diagram
    for _ in range(150):
        n = rng.randrange(3, 6)
        u = random_cactus_word(rng, n, rng.randrange(0, 5))
        big = big_chord_sets(n)
        core = parse_cactus_word("", n)
        for _ in range(rng.randrange(0, 3)):
            core = core * construct_pure_generator(n, rng.choice(big))
        w = u * core * inverse_word(u)
        assert is_pure(w)
        zero = all(v == 0 for v in gamma_circ_projection(w))
        assert zero == in_even_subgroup(diagram_of(w))
        assert in_gamma_circ(w) == zero
