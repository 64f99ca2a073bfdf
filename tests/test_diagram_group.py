import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cactus_groups import cactus_core
from cactus_groups.cactus_core import diagram_of, inverse_word, is_pure
from cactus_groups.diagram_group import (
    MAX_PROJECTION_ARITY,
    big_chord_sets,
    construct_pure_generator,
    delta,
    equal_diagrams,
    gamma_circ_projection,
    in_even_subgroup,
    in_gamma_circ,
    lex_normal_form,
    projection_dimension,
)
from cactus_groups.words import (
    CactusWord,
    DiagramWord,
    chord_mask,
    chord_members,
    parse_cactus_word,
    parse_diagram_word,
)
from helpers import (
    all_generators,
    peak_bytes,
    random_cactus_word,
    reference_is_lean,
    reference_label_walk,
)
from oracle import relation_neighbors

WORKED = "s1,2 s1,3 s1,2 s1,3 s1,2 s1,3"


def dw(text, n=3):
    return parse_diagram_word(text, n)


def test_lean_reduce_examples():
    assert lex_normal_form(dw("t{1,2} t{1,2}")) == dw("")
    assert lex_normal_form(
        dw("t{1,2} t{1,2,3} t{1,3} t{1,2,3} t{2,3} t{1,2,3}")
    ) == dw("t{1,2} t{1,3} t{2,3} t{1,2,3}")
    w = dw("t{1,2} t{1,3} t{1,2} t{1,3}")
    assert lex_normal_form(w) == w


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


def toggled_parity(w):
    odd = set()
    for mask in w.letters:
        odd.symmetric_difference_update((mask,))
    return frozenset(odd)


@st.composite
def repeating_diagram_words(draw):
    """Words at n <= 12, or at n = 100 with masks past 2^64, whose letters
    come from a few chords, so counts of both parities occur."""
    n = draw(st.one_of(st.integers(1, 12), st.just(100)))
    low = 1 << 64 if n > 64 else 1
    pool = draw(st.lists(st.integers(low, (1 << n) - 1), min_size=1, max_size=6))
    return DiagramWord(n, tuple(draw(st.lists(st.sampled_from(pool), max_size=40))))


@given(repeating_diagram_words())
def test_delta_equals_the_per_letter_toggle(w):
    assert delta(w) == toggled_parity(w)


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


@st.composite
def diagram_word_pairs(draw):
    """(a, b, equal) at n = 2-8: b is a scrambled by relation moves, and for
    an unequal pair it also gains one chord (odd total length) or two
    different adjacent chords, which never cancel (even total length)."""
    n = draw(st.integers(2, 8))
    chords = st.integers(1, (1 << n) - 1)
    # two chords or more, so that some words are not involutions
    pool = draw(st.lists(chords, min_size=2, max_size=4, unique=True))
    a = draw(st.lists(st.sampled_from(pool), max_size=16))
    b = list(a)
    for _ in range(draw(st.integers(0, 12))):
        move = draw(st.sampled_from(("swap", "cancel", "insert")))
        if move == "insert":
            x = draw(st.sampled_from(pool))
            i = draw(st.integers(0, len(b)))
            b[i:i] = [x, x]
            continue
        spots = [
            i for i, (x, y) in enumerate(zip(b, b[1:]))
            if (x == y if move == "cancel" else (x & y) in (0, x, y))
        ]
        if spots:
            i = draw(st.sampled_from(spots))
            b[i : i + 2] = [] if move == "cancel" else b[i : i + 2][::-1]
    extra = draw(st.integers(0, 2))  # chords that make the pair unequal
    if extra:
        x = draw(chords)
        y = draw(chords.filter(lambda c: c != x))
        i = draw(st.integers(0, len(b)))
        b[i:i] = [x, y][:extra]
    return DiagramWord(n, tuple(a)), DiagramWord(n, tuple(b)), extra == 0


@given(diagram_word_pairs())
@example((dw("t{1,2} t{2,3}"), dw("t{1,2} t{2,3}"), True))  # not an involution
def test_equal_diagrams_agrees_with_the_normal_forms(pair):
    a, b, equal = pair
    assert equal_diagrams(a, b) == (lex_normal_form(a) == lex_normal_form(b)) == equal
    assert equal_diagrams(b, a) == equal


@given(words3)
def test_normal_form_is_idempotent_and_equivalent(letters):
    w = DiagramWord(3, letters)
    nf = lex_normal_form(w)
    assert lex_normal_form(nf) == nf
    assert equal_diagrams(w, nf)
    assert reference_is_lean(nf.letters)


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


def test_gamma_circ_projection_refuses_an_arity_past_the_bound():
    assert MAX_PROJECTION_ARITY == 20
    # checked before the purity walk and before any coordinate is built
    with pytest.raises(ValueError, match="arity 21 exceeds 20"):
        gamma_circ_projection(parse_cactus_word("s1,2", 21))
    assert in_gamma_circ(parse_cactus_word("s1,2 s1,2", 64))


def test_gamma_circ_projection_rejects_non_pure():
    with pytest.raises(ValueError):
        gamma_circ_projection(parse_cactus_word("s1,2", 3))
    with pytest.raises(ValueError):
        in_gamma_circ(parse_cactus_word("s1,2", 3))


def test_purity_and_diagram_take_one_walk(monkeypatch):
    walks = []

    def counted(walk):
        def wrapper(letters, *top):
            walks.append(len(letters))
            return walk(letters, *top)

        return wrapper

    for name in ("_walk", "_final_labels"):
        monkeypatch.setattr(cactus_core, name, counted(getattr(cactus_core, name)))
    impure = r"^word is not pure \(nontrivial strand permutation\)$"
    for call in (in_gamma_circ, gamma_circ_projection):
        walks.clear()
        call(parse_cactus_word(WORKED, 3))
        assert walks == [6]
        walks.clear()
        with pytest.raises(ValueError, match=impure):
            call(parse_cactus_word("s1,2", 3))
        assert walks == [1]
    # the generator's purity and big chord are Tier-1 facts, not run-time checks
    walks.clear()
    construct_pure_generator(5, {1, 3, 5})
    assert walks == []


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


def assert_generator_postconditions(n, mask):
    """Pure, and the only chord on more than two strands is ``mask``, by a
    walk that shares no code with `cactus_core`."""
    diagram, assign = reference_label_walk(construct_pure_generator(n, mask))
    assert assign == list(range(1, n + 1))
    assert [m for m in diagram.letters if m.bit_count() > 2] == [mask]


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
    assert_generator_postconditions(n, chord_mask(chord, n))


def test_construct_pure_generator_postconditions_up_to_10_strands():
    # every chord on more than two strands up to strand 10, once, at n = its
    # top strand; this covers every chord the make-generator tests in
    # test_cli.py name
    chords = big_chord_sets(10)
    assert len(chords) == 968
    assert {0b111, 0b1011, 0b10101} <= set(chords)  # t{1,2,3}, t{1,2,4}, t{1,3,5}
    for mask in chords:
        assert_generator_postconditions(mask.bit_length(), mask)


@st.composite
def wide_chords(draw):
    n = draw(st.integers(3, 64))
    return n, chord_mask(draw(st.sets(st.integers(1, n), min_size=3)), n)


@given(wide_chords())
def test_construct_pure_generator_postconditions_up_to_64_strands(case):
    assert_generator_postconditions(*case)


def test_construct_pure_generator_ignores_strands_past_the_chord():
    for n in range(4, 8):
        for mask in big_chord_sets(n):
            letters = construct_pure_generator(mask.bit_length(), mask).letters
            assert construct_pure_generator(n, mask) == CactusWord(n, letters)


# Large enough that building over 1..n would show, small enough that it
# would cost milliseconds, not gigabytes.
@pytest.mark.parametrize("chord", [{1, 2, 3}, {2, 5, 7}, {1, 3, 4, 8}])
def test_construct_pure_generator_memory_follows_the_chord(chord):
    letters = construct_pure_generator(max(chord), chord).letters
    out = []
    assert peak_bytes(lambda: out.append(construct_pure_generator(200000, chord))) < 1 << 16
    assert out == [CactusWord(200000, letters)]


def test_construct_pure_generator_closed_form():
    # G s_{1,k} U G^-1: gather each member c_j down to position j, reverse
    # the block, sort it again with adjacent swaps, scatter
    for n in range(3, 8):
        for mask in big_chord_sets(n):
            members = chord_members(mask)
            k = len(members)
            gather = [
                f"s{i},{i + 1}" for j, c in enumerate(members, 1) for i in range(c - 1, j - 1, -1)
            ]
            unreverse = [
                f"s{i},{i + 1}" for last in range(k - 1, 0, -1) for i in range(1, last + 1)
            ]
            text = " ".join([*gather, f"s1,{k}", *unreverse, *reversed(gather)])
            w = construct_pure_generator(n, mask)
            assert w == parse_cactus_word(text, n)
            shift = sum(c - j for j, c in enumerate(members, 1))
            assert len(w.letters) == 2 * shift + 1 + k * (k - 1) // 2
    assert construct_pure_generator(5, {2, 3, 5}) == parse_cactus_word(
        "s1,2 s2,3 s4,5 s3,4 s1,3 s1,2 s2,3 s1,2 s3,4 s4,5 s2,3 s1,2", 5
    )


def test_construct_pure_generator_rejects_small_chords():
    with pytest.raises(ValueError):
        construct_pure_generator(3, {1, 2})
    with pytest.raises(ValueError):
        construct_pure_generator(4, {2})
    with pytest.raises(ValueError, match="strand 4 out of range 1..3"):
        construct_pure_generator(3, 0b1111)  # an int mask naming a strand past n


def test_constructed_generators_hit_standard_basis():
    for n in (3, 4, 5):
        big = big_chord_sets(n)
        for idx, mask in enumerate(big):
            vec = gamma_circ_projection(construct_pure_generator(n, mask))
            assert vec == tuple(1 if i == idx else 0 for i in range(len(big)))


@st.composite
def conjugated_generator_products(draw):
    """u * (a product of pure generators) * u^-1 at n <= 8; a few chords
    per product, so chords repeat and both parities occur."""
    n = draw(st.integers(3, 8))
    gens = all_generators(n)
    u = CactusWord(n, tuple(draw(st.lists(st.sampled_from(gens), max_size=8))))
    pool = draw(st.lists(st.sampled_from(big_chord_sets(n)), min_size=1, max_size=3))
    core = CactusWord(n, ())
    for mask in draw(st.lists(st.sampled_from(pool), max_size=4)):
        core = core * construct_pure_generator(n, mask)
    return u * core * inverse_word(u)


@given(conjugated_generator_products())
def test_projection_equivalence_on_pure_words(w):
    # on a pure word, no odd big chord, no odd chord at all and
    # in_gamma_circ agree
    assert is_pure(w)
    no_odd_big = not any(gamma_circ_projection(w))
    assert no_odd_big == in_even_subgroup(diagram_of(w)) == in_gamma_circ(w)
