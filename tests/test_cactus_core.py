import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cactus_groups import cactus_core, kernels
from cactus_groups.cactus_core import (
    diagram_of,
    equal_in_Jn,
    inverse_word,
    is_pure,
    pure_diagram,
    word_permutation,
)
from cactus_groups.diagram_group import construct_pure_generator, delta, in_gamma_circ
from cactus_groups.words import (
    CactusGenerator,
    CactusWord,
    chord_mask,
    chord_members,
    parse_cactus_word,
    parse_diagram_word,
)
from helpers import (
    all_generators,
    compose_permutations,
    generator_permutation,
    identity_permutation,
    invert_permutation,
    peak_bytes,
    random_cactus_word,
    reference_label_walk,
)

WORKED = "s1,2 s1,3 s1,2 s1,3 s1,2 s1,3"


def test_identity_and_inverse_permutations():
    assert identity_permutation(4) == (1, 2, 3, 4)
    assert invert_permutation((2, 3, 1)) == (3, 1, 2)
    assert compose_permutations((2, 1, 3), (3, 2, 1)) == (2, 3, 1)


@pytest.mark.parametrize(
    "g, n, expected",
    [
        (CactusGenerator(1, 3), 3, (3, 2, 1)),
        (CactusGenerator(3, 7), 7, (1, 2, 7, 6, 5, 4, 3)),
        (CactusGenerator(2, 3), 4, (1, 3, 2, 4)),
    ],
)
def test_generator_permutation(g, n, expected):
    assert word_permutation(CactusWord(n, (g,))) == generator_permutation(g, n) == expected


def test_word_permutation_examples():
    assert word_permutation(parse_cactus_word("", 4)) == (1, 2, 3, 4)
    assert word_permutation(parse_cactus_word("s1,2 s1,2", 3)) == (1, 2, 3)
    assert word_permutation(parse_cactus_word(WORKED, 3)) == (1, 2, 3)
    assert word_permutation(parse_cactus_word("s1,2 s1,3", 3)) == (2, 3, 1)


def test_word_permutation_is_homomorphism(rng):
    for _ in range(100):
        n = rng.randrange(2, 7)
        u = random_cactus_word(rng, n, rng.randrange(0, 6))
        v = random_cactus_word(rng, n, rng.randrange(0, 6))
        assert word_permutation(u * v) == compose_permutations(
            word_permutation(u), word_permutation(v)
        )


def test_is_pure_examples():
    assert not is_pure(parse_cactus_word("s1,2", 3))
    assert is_pure(parse_cactus_word("s1,4 s2,3 s1,4 s2,3", 4))
    assert is_pure(parse_cactus_word(WORKED, 3))


def test_inverse_word():
    assert inverse_word(parse_cactus_word("", 3)).letters == ()
    assert inverse_word(parse_cactus_word("s1,2 s1,3", 3)) == parse_cactus_word(
        "s1,3 s1,2", 3
    )
    g = parse_cactus_word("s2,4", 4)
    assert inverse_word(g) == g


def test_inverse_word_cancels(rng):
    for _ in range(60):
        n = rng.randrange(2, 6)
        w = random_cactus_word(rng, n, rng.randrange(0, 6))
        assert equal_in_Jn(w * inverse_word(w), CactusWord(n, ()))


def test_diagram_of_examples():
    assert diagram_of(parse_cactus_word("s1,2", 2)) == parse_diagram_word("t{1,2}", 2)
    assert diagram_of(parse_cactus_word("s1,3 s1,2", 3)) == parse_diagram_word(
        "t{1,2,3} t{2,3}", 3
    )
    assert diagram_of(parse_cactus_word(WORKED, 3)) == parse_diagram_word(
        "t{1,2} t{1,2,3} t{1,3} t{1,2,3} t{2,3} t{1,2,3}", 3
    )
    assert diagram_of(parse_cactus_word("", 3)).letters == ()


def test_diagram_chords_are_label_sets_of_reversed_intervals():
    # the first letter always yields the labels at positions p..q of the
    # identity assignment
    w = parse_cactus_word("s2,4", 5)
    assert diagram_of(w).letters == (chord_mask([2, 3, 4], 5),)


def test_diagram_of_matches_the_label_list(rng):
    for _ in range(200):
        u = random_cactus_word(rng, rng.randrange(2, 10), rng.randrange(0, 40))
        for w in (u, u * inverse_word(u)):
            diagram, assign = reference_label_walk(w)
            assert diagram_of(w) == diagram
            assert word_permutation(w) == tuple(assign.index(i) + 1 for i in range(1, w.n + 1))
            assert is_pure(w) == (assign == list(range(1, w.n + 1)))


def test_diagram_of_tracks_labels_only_up_to_the_largest_q():
    # positions past the largest q never move, so a short word at a large
    # arity costs no label mask per strand
    assert diagram_of(parse_cactus_word("s1,2", 20000)).letters == (3,)
    assert peak_bytes(lambda: diagram_of(parse_cactus_word("s1,2", 20000))) < 1 << 20
    w = parse_cactus_word("s1,2", 20000)
    assert not is_pure(w) and equal_in_Jn(w, w)
    assert peak_bytes(lambda: is_pure(w)) < 1 << 16
    assert peak_bytes(lambda: equal_in_Jn(w, w)) < 1 << 16
    # in_gamma_circ reads the odd chords, not a parity for each of 2^n chords
    w = parse_cactus_word("s1,2 s1,2", 18)
    assert in_gamma_circ(w)
    assert peak_bytes(lambda: in_gamma_circ(w)) < 1 << 16


def test_diagram_cocycle(rng):
    # diagram_of(u v) = diagram_of(u) then diagram_of(v) relabeled through
    # the assignment reached at the end of u
    for _ in range(120):
        n = rng.randrange(2, 6)
        u = random_cactus_word(rng, n, rng.randrange(0, 5))
        v = random_cactus_word(rng, n, rng.randrange(0, 5))
        assign = invert_permutation(word_permutation(u))
        relabeled = tuple(
            chord_mask([assign[i - 1] for i in chord_members(mask)], n)
            for mask in diagram_of(v).letters
        )
        assert diagram_of(u * v).letters == diagram_of(u).letters + relabeled


def test_diagram_of_is_homomorphism_on_pure_words(rng):
    for _ in range(40):
        n = rng.randrange(2, 6)
        u0 = random_cactus_word(rng, n, rng.randrange(0, 4))
        u = u0 * inverse_word(u0)
        v = random_cactus_word(rng, n, rng.randrange(0, 4))
        assert is_pure(u)
        assert diagram_of(u * v) == diagram_of(u) * diagram_of(v)


def test_pure_pair_parity(rng):
    # every strand pair of a pure word meets an even number of chords
    for _ in range(60):
        n = rng.randrange(2, 6)
        u = random_cactus_word(rng, n, rng.randrange(0, 5))
        w = u * inverse_word(u)
        masks = diagram_of(w).letters
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                pair = (1 << (i - 1)) | (1 << (j - 1))
                meets = sum(1 for m in masks if m & pair == pair)
                assert meets % 2 == 0


def test_equal_in_Jn_examples():
    assert equal_in_Jn(
        parse_cactus_word("s1,2 s3,4", 4), parse_cactus_word("s3,4 s1,2", 4)
    )
    assert equal_in_Jn(
        parse_cactus_word("s1,4 s2,3", 4), parse_cactus_word("s2,3 s1,4", 4)
    )
    assert not equal_in_Jn(parse_cactus_word(WORKED, 3), parse_cactus_word("", 3))


def test_equal_in_Jn_nested_rewrite():
    # s_{p,q} s_{m,r} = s_{p+q-r,p+q-m} s_{p,q} for [m,r] inside [p,q]
    assert equal_in_Jn(
        parse_cactus_word("s1,3 s1,2", 3), parse_cactus_word("s2,3 s1,3", 3)
    )
    assert equal_in_Jn(
        parse_cactus_word("s1,5 s2,3", 5), parse_cactus_word("s3,4 s1,5", 5)
    )


def test_equal_in_Jn_respects_all_relations_exhaustively():
    for n in range(2, 6):
        empty = CactusWord(n, ())
        gens = all_generators(n)
        for g in gens:
            w = CactusWord(n, (g, g))
            assert equal_in_Jn(w, empty)
        for a in gens:
            for b in gens:
                if a.q < b.p or b.q < a.p:
                    assert equal_in_Jn(CactusWord(n, (a, b)), CactusWord(n, (b, a)))
                elif a.p <= b.p and b.q <= a.q and (a.p, a.q) != (b.p, b.q):
                    rewritten = CactusGenerator(a.p + a.q - b.q, a.p + a.q - b.p)
                    assert equal_in_Jn(
                        CactusWord(n, (a, b)), CactusWord(n, (rewritten, a))
                    )


def test_equal_in_Jn_distinguishes(rng):
    assert not equal_in_Jn(parse_cactus_word("s1,2", 3), parse_cactus_word("s1,3", 3))
    assert not equal_in_Jn(
        parse_cactus_word("s1,2 s1,3", 3), parse_cactus_word("s1,3 s1,2", 3)
    )


def _triple(n, k):
    """(s_{k,k+1} s_{k,k+2})^3: pure, with three letters of length 1 and
    three of length 2, so its length parity is odd."""
    return CactusWord(n, (CactusGenerator(k, k + 1), CactusGenerator(k, k + 2)) * 3)


def _commutator(a, b):
    return a * b * inverse_word(a) * inverse_word(b)


def _length_parity(w):
    return cactus_core._length_parity(w.letters)[0]


@st.composite
def word_pairs(draw):
    """(g, h) at n <= 8, one kind for each stage of `equal_in_Jn`: h a
    random word; h equal to g but for two cut-in letters in the other
    order, which only the permutation tells apart; or h equal to g with a
    pure word cut in, which has odd length parity, or else only the
    reduction can tell apart: odd chord parity (kind "chord"), or even
    parity of both kinds."""
    kind = draw(st.sampled_from(["random", "length", "permutation", "chord", "reduction"]))
    n = draw(st.integers(4 if kind == "chord" else 3, 8))
    generators = st.integers(2, n).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: (p, q)))

    def word():
        return CactusWord(n, tuple(CactusGenerator(*g) for g in draw(st.lists(generators, max_size=12))))

    g = word()
    if kind == "random":
        return g, word()
    cut = draw(st.integers(0, len(g)))
    head, tail = g.letters[:cut], g.letters[cut:]
    if kind == "permutation":
        k = draw(st.integers(1, n - 2))
        a, b = CactusGenerator(k, k + 1), CactusGenerator(k + 1, k + 2)
        return CactusWord(n, head + (a, b) + tail), CactusWord(n, head + (b, a) + tail)
    if kind == "length":
        x = _triple(n, draw(st.integers(1, n - 2)))
    elif kind == "chord":
        # two generators for chords of one size: their big letters have one
        # length, and their adjacent swaps come in equal numbers mod 2
        size = draw(st.integers(3, n - 1))
        chord = st.frozensets(st.integers(1, n), min_size=size, max_size=size)
        c, d = draw(st.lists(chord, min_size=2, max_size=2, unique=True))
        x = construct_pure_generator(n, c) * construct_pure_generator(n, d)
    elif draw(st.booleans()):
        x = _triple(n, draw(st.integers(1, n - 2)))
        x = x * x
    else:
        chords = st.sets(st.integers(1, n), min_size=3).map(lambda s: chord_mask(s, n))
        x = _commutator(
            construct_pure_generator(n, draw(chords)), construct_pure_generator(n, draw(chords))
        )
    return g, CactusWord(n, head + x.letters + tail)


@given(word_pairs())
def test_equal_in_Jn_matches_the_reduction_alone(pair):
    g, h = pair
    w = g * inverse_word(h)
    assert equal_in_Jn(g, h) == (is_pure(w) and kernels.lean_reduce(diagram_of(w).letters) == ())


def test_each_stage_of_equal_in_Jn_decides_some_pair():
    e3, e4 = CactusWord(3, ()), CactusWord(4, ())
    # length parity: three letters each of lengths 1 and 2
    x = _triple(3, 1)
    assert _length_parity(x) == 0b110
    assert not equal_in_Jn(x, e3)
    # permutation: the same letters, so even length parity
    a, b = parse_cactus_word("s1,2 s2,3", 3), parse_cactus_word("s2,3 s1,2", 3)
    assert _length_parity(a * inverse_word(b)) == 0
    assert word_permutation(a) != word_permutation(b)
    assert not equal_in_Jn(a, b)
    # the reduction: pure, even length parity, t{1,2,3} and t{1,2,4} once
    # each, so they remain after it
    y = construct_pure_generator(4, 0b0111) * construct_pure_generator(4, 0b1011)
    assert _length_parity(y) == 0 and is_pure(y)
    assert delta(diagram_of(y)) >= {0b0111, 0b1011}
    assert {0b0111, 0b1011} <= set(kernels.lean_reduce(diagram_of(y).letters))
    assert not equal_in_Jn(y, e4)
    # and pure and even in both parities, yet 6 chords remain
    assert _length_parity(x * x) == 0 and not delta(diagram_of(x * x))
    assert len(kernels.lean_reduce(diagram_of(x * x).letters)) == 6
    assert not equal_in_Jn(x * x, e3)
    assert equal_in_Jn(x * x, x * x)
    y = construct_pure_generator(4, 0b0111)
    z = construct_pure_generator(4, 0b1110)
    assert not delta(diagram_of(_commutator(y, z)))
    assert not equal_in_Jn(_commutator(y, z), e4)


def test_parity_separated_pairs_skip_the_reduction(monkeypatch):
    def unreachable(chords):
        raise AssertionError("lean_reduce called")

    monkeypatch.setattr(kernels, "lean_reduce", unreachable)
    x = _triple(5, 2)
    g = parse_cactus_word("s1,4 s2,5 s1,2", 5)
    assert not equal_in_Jn(x, CactusWord(5, ()))
    assert not equal_in_Jn(g * x * g, g * g)
    # nor does a permutation mismatch
    assert not equal_in_Jn(g, parse_cactus_word("s2,5 s1,4 s1,2", 5))
    # a pure pair of even length parity reaches the reduction, an odd
    # chord parity included
    y = construct_pure_generator(5, 0b00111) * construct_pure_generator(5, 0b10101)
    for a, b in ((g * y, g), (x * x, CactusWord(5, ()))):
        with pytest.raises(AssertionError, match="lean_reduce called"):
            equal_in_Jn(a, b)


def test_length_separated_pairs_are_never_walked(monkeypatch):
    def unreachable(letters, top=None):
        raise AssertionError("_walk called")

    monkeypatch.setattr(cactus_core, "_walk", unreachable)
    x = _triple(5, 2)
    g = parse_cactus_word("s1,4 s2,5 s1,2", 5)
    assert not equal_in_Jn(x, CactusWord(5, ()))
    assert not equal_in_Jn(g * x * g, g * g)
    assert not equal_in_Jn(g, CactusWord(5, ()))
    # a pair of even length parity is walked, equal or not
    for h in (g, parse_cactus_word("s2,5 s1,4 s1,2", 5), g * x * x):
        with pytest.raises(AssertionError, match="_walk called"):
            equal_in_Jn(g, h)


def test_permutation_and_purity_build_no_chords(monkeypatch):
    def unreachable(letters, top=None):
        raise AssertionError("_walk called")

    monkeypatch.setattr(cactus_core, "_walk", unreachable)
    g = parse_cactus_word("s1,3 s1,2", 4)
    assert word_permutation(g) == (3, 1, 2, 4)
    assert not is_pure(g)
    assert is_pure(g * inverse_word(g))
    assert is_pure(CactusWord(4, ()))
    assert word_permutation(CactusWord(4, ())) == (1, 2, 3, 4)


@st.composite
def relation_instances(draw):
    """(n, u, a, x, y): a word u, a generator a, and the two sides x, y of
    a defining relation (square, disjoint swap, nested rewrite), in either
    order."""
    n = draw(st.integers(2, 8))
    gens = all_generators(n)
    u = draw(st.lists(st.sampled_from(gens), max_size=10))
    a = draw(st.sampled_from(gens))
    relation = draw(st.sampled_from(["square", "disjoint", "nested"]))
    if relation == "square":
        x, y = [a, a], []
    elif relation == "disjoint":
        others = [b for b in gens if b.p > a.q or b.q < a.p]
        assume(others)
        b = draw(st.sampled_from(others))
        x, y = [a, b], [b, a]
    else:
        inside = [b for b in gens if a.p <= b.p and b.q <= a.q and b != a]
        assume(inside)
        b = draw(st.sampled_from(inside))
        x, y = [a, b], [CactusGenerator(a.p + a.q - b.q, a.p + a.q - b.p), a]
    return (n, u, a, x, y) if draw(st.booleans()) else (n, u, a, y, x)


@given(relation_instances(), st.data())
def test_defining_relations_keep_the_length_parity(instance, data):
    n, u, a, x, y = instance
    cut = data.draw(st.integers(0, len(u)))
    before, after = u[:cut] + x + u[cut:], u[:cut] + y + u[cut:]
    parity = cactus_core._length_parity
    assert parity(before)[0] == parity(after)[0]
    assert equal_in_Jn(CactusWord(n, tuple(before)), CactusWord(n, tuple(after)))
    # and one letter toggles the bit of its length
    assert parity(u + [a])[0] == parity(u)[0] ^ 1 << a.q - a.p


def test_pure_diagram_is_is_pure_and_diagram_of(rng):
    for _ in range(200):
        u = random_cactus_word(rng, rng.randrange(2, 10), rng.randrange(0, 30))
        for w in (u, u * inverse_word(u), u * u):
            assert pure_diagram(w) == (diagram_of(w) if is_pure(w) else None)


def test_equal_in_Jn_arity_mismatch():
    with pytest.raises(ValueError):
        equal_in_Jn(parse_cactus_word("s1,2", 3), parse_cactus_word("s1,2", 4))
