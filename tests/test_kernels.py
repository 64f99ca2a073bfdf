"""The kernels against brute force and the greedy references."""

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracle
from cactus_groups import KERNEL_BACKEND, _kernels_py, kernels
from cactus_groups.words import DiagramWord
from helpers import (
    _blocks,
    random_diagram_word,
    reference_append_slot,
    reference_is_lean,
    reference_lean_reduce,
    reference_lex_least,
)

# One parameter, whose id names the backend in every test id ("[python-...]").
@pytest.fixture(params=[_kernels_py], ids=["python"])
def kern(request):
    return request.param


def test_selected_backend_is_exported():
    assert KERNEL_BACKEND == "python"
    exported = {name for name in vars(kernels) if not name.startswith("_")}
    assert exported == {"append_slot", "lean_reduce"}
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
    assert (not _blocks(a, b)) is expected
    # a b a reduces to b exactly when a crosses b to cancel its twin
    assert (kern.lean_reduce((a, b, a)) == (b,)) is expected


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
    assert reference_is_lean(word) is expected
    assert (len(kern.lean_reduce(word)) == len(word)) is expected


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
    assert reference_lex_least(word) == expected
    # every example is lean, so its normal form is its least word
    assert kern.lean_reduce(word) == expected


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
        # a word is lean exactly when lean reduction cancels nothing
        assert (len(kern.lean_reduce(word)) == len(word)) is reference_is_lean(word)


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
    assert reference_lex_least(word) == least_of_class(word)


@given(words_strategy, st.integers(1, 15))
def test_append_slot_inserts_into_the_least_word(word, letter):
    canonical = reference_lex_least(word)
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


def plain_fold(word):
    """The lean word by `reference_append_slot` alone, central letters
    appended where they stand like any other."""
    out = []
    for a in word:
        slot = reference_append_slot(out, a)
        if slot < 0:
            del out[~slot]
        else:
            out.insert(slot, a)
    return tuple(out)


class Letter(int):
    """A letter of a word that logs each ``&`` it takes with another: the
    position of the later one, which is being placed, and the value of the
    earlier one, which it meets in the prefix."""

    def __new__(cls, value, position, log):
        self = super().__new__(cls, value)
        self.position, self.log = position, log
        return self

    def __and__(self, other):
        if type(other) is Letter:
            placed, met = sorted((self, other), key=lambda x: x.position, reverse=True)
            self.log.append((placed.position, int(met)))
        return int(self) & int(other)


def meetings(word):
    """``lean_reduce(word)``, and for each position of the word the prefix
    letters that the letter there met, in order."""
    log = []
    result = _kernels_py.lean_reduce(tuple(Letter(a, i, log) for i, a in enumerate(word)))
    met = [[] for _ in word]
    for i, b in log:
        met[i].append(b)
    return result, met


def union(word):
    top = 0
    for a in word:
        top |= a
    return top


def is_central(a, top):
    return a & (a - 1) == 0 or a == top


@given(
    st.one_of(
        central_heavy_words(),
        # central letters only: singletons, and the union of the word
        st.lists(st.sampled_from([1, 2, 4, 8, 16, 31]), max_size=30).map(lambda w: (31, *w)),
        # the union chord is itself a singleton
        st.integers(0, 5).map(lambda k: (4,) * k),
    )
)
@example((4, 4, 4))
@example((31, 16, 1, 8, 2, 4))
def test_lean_reduce_places_central_chords_without_a_scan(word):
    top = union(word)
    result, met = meetings(word)
    assert not [(a, seen) for a, seen in zip(word, met) if is_central(a, top) and seen]
    assert result == reference_lex_least(plain_fold(word))


@st.composite
def peek_words(draw):
    """Words on n <= 5 strands or inside UNION_235, made of runs of three
    kinds: crossing chains, where each letter crosses the one before;
    immediate squares ``a a``; and nested runs, where each letter lies
    inside or around the one before."""
    span = draw(st.sampled_from([3, 7, 15, 31, UNION_235]))
    alphabet = submasks(span)
    word = []
    for _ in range(draw(st.integers(0, 8))):
        a = draw(st.sampled_from(alphabet))
        kind = draw(st.sampled_from(["crossing", "square", "nested"]))
        if kind == "square":
            word += [a, a]
            continue
        word.append(a)
        for _ in range(draw(st.integers(0, 4))):
            if kind == "crossing":
                nxt = [b for b in alphabet if _blocks(a, b)]
            else:
                nxt = [b for b in alphabet if b != a and (a & b == a or a & b == b)]
            if not nxt:
                break
            a = draw(st.sampled_from(nxt))
            word.append(a)
    return tuple(word)


def scan_meets(prefix, a):
    """The letters of the canonical ``prefix`` that a backward scan tests
    against ``a`` with ``&``, last first.  It stops at a letter that crosses
    ``a``, after that test, and at an equal one, told by ``==`` alone."""
    meets = []
    for b in reversed(prefix):
        if b == a:
            break
        meets.append(b)
        if _blocks(b, a):
            break
    return meets


@given(peek_words())
@example((7, 3, 10, 10, 5))
@example((3, 5, 5, 6, 6, 3))
def test_lean_reduce_scans_only_letters_that_commute_with_the_last(word):
    top = union(word)
    result, met = meetings(word)
    prefix = []  # the canonical word of the non-central letters so far
    for a, seen in zip(word, met):
        if is_central(a, top):
            continue
        # a letter settled by the last one meets at most that one; a scan
        # past the last letter meets each letter before it once
        assert seen == scan_meets(prefix, a), (prefix, a, seen)
        slot = reference_append_slot(prefix, a)
        if slot < 0:
            del prefix[~slot]
        else:
            prefix.insert(slot, a)
    assert result == reference_lex_least(plain_fold(word))


@st.composite
def two_block_words(draw):
    """Words at n <= 8 over two small alphabets whose letters commute across
    them: chords inside strands 1..k against chords on the strands past k,
    or against chords around strands 1..k.  A letter's scan crosses every
    run of the other alphabet before it."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    inner = (1 << k) - 1
    chords = submasks((1 << n) - 1)
    if draw(st.booleans()):
        other = [b for b in chords if b & inner == 0]
    else:
        other = [b for b in chords if b & inner == inner and b != inner]
    first, second = (
        draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=4))
        for alphabet in (submasks(inner), other)
    )
    return tuple(draw(st.lists(st.sampled_from(first) | st.sampled_from(second), max_size=60)))


@given(two_block_words())
@example((3, 12, 48, 3))  # cancels the third letter back
@example((12, 48, 3))  # inserts at index 0
@example((3, 12, 48, 192))  # appends after scanning the whole prefix
@example((6, 6, 3))  # places into an empty prefix, first and after a pop
def test_lean_reduce_scans_across_commuting_blocks(word):
    assert _kernels_py.lean_reduce(word) == reference_lex_least(plain_fold(word))


def test_the_fold_meets_about_one_prefix_letter_per_input_letter(rng):
    # A cost contract, counted rather than timed: on seeded random words the
    # scans meet at most 2 prefix letters per input letter (0.85-1.31 when set),
    # and four times the letters meet at most 4.5 times as many.
    for n in range(4, 9):
        met = {}
        for length in (1_000, 4_000):
            _, per_letter = meetings(random_diagram_word(rng, n, length).letters)
            met[length] = sum(map(len, per_letter))
            assert met[length] <= 2 * length, (n, length, met[length])
        assert met[4_000] <= 4.5 * met[1_000], (n, met)
