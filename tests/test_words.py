import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cactus_groups import words
from cactus_groups.algebra_f2 import F2Series
from cactus_groups.algebra_z import ZSeries
from cactus_groups.words import (
    MAX_STRAND,
    CactusGenerator,
    CactusWord,
    DiagramWord,
    ParseError,
    chord_mask,
    chord_members,
    format_cactus_word,
    format_chord,
    format_diagram_word,
    parse_cactus_word,
    parse_diagram_word,
)
from helpers import (
    peak_bytes,
    random_cactus_word,
    random_diagram_word,
    reference_parse_cactus_word,
    reference_parse_diagram_word,
)


def test_parse_cactus_word_basic():
    w = parse_cactus_word("s1,2 s1,3", 3)
    assert w.n == 3
    assert w.letters == (CactusGenerator(1, 2), CactusGenerator(1, 3))
    assert len(w) == 2


def test_parse_cactus_word_empty_is_identity():
    assert parse_cactus_word("", 5).letters == ()
    assert parse_cactus_word("   \t ", 5).letters == ()


def test_parse_cactus_word_single_letter():
    assert parse_cactus_word("s3,7", 7).letters == (CactusGenerator(3, 7),)


def test_parse_cactus_word_whitespace_insensitive():
    assert parse_cactus_word(" s1,2\t\ts2,3 ", 3) == parse_cactus_word("s1,2 s2,3", 3)


def test_parse_diagram_word_basic():
    w = parse_diagram_word("t{1,2} t{1,2,3}", 3)
    assert w.letters == (0b011, 0b111)
    assert parse_diagram_word("t{1,3} t{2}", 3).letters == (5, 2)


def test_parse_diagram_word_empty_is_identity():
    assert parse_diagram_word("", 3).letters == ()


@pytest.mark.parametrize(
    "text, n, parse, fragment, token, position",
    [
        ("s3,1", 3, parse_cactus_word, "p must be less than q", "s3,1", 1),
        ("s1,2 s2,2", 3, parse_cactus_word, "p must be less than q", "s2,2", 2),
        ("s0,2", 3, parse_cactus_word, "p must be at least 1", "s0,2", 1),
        ("s1,4", 3, parse_cactus_word, "q exceeds arity 3", "s1,4", 1),
        ("x1,2", 3, parse_cactus_word, "expected s<p>,<q>", "x1,2", 1),
        ("s1,2s1,3", 3, parse_cactus_word, "expected s<p>,<q>", "s1,2s1,3", 1),
        ("t{}", 3, parse_diagram_word, "expected t{a,b,...}", "t{}", 1),
        ("t{2,1}", 3, parse_diagram_word, "must be strictly ascending", "t{2,1}", 1),
        ("t{1,1}", 3, parse_diagram_word, "must be strictly ascending", "t{1,1}", 1),
        ("t{0,1}", 3, parse_diagram_word, "numbered from 1", "t{0,1}", 1),
        ("t{1,5}", 3, parse_diagram_word, "strand exceeds arity 3", "t{1,5}", 1),
        ("t{1} u{2}", 3, parse_diagram_word, "expected t{a,b,...}", "u{2}", 2),
    ],
)
def test_parse_errors_carry_token_and_position(text, n, parse, fragment, token, position):
    with pytest.raises(ParseError) as exc:
        parse(text, n)
    assert fragment in str(exc.value)
    assert f"token {position}" in str(exc.value)
    assert exc.value.token == token
    assert exc.value.position == position


@pytest.mark.parametrize("parse, text", [(parse_cactus_word, "s9,1"), (parse_diagram_word, "t{9}")])
@pytest.mark.parametrize("n", [0, -3])
def test_arity_is_checked_before_any_token(parse, text, n):
    with pytest.raises(ValueError) as exc:
        parse(text, n)
    assert not isinstance(exc.value, ParseError)
    assert str(exc.value) == f"arity must be positive, got {n}"


# Pools with repeats, two spellings of one letter, and malformed tokens.
DIAGRAM_TOKENS = [
    "t{1}", "t{2}", "t{1,2}", "t{01,2}", "t{1,02}", "t{2,3}", "t{1,2,3}", "t{3,4}",
    "t{2,1}", "t{1,1}", "t{0}", "t{}", "t{1,9}", "u{1}", "t{1,2",
]
CACTUS_TOKENS = [
    "s1,2", "s01,2", "s1,02", "s1,3", "s2,3", "s3,4",
    "s2,1", "s1,1", "s0,2", "s1,9", "x1,2", "s1,2s1,3",
]
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\n"])


def parse_outcome(parse, text, n):
    try:
        return parse(text, n)
    except ParseError as exc:
        return str(exc), exc.token, exc.position


def spaced(tokens, seps):
    return "".join(t + sep for t, sep in zip(tokens, seps))


@given(
    st.lists(st.sampled_from(DIAGRAM_TOKENS), max_size=20),
    st.lists(SEPARATORS, min_size=20, max_size=20),
    st.integers(1, 5),
)
@example(["t{01,2}", "t{1,2}", "t{01,2}"], [" "] * 20, 3)
@example(["t{1,2}", "t{2,3}", "t{1,2}", "t{2,1}", "t{1,2}", "t{2,1}"], [" "] * 20, 3)
def test_parse_diagram_word_matches_token_by_token(tokens, seps, n):
    text = spaced(tokens, seps)
    expected = parse_outcome(reference_parse_diagram_word, text, n)
    assert parse_outcome(parse_diagram_word, text, n) == expected


@given(
    st.lists(st.sampled_from(CACTUS_TOKENS), max_size=20),
    st.lists(SEPARATORS, min_size=20, max_size=20),
    st.integers(1, 5),
)
@example(["s01,2", "s1,2", "s1,02"], [" "] * 20, 3)
@example(["s1,2", "s2,3", "s1,2", "s0,2", "s2,3", "s0,2"], [" "] * 20, 3)
def test_parse_cactus_word_matches_token_by_token(tokens, seps, n):
    text = spaced(tokens, seps)
    expected = parse_outcome(reference_parse_cactus_word, text, n)
    assert parse_outcome(parse_cactus_word, text, n) == expected


# A bad token repeated before and after a different bad one, and bad tokens
# first met past position 1,000 after many repeats of good ones.
@pytest.mark.parametrize(
    "parse, reference, tokens",
    [
        (
            parse_diagram_word,
            reference_parse_diagram_word,
            ["t{1}", "t{2,1}", "t{1}", "t{0}", "t{2,1}", "t{0}"],
        ),
        (
            parse_diagram_word,
            reference_parse_diagram_word,
            ["t{0}", "t{1,2}", "t{1,9}", "t{1,2}", "t{0}", "t{1,9}"],
        ),
        (
            parse_diagram_word,
            reference_parse_diagram_word,
            ["t{1,2}", "t{2,3}", "t{01,2}"] * 400 + ["t{1,9}", "t{1}", "t{2,1}", "t{1,9}"],
        ),
        (
            parse_cactus_word,
            reference_parse_cactus_word,
            ["s1,2", "s2,1", "s1,2", "s0,2", "s2,1", "s0,2"],
        ),
        (
            parse_cactus_word,
            reference_parse_cactus_word,
            ["s1,9", "s2,3", "x1,2", "s1,9", "x1,2"],
        ),
        (
            parse_cactus_word,
            reference_parse_cactus_word,
            ["s1,2", "s2,3", "s01,2"] * 400 + ["s1,9", "s1,3", "s0,2", "s1,9"],
        ),
    ],
)
def test_first_bad_token_matches_token_by_token(parse, reference, tokens):
    text = " ".join(tokens)
    expected = parse_outcome(reference, text, 3)
    assert isinstance(expected, tuple)
    assert parse_outcome(parse, text, 3) == expected


def test_parse_error_is_value_error():
    assert issubclass(ParseError, ValueError)


def test_cactus_round_trip(rng):
    for _ in range(50):
        w = random_cactus_word(rng, rng.randrange(2, 7), rng.randrange(0, 8))
        assert parse_cactus_word(format_cactus_word(w), w.n) == w


def test_diagram_round_trip(rng):
    for _ in range(50):
        w = random_diagram_word(rng, rng.randrange(1, 6), rng.randrange(0, 8))
        assert parse_diagram_word(format_diagram_word(w), w.n) == w


def test_format_examples():
    assert format_cactus_word(CactusWord(3, ())) == ""
    assert format_cactus_word(parse_cactus_word("s1,3 s2,3", 3)) == "s1,3 s2,3"
    assert format_diagram_word(DiagramWord(3, ())) == ""
    assert format_diagram_word(DiagramWord(3, (5, 2))) == "t{1,3} t{2}"
    assert format_chord(5) == "t{1,3}"
    assert format_chord(0b1011) == "t{1,2,4}"


def test_chord_mask_and_members():
    assert chord_mask([1, 3], 3) == 5
    assert chord_mask((2,), 3) == 2
    assert chord_members(0b1011) == (1, 2, 4)
    for mask in range(1, 32):
        assert chord_mask(chord_members(mask), 5) == mask


def test_chord_mask_rejects_bad_input():
    with pytest.raises(ValueError):
        chord_mask([], 3)
    with pytest.raises(ValueError):
        chord_mask([4], 3)
    with pytest.raises(ValueError):
        chord_mask([0], 3)


@pytest.mark.parametrize("mask", [-1, -6])
@pytest.mark.parametrize("spell", [chord_members, format_chord])
def test_negative_masks_are_refused(spell, mask):
    with pytest.raises(ValueError, match="nonnegative"):
        spell(mask)


def test_word_validation():
    with pytest.raises(ValueError):
        CactusWord(0, ())
    with pytest.raises(ValueError):
        CactusWord(3, (CactusGenerator(2, 2),))
    with pytest.raises(ValueError):
        CactusWord(3, (CactusGenerator(1, 4),))
    with pytest.raises(ValueError):
        DiagramWord(0, ())
    with pytest.raises(ValueError):
        DiagramWord(3, (8,))
    with pytest.raises(ValueError):
        DiagramWord(3, (0,))
    with pytest.raises(ValueError):
        DiagramWord(3, (-1,))
    assert DiagramWord(3, (7,)).letters == (7,)


def test_word_validation_names_the_first_bad_letter():
    with pytest.raises(ValueError) as exc:
        CactusWord(3, (CactusGenerator(1, 2), CactusGenerator(2, 2), CactusGenerator(1, 5)))
    assert str(exc.value) == "invalid generator s_{2,2} for arity 3"
    # neither the least nor the largest bad chord, but the first
    with pytest.raises(ValueError) as exc:
        DiagramWord(3, (1, 8, 16, 0, 8))
    assert str(exc.value) == "chord 0b1000 out of range for arity 3"


# Strand numbers past the bound are refused while the word is still text:
# no walk over 1..q and no mask of q bits is built.
@pytest.mark.parametrize(
    "parse, text, n, message",
    [
        (parse_cactus_word, "s1,2 s1,100000", 100000, "q exceeds the strand bound 4096"),
        (parse_cactus_word, "s1,2 s2,10000000000", 10**10, "q exceeds the strand bound 4096"),
        (parse_cactus_word, "s1,2 s4096,4097", 4097, "q exceeds the strand bound 4096"),
        (parse_diagram_word, "t{1} t{1,100000}", 100000, "strand exceeds the bound 4096"),
        (parse_diagram_word, "t{1} t{4097}", 10**10, "strand exceeds the bound 4096"),
    ],
)
def test_strand_numbers_are_bounded(parse, text, n, message):
    token = text.split()[1]
    outcome = []
    assert peak_bytes(lambda: outcome.append(parse_outcome(parse, text, n))) < 1 << 16
    assert outcome == [(f"token 2 ({token!r}): {message}", token, 2)]


def test_strand_bound_is_inclusive():
    assert MAX_STRAND == 4096
    assert parse_cactus_word("s1,4096", 5000).letters == (CactusGenerator(1, 4096),)
    assert parse_diagram_word("t{4096}", 5000).letters == (1 << 4095,)
    assert chord_mask([4096], 5000) == 1 << 4095
    with pytest.raises(ValueError) as exc:
        chord_mask([1, 100000], 100000)
    assert str(exc.value) == "strand 100000 exceeds the bound 4096"


def test_chord_range_check_does_not_grow_with_the_arity():
    # the check shifts each chord instead of building 1 << n
    assert peak_bytes(lambda: DiagramWord(10**7, (1,))) < 1 << 20


def test_word_concatenation():
    u = parse_cactus_word("s1,2", 3)
    v = parse_cactus_word("s1,3", 3)
    assert (u * v).letters == u.letters + v.letters
    a = parse_diagram_word("t{1,2}", 3)
    b = parse_diagram_word("t{2,3}", 3)
    assert (a * b).letters == (3, 6)
    with pytest.raises(ValueError):
        u * parse_cactus_word("s1,2", 4)
    with pytest.raises(ValueError):
        a * parse_diagram_word("t{1,2}", 4)


def test_words_are_immutable_and_hashable():
    w = parse_diagram_word("t{1,2}", 3)
    assert {w: 1}[parse_diagram_word("t{1,2}", 3)] == 1
    with pytest.raises(AttributeError):
        w.letters = ()


# The word and series types keep the behaviour of a frozen dataclass,
# without the dataclasses module: (type, fields, the dataclass repr).
VALUE_TYPES = [
    (
        CactusWord,
        {"n": 3, "letters": (CactusGenerator(1, 2),)},
        "CactusWord(n=3, letters=(CactusGenerator(p=1, q=2),))",
    ),
    (DiagramWord, {"n": 3, "letters": (3,)}, "DiagramWord(n=3, letters=(3,))"),
    (
        F2Series,
        {"degree": 2, "support": frozenset({(3, 5)})},
        "F2Series(degree=2, support=frozenset({(3, 5)}))",
    ),
    (
        ZSeries,
        {"degree": 2, "coeffs": {(): 1, (3, 3): -1}},
        "ZSeries(degree=2, coeffs=mappingproxy({(): 1, (3, 3): -1}))",
    ),
]


@pytest.mark.parametrize(
    "cls, fields, text", VALUE_TYPES, ids=[cls.__name__ for cls, _, _ in VALUE_TYPES]
)
def test_value_types_behave_as_frozen_dataclasses(cls, fields, text):
    value = cls(*fields.values())
    same = cls(**fields)
    assert value == same and not value != same
    assert repr(value) == repr(same) == text
    assert list(vars(value)) == list(fields)
    if cls is ZSeries:
        # coeffs is kept as a mappingproxy, which does not hash
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same) and {value: 1}[same] == 1
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert vars(value) == vars(same)
    # only instances of the same type are equal
    assert value != object() and value != tuple(fields.values())
    assert DiagramWord(3, ()) != CactusWord(3, ())


@pytest.mark.parametrize(
    "cls, args, kwargs, error",
    [
        (CactusWord, (), {"n": 0, "letters": ()}, "arity must be positive"),
        (CactusWord, (), {"n": 2, "letters": (CactusGenerator(1, 3),)}, "invalid generator"),
        (DiagramWord, (), {"letters": (8,), "n": 3}, "out of range"),
        (F2Series, (0, frozenset()), {}, "truncation degree must be"),
        (F2Series, (1, frozenset({(3, 5)})), {}, "exceeds truncation degree"),
        (ZSeries, (), {"degree": 0, "coeffs": {}}, "truncation degree must be"),
        (DiagramWord, (3,), {}, None),
        (DiagramWord, (3, (), 3), {}, None),
        (DiagramWord, (3,), {"n": 3}, None),
        (DiagramWord, (3,), {"chords": ()}, None),
    ],
    ids=[
        "cactus-arity", "cactus-generator", "diagram-chord", "f2-degree",
        "f2-monomial", "z-degree", "missing", "extra", "repeated", "unknown",
    ],
)
def test_value_type_constructors_check_their_fields(cls, args, kwargs, error):
    """Keyword construction runs the checks of `test_word_validation`; a
    bad value raises `ValueError`, bad arguments `TypeError` (None)."""
    with pytest.raises(ValueError if error else TypeError, match=error):
        cls(*args, **kwargs)


# The spelling tables: every word of printed spellings at a tabled arity
# parses through one lookup per token, and the answer must be the one the
# validating path gives.
TABLE_ARITY = words._TABLE_ARITY


def validating_outcome(parse, text, n):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "_TABLE_ARITY", 0)
        return parse_outcome(parse, text, n)


@st.composite
def printed_word(draw):
    n = draw(st.integers(1, TABLE_ARITY))
    if draw(st.booleans()) or n == 1:
        chords = st.sets(st.integers(1, n), min_size=1).map(lambda s: chord_mask(s, n))
        w = DiagramWord(n, tuple(draw(st.lists(chords, max_size=30))))
        return parse_diagram_word, format_diagram_word(w), n, w
    pairs = st.integers(2, n).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q)))
    w = CactusWord(n, tuple(CactusGenerator(*g) for g in draw(st.lists(pairs, max_size=30))))
    return parse_cactus_word, format_cactus_word(w), n, w


@given(printed_word())
def test_tables_parse_printed_words_as_the_validating_path_does(case):
    parse, text, n, w = case
    assert parse_outcome(parse, text, n) == w
    assert validating_outcome(parse, text, n) == w


@pytest.mark.parametrize(
    "parse, good, bad, message",
    [
        (
            parse_diagram_word,
            ["t{1,2}", "t{2,3}", "t{1,2,3}"],
            "t{2,1}",
            "members must be strictly ascending",
        ),
        (parse_diagram_word, ["t{1,2}", "t{3}"], "t{1,4}", "strand exceeds arity 3"),
        (parse_cactus_word, ["s1,2", "s2,3", "s1,3"], "s0,2", "p must be at least 1"),
        (parse_cactus_word, ["s1,2", "s2,3"], "s1,2s1,3", "expected s<p>,<q>"),
    ],
)
def test_bad_token_after_hundreds_of_tabled_ones(parse, good, bad, message):
    tokens = good * 200 + [bad] + good
    position = len(good) * 200 + 1
    expected = (f"token {position} ({bad!r}): {message}", bad, position)
    text = " ".join(tokens)
    assert parse_outcome(parse, text, 3) == expected
    assert validating_outcome(parse, text, 3) == expected
    reference = {
        parse_diagram_word: reference_parse_diagram_word,
        parse_cactus_word: reference_parse_cactus_word,
    }[parse]
    assert parse_outcome(reference, text, 3) == expected


def test_unprinted_spellings_still_parse():
    # leading zeros and non-ASCII digits miss the tables and are validated
    assert parse_diagram_word("t{1,2} t{01,2} t{\u0661,\u0662} t{1,2}", 3).letters == (3, 3, 3, 3)
    g = CactusGenerator(1, 2)
    assert parse_cactus_word("s1,2 s01,2 s1,02 s\u0661,\u0662", 3).letters == (g, g, g, g)


def test_tables_are_per_arity():
    assert parse_diagram_word("t{1,9}", 9).letters == (0b100000001,)
    assert parse_cactus_word("s1,9", 9).letters == (CactusGenerator(1, 9),)
    assert parse_outcome(parse_diagram_word, "t{1} t{1,9}", 8) == (
        "token 2 ('t{1,9}'): strand exceeds arity 8", "t{1,9}", 2
    )
    assert parse_outcome(parse_cactus_word, "s1,2 s1,9", 8) == (
        "token 2 ('s1,9'): q exceeds arity 8", "s1,9", 2
    )
    # the chord table never answers for the cactus grammar, nor the reverse
    assert parse_outcome(parse_diagram_word, "t{1} s1,2", 3)[2] == 2
    assert parse_outcome(parse_cactus_word, "s1,2 t{1}", 3)[2] == 2


@pytest.mark.parametrize("n", [TABLE_ARITY + 1, TABLE_ARITY + 5])
def test_arities_past_the_tables_parse_as_before(n):
    text = f"t{{1,{n}}} t{{2}} t{{1,{n}}}"
    assert parse_diagram_word(text, n) == reference_parse_diagram_word(text, n)
    assert parse_outcome(parse_diagram_word, text, n - 1) == parse_outcome(
        reference_parse_diagram_word, text, n - 1
    )
    text = f"s1,{n} s2,3 s1,{n}"
    assert parse_cactus_word(text, n) == reference_parse_cactus_word(text, n)
    assert parse_outcome(parse_cactus_word, text, n - 1) == parse_outcome(
        reference_parse_cactus_word, text, n - 1
    )


def test_tables_hold_exactly_the_printed_spellings_in_bounded_memory():
    tables = (
        words._chord_table,
        words._generator_table,
        words._chord_spellings,
        words._generator_spellings,
    )
    for table in tables:
        table.cache_clear()

    def build():
        for n in range(1, TABLE_ARITY + 1):
            for table in tables:
                table(n)

    assert peak_bytes(build) < 1 << 19
    for n in range(1, TABLE_ARITY + 1):
        chords = words._chord_table(n)
        assert len(chords) == 2**n - 1
        assert all(format_chord(mask) == token for token, mask in chords.items())
        generators = words._generator_table(n)
        assert len(generators) == n * (n - 1) // 2
        assert all(
            format_cactus_word(CactusWord(n, (g,))) == token for token, g in generators.items()
        )


# Printing looks spellings up in the inverted tables of the word's arity;
# past the tables it spells each letter from its strand members.
def spelled_chord(mask):
    return "t{" + ",".join(str(i) for i in chord_members(mask)) + "}"


def test_tables_print_every_letter_as_its_members_spell_it():
    for n in range(1, TABLE_ARITY + 1):
        masks = tuple(range(1, 1 << n))
        expected = " ".join(map(spelled_chord, masks))
        assert format_diagram_word(DiagramWord(n, masks)) == expected
        gens = tuple(CactusGenerator(p, q) for q in range(2, n + 1) for p in range(1, q))
        expected = " ".join(f"s{g.p},{g.q}" for g in gens)
        assert format_cactus_word(CactusWord(n, gens)) == expected


@pytest.mark.parametrize("n", [TABLE_ARITY + 1, 64])
def test_arities_past_the_tables_print_from_the_members(monkeypatch, n):
    def no_table(n):
        raise AssertionError(f"table looked up for arity {n}")

    monkeypatch.setattr(words, "_chord_spellings", no_table)
    monkeypatch.setattr(words, "_generator_spellings", no_table)
    top = 1 << (n - 1)
    masks = (1, 1 << TABLE_ARITY, top | 5, (1 << n) - 1, 3)
    assert format_diagram_word(DiagramWord(n, masks)) == " ".join(map(spelled_chord, masks))
    gens = (CactusGenerator(1, 2), CactusGenerator(3, n), CactusGenerator(TABLE_ARITY, n))
    text = f"s1,2 s3,{n} s{TABLE_ARITY},{n}"
    assert format_cactus_word(CactusWord(n, gens)) == text


def test_generators_with_strands_that_are_not_ints_print_as_built():
    w = CactusWord(3, (CactusGenerator(1.5, 2), CactusGenerator(1, 3)))
    assert format_cactus_word(w) == "s1.5,2 s1,3"


def test_only_table_parsed_words_skip_the_constructor_check(monkeypatch):
    checked = []
    for cls in (CactusWord, DiagramWord):
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda w, check=check: checked.append(w) or check(w))
    tabled = [parse_cactus_word("s1,2 s2,3", 3), parse_diagram_word("t{1,2} t{3}", 3)]
    assert checked == []
    built = [
        CactusWord(3, (CactusGenerator(1, 2), CactusGenerator(2, 3))),
        DiagramWord(3, (3, 4)),
    ]
    # the parser sets every field the constructor would
    assert [vars(w) for w in tabled] == [vars(w) for w in built]
    checked.clear()
    validated = [
        parse_cactus_word("s01,2", 3),
        parse_diagram_word("t{01,2}", 3),
        parse_diagram_word("t{1,12}", TABLE_ARITY + 2),
    ]
    assert checked == validated
