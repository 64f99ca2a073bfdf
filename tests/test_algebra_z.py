import pytest
from hypothesis import given
from hypothesis import strategies as st

from cactus_groups.algebra_f2 import f2_image
from cactus_groups.algebra_z import ZSeries, tfn_separation, z_image
from cactus_groups.certificates import RING_Z
from cactus_groups.diagram_group import delta
from cactus_groups.words import DiagramWord, parse_diagram_word
from helpers import (
    random_even_lean_word,
    random_even_word,
    reference_is_lean,
    reference_lex_least,
)
from oracle import relation_neighbors
from ring_reference import (
    generator_factor,
    z_add,
    z_constant_term,
    z_homogeneous_component,
    z_inverse,
    z_is_one,
    z_multiply,
    z_one,
)

A = 3  # t over strands {1,2}
B = 5  # t over strands {1,3}

ALT = "t{1,2} t{1,3} t{1,2} t{1,3}"


def dw(text, n=3):
    return parse_diagram_word(text, n)


def test_zseries_keeps_its_terms_read_only():
    terms = {(A, 12): 3}
    x = ZSeries(2, terms)
    assert x.coeffs == terms and x.coeffs is not terms
    with pytest.raises(TypeError):
        x.coeffs[(A,)] = 1
    with pytest.raises(ValueError):
        ZSeries(0, {})
    for degree in (1.5, True, None):
        with pytest.raises(ValueError, match="truncation degree must be an int, got"):
            ZSeries(degree, {})


def test_z_one_and_add():
    one = z_one(3)
    assert z_is_one(one)
    assert z_constant_term(one) == 1
    x = ZSeries(3, {(): 1, (A,): 2})
    y = ZSeries(3, {(A,): -2})
    assert z_add(x, y) == z_one(3)
    with pytest.raises(ValueError):
        z_add(z_one(2), z_one(3))


def test_z_multiply_telescopes():
    x = ZSeries(2, {(): 1, (A,): 1})
    y = ZSeries(2, {(): 1, (A,): -1, (A, A): 1})
    assert z_is_one(z_multiply(x, y))


def test_z_multiply_unit():
    x = ZSeries(3, {(): 1, (A,): 4, (A, B): -7})
    assert z_multiply(z_one(3), x) == x
    assert z_multiply(x, z_one(3)) == x


def test_z_multiply_four_factor_expansion():
    k = 2
    fac = [
        generator_factor(A, "odd", k),
        generator_factor(B, "odd", k),
        generator_factor(A, "even", k),
        generator_factor(B, "even", k),
    ]
    prod = z_one(k)
    for f in fac:
        prod = z_multiply(prod, f)
    assert dict(prod.coeffs) == {(): 1, (A, B): 1, (B, A): -1}


def test_z_multiply_degree_mismatch():
    with pytest.raises(ValueError):
        z_multiply(z_one(2), z_one(3))


def test_generator_factor_examples():
    assert dict(generator_factor(A, "odd", 5).coeffs) == {(): 1, (A,): 1}
    assert dict(generator_factor(A, "even", 3).coeffs) == {
        (): 1,
        (A,): -1,
        (A, A): 1,
        (A, A, A): -1,
    }
    pair = z_multiply(generator_factor(A, "odd", 3), generator_factor(A, "even", 3))
    assert z_is_one(pair)
    with pytest.raises(ValueError):
        generator_factor(A, "sometimes", 3)


def test_z_image_examples():
    assert z_is_one(z_image(dw(""), 3))
    for k in (1, 2, 5):
        assert z_is_one(z_image(dw("t{1,2} t{1,2}"), k))
    assert dict(z_image(dw(ALT), 2).coeffs) == {(): 1, (A, B): 1, (B, A): -1}
    # refused before the occurrence pass, which would refuse the odd word
    for word in ("t{1,2} t{1,2}", "t{1,2,3}"):
        for degree in (0, -1):
            with pytest.raises(ValueError, match="truncation degree must be at least 1"):
                z_image(dw(word), degree)
        # a bool is an int, and 2.0 compares like one: the type decides
        for degree in (2.5, 2.0, True, "3", None):
            with pytest.raises(ValueError, match="truncation degree must be an int, got"):
                z_image(dw(word), degree)


def test_z_image_makes_a_counted_number_of_appends(append_calls):
    # one append per source term and letter, wherever the letter lands and
    # however many powers of an even occurrence it grows
    text = "t{1,2,3} t{1,2,4} t{1,3} t{2,3,4} t{1,2,4} t{1,3} t{2,3,4} t{1,2,3}"
    assert len(z_image(dw(text, 4), 8).coeffs) == 1945
    assert len(append_calls) == 851


def test_z_image_rejects_odd_parity():
    with pytest.raises(ValueError):
        z_image(dw("t{1,2,3}"), 2)
    with pytest.raises(ValueError):
        z_image(dw("t{1,2} t{1,2} t{1,3}"), 2)


def test_z_image_is_relation_invariant(rng):
    for _ in range(40):
        n = rng.choice([3, 4])
        k = rng.randrange(1, 5)
        w = random_even_word(rng, n, rng.randrange(0, 4))
        base = z_image(w, k)
        for moved in relation_neighbors(w.letters, n):
            assert z_image(DiagramWord(n, moved), k) == base


def test_z_image_multiplicative_on_even_concatenations(rng):
    for _ in range(40):
        n = rng.choice([3, 4])
        k = rng.randrange(1, 4)
        u = random_even_word(rng, n, rng.randrange(0, 3))
        v = random_even_word(rng, n, rng.randrange(0, 3))
        assert z_image(u * v, k) == z_multiply(z_image(u, k), z_image(v, k))


def test_cross_ring_consistency(rng):
    # reducing coefficients mod 2 and dropping non-reduced monomials gives
    # the mod-2 image
    for _ in range(60):
        n = rng.choice([3, 4])
        k = rng.randrange(1, 5)
        w = random_even_word(rng, n, rng.randrange(0, 4))
        z = z_image(w, k)
        odd_reduced = frozenset(
            m
            for m, c in z.coeffs.items()
            if c % 2 == 1 and reference_is_lean(m)
        )
        assert f2_image(w, k).support == odd_reduced


def test_homogeneous_component():
    x = ZSeries(3, {(): 1, (A,): 2, (A, B): -3})
    assert z_homogeneous_component(x, 0) == {(): 1}
    assert z_homogeneous_component(x, 2) == {(A, B): -3}
    assert z_homogeneous_component(x, 3) == {}


def test_z_inverse(rng):
    for _ in range(30):
        k = rng.randrange(1, 5)
        w = random_even_word(rng, 3, rng.randrange(0, 4))
        x = z_image(w, k)
        assert z_is_one(z_multiply(x, z_inverse(x)))
    minus = ZSeries(2, {(): -1, (A,): 3})
    assert z_is_one(z_multiply(minus, z_inverse(minus)))
    with pytest.raises(ValueError):
        z_inverse(ZSeries(2, {(): 2}))
    with pytest.raises(ValueError):
        z_inverse(ZSeries(2, {(A,): 1}))


def test_tfn_separation_alternating_word():
    cert = tfn_separation(dw(ALT))
    assert cert.ring == RING_Z
    assert cert.degree == 2
    assert dict(cert.witness) == {(A, B): 1, (B, A): -1}


def test_tfn_separation_top_coefficient_sign():
    assert z_image(dw(ALT), 4).coeffs[(A, B, A, B)] == 1


def test_tfn_separation_trivial_and_parity_errors():
    assert tfn_separation(dw("t{1,2} t{1,2}")) is None
    assert tfn_separation(dw("")) is None
    with pytest.raises(ValueError):
        tfn_separation(dw("t{1,2,3}"))


def test_coefficient_law(rng):
    # the top coefficient of an even lean word of length d is (-1)^(d/2)
    for _ in range(25):
        n = rng.choice([3, 4])
        pairs = rng.randrange(2, 4)
        u = random_even_lean_word(rng, n, pairs)
        d = len(u)
        canonical = reference_lex_least(u.letters)
        assert z_image(u, d).coeffs.get(canonical) == (-1) ** (d // 2)


def test_witness_scaling(rng):
    # repeating the group element m times scales the lowest witness by m
    for _ in range(15):
        n = rng.choice([3, 4])
        u = random_even_lean_word(rng, n, 2)
        cert = tfn_separation(u)
        assert cert is not None
        want = dict(cert.witness)
        for m in (2, 3, 4):
            repeated = DiagramWord(n, u.letters * m)
            got = z_homogeneous_component(z_image(repeated, cert.degree), cert.degree)
            assert got == {mono: m * c for mono, c in want.items()}


@st.composite
def pooled_diagram_words(draw):
    """Words at n <= 6 over a few chords, so each chord's count is even
    about as often as odd."""
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=3))
    return DiagramWord(n, tuple(draw(st.lists(st.sampled_from(pool), max_size=10))))


@given(pooled_diagram_words(), st.integers(1, 4))
def test_z_image_and_tfn_separation_refuse_exactly_the_odd_words(w, degree):
    if delta(w):
        for call in (lambda: z_image(w, degree), lambda: tfn_separation(w)):
            with pytest.raises(ValueError, match="outside the even diagram subgroup"):
                call()
    else:
        assert z_image(w, degree).degree == degree
        cert = tfn_separation(w)
        assert cert is None or cert.ring == RING_Z
