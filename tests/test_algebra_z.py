import pytest

from cactus_groups import kernels
from cactus_groups.algebra_f2 import f2_image
from cactus_groups.algebra_z import (
    ZSeries,
    homogeneous_component,
    tfn_separation,
    z_image,
    z_one,
)
from cactus_groups.certificates import RING_Z
from cactus_groups.words import DiagramWord, parse_diagram_word
from helpers import random_even_lean_word, random_even_word
from oracle import relation_neighbors
from ring_reference import generator_factor, z_add, z_inverse, z_multiply

A = 3  # t over strands {1,2}
B = 5  # t over strands {1,3}

ALT = "t{1,2} t{1,3} t{1,2} t{1,3}"


def dw(text, n=3):
    return parse_diagram_word(text, n)


def test_zseries_normalizes_on_construction():
    x = ZSeries(2, {(12, A): 1, (A, 12): 2})
    assert dict(x.coeffs) == {(A, 12): 3}
    assert dict(ZSeries(2, {(A,): 0}).coeffs) == {}
    with pytest.raises(ValueError):
        ZSeries(2, {(A, A, A): 1})
    with pytest.raises(ValueError):
        ZSeries(0, {})


def test_zseries_coefficient_canonicalizes_queries():
    x = ZSeries(2, {(A, 12): 5})
    assert x.coefficient((12, A)) == 5
    assert x.coefficient((A, 12)) == 5
    assert x.coefficient((A,)) == 0


def test_z_one_and_add():
    one = z_one(3)
    assert one.is_one()
    assert one.constant_term == 1
    x = ZSeries(3, {(): 1, (A,): 2})
    y = ZSeries(3, {(A,): -2})
    assert z_add(x, y) == z_one(3)
    with pytest.raises(ValueError):
        z_add(z_one(2), z_one(3))


def test_z_multiply_telescopes():
    x = ZSeries(2, {(): 1, (A,): 1})
    y = ZSeries(2, {(): 1, (A,): -1, (A, A): 1})
    assert z_multiply(x, y).is_one()


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
    assert pair.is_one()
    with pytest.raises(ValueError):
        generator_factor(A, "sometimes", 3)


def test_z_image_examples():
    assert z_image(dw(""), 3).is_one()
    for k in (1, 2, 5):
        assert z_image(dw("t{1,2} t{1,2}"), k).is_one()
    assert dict(z_image(dw(ALT), 2).coeffs) == {(): 1, (A, B): 1, (B, A): -1}


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
            if c % 2 == 1 and (m == () or kernels.is_lean(m))
        )
        assert f2_image(w, k).support == odd_reduced


def test_homogeneous_component():
    x = ZSeries(3, {(): 1, (A,): 2, (A, B): -3})
    assert homogeneous_component(x, 0) == {(): 1}
    assert homogeneous_component(x, 2) == {(A, B): -3}
    assert homogeneous_component(x, 3) == {}


def test_z_inverse(rng):
    for _ in range(30):
        k = rng.randrange(1, 5)
        w = random_even_word(rng, 3, rng.randrange(0, 4))
        x = z_image(w, k)
        assert z_multiply(x, z_inverse(x)).is_one()
    minus = ZSeries(2, {(): -1, (A,): 3})
    assert z_multiply(minus, z_inverse(minus)).is_one()
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
    assert z_image(dw(ALT), 4).coefficient((A, B, A, B)) == 1


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
        canonical = kernels.lex_least(u.letters)
        assert z_image(u, d).coefficient(canonical) == (-1) ** (d // 2)


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
            got = homogeneous_component(z_image(repeated, cert.degree), cert.degree)
            assert got == {mono: m * c for mono, c in want.items()}
