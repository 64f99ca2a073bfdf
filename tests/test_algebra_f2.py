import pytest

from cactus_groups import kernels
from cactus_groups.algebra_f2 import F2Series, f2_image, nilpotent_separation
from cactus_groups.certificates import RING_F2
from cactus_groups.words import parse_diagram_word
from helpers import (
    random_diagram_word,
    random_lean_word,
    reference_canonical_if_lean,
    reference_lex_least,
)
from ring_reference import (
    Special,
    f2_add,
    f2_constant_term,
    f2_homogeneous_component,
    f2_inverse,
    f2_is_one,
    f2_multiply,
    f2_one,
    monomial_multiply,
)

A = 3  # t over strands {1,2}
B = 5  # t over strands {1,3}


def dw(text, n=3):
    return parse_diagram_word(text, n)


def series(degree, *monomials):
    return F2Series(degree, frozenset(monomials))


def test_monomial_multiply_examples():
    assert monomial_multiply((A,), (A,), 4) is Special.ZERO
    assert monomial_multiply((A,), (B,), 4) == (A, B)
    assert monomial_multiply((A, 7), (A,), 4) is Special.ZERO
    assert monomial_multiply((A, B), (A, B), 3) is Special.OVERFLOW
    assert monomial_multiply((12,), (A,), 4) == (A, 12)
    assert monomial_multiply((), (A,), 4) == (A,)


def test_f2_series_basics():
    one = f2_one(3)
    assert f2_is_one(one)
    assert f2_constant_term(one) == 1
    x = series(3, (), (A,))
    assert not f2_is_one(x)
    assert f2_add(x, x).support == frozenset()
    assert f2_add(x, one).support == frozenset({(A,)})
    for degree in (1.5, True, None):
        with pytest.raises(ValueError, match="truncation degree must be an int, got"):
            F2Series(degree, ())


def test_f2_multiply_involution():
    x = series(3, (), (A,))
    assert f2_is_one(f2_multiply(x, x))


def test_f2_multiply_unit():
    x = series(3, (), (A,), (A, B))
    assert f2_multiply(f2_one(3), x) == x
    assert f2_multiply(x, f2_one(3)) == x


def test_f2_multiply_expansion():
    x = series(4, (), (A,), (B,), (A, B))
    sq = f2_multiply(x, x)
    assert sq.support == frozenset(
        {(), (A, B), (B, A), (B, A, B), (A, B, A), (A, B, A, B)}
    )


def test_f2_multiply_degree_mismatch():
    with pytest.raises(ValueError):
        f2_multiply(f2_one(2), f2_one(3))


def test_f2_image_examples():
    assert f2_is_one(f2_image(dw(""), 3))
    assert f2_is_one(f2_image(dw("t{1,2} t{1,2}"), 5))
    assert f2_image(dw("t{1,2} t{1,3} t{1,2} t{1,3}"), 2).support == frozenset(
        {(), (A, B), (B, A)}
    )


def test_f2_image_requires_positive_degree():
    for degree in (0, -1):
        with pytest.raises(ValueError, match="truncation degree must be at least 1"):
            f2_image(dw("t{1,2}"), degree)
    # a bool is an int, and 2.0 compares like one: the type decides
    for degree in (2.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="truncation degree must be an int, got"):
            f2_image(dw("t{1,2}"), degree)


def test_f2_image_makes_a_counted_number_of_appends(append_calls):
    # one append per monomial shorter than the degree and letter, wherever
    # the letter lands
    w = dw("t{1,2} t{2,3} t{1,3,4} t{2,4} t{1,2,3} t{3,4} t{1,4} t{2,3,4}", 4)
    assert len(f2_image(w, 8).support) == 256
    assert len(append_calls) == 255


def test_f2_image_is_homomorphism(rng):
    for _ in range(60):
        n = rng.randrange(2, 5)
        k = rng.randrange(1, 5)
        u = random_diagram_word(rng, n, rng.randrange(0, 6))
        v = random_diagram_word(rng, n, rng.randrange(0, 6))
        assert f2_image(u * v, k) == f2_multiply(f2_image(u, k), f2_image(v, k))


def test_f2_inverse(rng):
    for _ in range(40):
        k = rng.randrange(1, 5)
        u = random_diagram_word(rng, 3, rng.randrange(0, 5))
        x = f2_image(u, k)
        assert f2_is_one(f2_multiply(x, f2_inverse(x)))
    with pytest.raises(ValueError):
        f2_inverse(series(3, (A,)))


def test_homogeneous_component():
    x = series(3, (), (A,), (A, B))
    assert f2_homogeneous_component(x, 0) == frozenset({()})
    assert f2_homogeneous_component(x, 1) == frozenset({(A,)})
    assert f2_homogeneous_component(x, 2) == frozenset({(A, B)})
    assert f2_homogeneous_component(x, 3) == frozenset()


def test_nilpotent_separation_single_generator():
    cert = nilpotent_separation(dw("t{1,2}"))
    assert cert.ring == RING_F2
    assert cert.degree == 1
    assert dict(cert.witness) == {(A,): 1}


def test_nilpotent_separation_alternating_word():
    cert = nilpotent_separation(dw("t{1,2} t{1,3} t{1,2} t{1,3}"))
    assert cert.degree == 2
    assert dict(cert.witness) == {(A, B): 1, (B, A): 1}


def test_nilpotent_separation_worked_element():
    cert = nilpotent_separation(
        dw("t{1,2} t{1,2,3} t{1,3} t{1,2,3} t{2,3} t{1,2,3}")
    )
    assert cert.degree == 1
    assert dict(cert.witness) == {(3,): 1, (5,): 1, (6,): 1, (7,): 1}


def test_nilpotent_separation_trivial_input():
    assert nilpotent_separation(dw("t{1,2} t{1,2}")) is None
    assert nilpotent_separation(dw("")) is None


def test_separation_bound(rng):
    for _ in range(30):
        n = rng.randrange(2, 5)
        u = random_diagram_word(rng, n, rng.randrange(1, 7))
        cert = nilpotent_separation(u)
        reduced = kernels.lean_reduce(u.letters)
        if not reduced:
            assert cert is None
            continue
        assert 1 <= cert.degree <= len(reduced)


def test_top_term_law(rng):
    # the top-degree component of a lean word's image contains its own monomial
    for _ in range(40):
        n = rng.randrange(3, 5)
        d = rng.randrange(1, 7)
        u = random_lean_word(rng, n, d)
        canonical = reference_lex_least(u.letters)
        assert canonical in f2_homogeneous_component(f2_image(u, d), d)


def test_filtration_law(rng):
    # commutators of 1 + (degree >= a) and 1 + (degree >= b) land in degree >= a+b
    k = 5
    for _ in range(40):
        a = rng.randrange(1, 3)
        b = rng.randrange(1, 3)
        xs = random_lean_word(rng, 3, a).letters
        ys = random_lean_word(rng, 3, b).letters
        x = series(k, (), reference_lex_least(xs))
        y = series(k, (), reference_lex_least(ys))
        comm = f2_multiply(
            f2_multiply(x, y), f2_multiply(f2_inverse(x), f2_inverse(y))
        )
        assert f2_constant_term(comm) == 1
        assert all(len(m) >= a + b for m in comm.support if m != ())


def test_series_multiplication_is_associative(rng):
    for _ in range(25):
        k = rng.randrange(2, 5)
        parts = []
        for _ in range(3):
            monos = []
            for _ in range(rng.randrange(1, 4)):
                cand = reference_canonical_if_lean(
                    tuple(rng.randrange(1, 8) for _ in range(rng.randrange(0, k + 1)))
                )
                if cand is not None:
                    monos.append(cand)
            parts.append(F2Series(k, frozenset(monos)))
        x, y, z = parts
        assert f2_multiply(f2_multiply(x, y), z) == f2_multiply(x, f2_multiply(y, z))
