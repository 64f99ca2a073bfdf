"""Generic ring operations of the two truncated algebras, as references.

The library builds images by appending one letter at a time and never
multiplies two series.  These operations multiply by distributing and
canonicalise each concatenation with the greedy reference kernels from
`helpers`, so the ring-axiom tests (homomorphism, inverses, filtration,
associativity) check the images against code they share nothing with.
"""

from __future__ import annotations

import enum
from typing import Literal

from cactus_groups.algebra_f2 import F2Series
from cactus_groups.algebra_z import ZSeries
from helpers import reference_canonical_if_lean, reference_lex_least


class Special(enum.Enum):
    """Out-of-band monomial products: the zero monomial and a dropped
    above-truncation term."""

    ZERO = "zero"
    OVERFLOW = "overflow"


ZERO = Special.ZERO
OVERFLOW = Special.OVERFLOW


def monomial_multiply(a: tuple, b: tuple, degree: int):
    """Concatenate monomials: OVERFLOW above the truncation degree, ZERO
    when a repeated chord meets itself across commuting letters, else the
    canonical form.

    >>> monomial_multiply((0b011,), (0b011,), 4)
    <Special.ZERO: 'zero'>
    """
    if len(a) + len(b) > degree:
        return OVERFLOW
    mono = reference_canonical_if_lean(a + b)
    return ZERO if mono is None else mono


def f2_one(degree: int) -> F2Series:
    return F2Series(degree, frozenset([()]))


def z_one(degree: int) -> ZSeries:
    return ZSeries(degree, {(): 1})


def f2_constant_term(x: F2Series) -> int:
    return 1 if () in x.support else 0


def z_constant_term(x: ZSeries) -> int:
    return x.coeffs.get((), 0)


def f2_is_one(x: F2Series) -> bool:
    return x.support == frozenset([()])


def z_is_one(x: ZSeries) -> bool:
    return dict(x.coeffs) == {(): 1}


def f2_terms(x: F2Series) -> tuple:
    """Nonconstant (monomial, coefficient) pairs, sorted by monomial."""
    return tuple(sorted((m, 1) for m in x.support if m))


def z_terms(x: ZSeries) -> tuple:
    """Nonconstant (monomial, coefficient) pairs, sorted by monomial."""
    return tuple(sorted((m, c) for m, c in x.coeffs.items() if m))


def f2_homogeneous_component(x: F2Series, d: int) -> frozenset:
    return frozenset(m for m in x.support if len(m) == d)


def z_homogeneous_component(x: ZSeries, d: int) -> dict:
    return {m: c for m, c in x.coeffs.items() if len(m) == d}


def f2_add(x: F2Series, y: F2Series) -> F2Series:
    if x.degree != y.degree:
        raise ValueError(f"degree mismatch: {x.degree} != {y.degree}")
    return F2Series(x.degree, x.support.symmetric_difference(y.support))


def f2_multiply(x: F2Series, y: F2Series) -> F2Series:
    """Distribute over supports; coefficients add mod 2, so colliding
    products cancel out of the result."""
    if x.degree != y.degree:
        raise ValueError(f"degree mismatch: {x.degree} != {y.degree}")
    acc = set()
    for ma in x.support:
        for mb in y.support:
            mono = monomial_multiply(ma, mb, x.degree)
            if not isinstance(mono, Special):
                acc.symmetric_difference_update((mono,))
    return F2Series(x.degree, frozenset(acc))


def f2_inverse(x: F2Series) -> F2Series:
    """Inverse of a series with constant term 1, by the geometric series
    in (x - 1), which is nilpotent under truncation."""
    if f2_constant_term(x) != 1:
        raise ValueError("only series with constant term 1 are inverted here")
    u = F2Series(x.degree, frozenset(m for m in x.support if m))  # x - 1
    acc = f2_one(x.degree)
    power = f2_one(x.degree)
    for _ in range(x.degree):
        power = f2_multiply(power, u)
        if not power.support:
            break
        acc = f2_add(acc, power)
    return acc


def z_add(x: ZSeries, y: ZSeries) -> ZSeries:
    if x.degree != y.degree:
        raise ValueError(f"degree mismatch: {x.degree} != {y.degree}")
    acc = dict(x.coeffs)
    for mono, c in y.coeffs.items():
        acc[mono] = acc.get(mono, 0) + c
    return ZSeries(x.degree, {m: c for m, c in acc.items() if c})


def z_multiply(x: ZSeries, y: ZSeries) -> ZSeries:
    """Distributive product: concatenations canonicalised, like terms
    combined over the integers, zero terms and terms above the truncation
    degree dropped.
    """
    if x.degree != y.degree:
        raise ValueError(f"degree mismatch: {x.degree} != {y.degree}")
    acc: dict = {}
    for ma, ca in x.coeffs.items():
        for mb, cb in y.coeffs.items():
            if len(ma) + len(mb) <= x.degree:
                mono = reference_lex_least(ma + mb)
                acc[mono] = acc.get(mono, 0) + ca * cb
    return ZSeries(x.degree, {m: c for m, c in acc.items() if c})


def generator_factor(mask: int, occurrence_parity: Literal["odd", "even"], degree: int) -> ZSeries:
    """The factor contributed by one occurrence of a chord: 1 + t for an
    odd-numbered occurrence, the truncated geometric inverse for an even
    one.

    >>> dict(generator_factor(0b11, "even", 2).coeffs) == {(): 1, (3,): -1, (3, 3): 1}
    True
    """
    if degree < 1:
        raise ValueError("truncation degree must be at least 1")
    if occurrence_parity == "odd":
        return ZSeries(degree, {(): 1, (mask,): 1})
    if occurrence_parity == "even":
        return ZSeries(degree, {(mask,) * j: (-1) ** j for j in range(degree + 1)})
    raise ValueError(f"occurrence_parity must be 'odd' or 'even', got {occurrence_parity!r}")


def z_inverse(x: ZSeries) -> ZSeries:
    """Inverse of a series with constant term +-1 via the geometric series."""
    c = z_constant_term(x)
    if c not in (1, -1):
        raise ValueError("only series with constant term +-1 are inverted here")
    # x = c (1 + u) with u of positive degree; sum c (-u)^j.
    minus_u = ZSeries(x.degree, {m: -c * v for m, v in x.coeffs.items() if m})
    acc = z_one(x.degree)
    power = z_one(x.degree)
    for _ in range(x.degree):
        power = z_multiply(power, minus_u)
        if not power.coeffs:
            break
        acc = z_add(acc, power)
    return ZSeries(x.degree, {m: c * v for m, v in acc.coeffs.items()})
