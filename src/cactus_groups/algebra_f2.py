"""Degree-truncated mod-2 algebra with square-zero chord generators.

One generator t_I of degree one per nonempty chord, with t_I^2 = 0 and
commutation for nested or disjoint chords.  Nonzero monomials are exactly
the lean words in the chords, stored as the lexicographically least word
of their commutation class; a series is a set of such monomials (mod-2
coefficients, absence meaning 0), everything truncated above a working
degree.

The group of chord words embeds through t_I -> 1 + t_I: the top-degree
term of a lean word's image is its own monomial, so the minimal degree at
which the image differs from 1 yields a separation certificate placing the
element outside a term of the unit-group filtration by lowest degree,
i.e. a witness of nontriviality in a nilpotent quotient.

All arithmetic silently drops terms above the truncation degree; the
algebra is infinite dimensional, and every statement used here is about
bounded degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .certificates import RING_F2, SeparationCertificate, _separate
from .words import DiagramWord

F2Monomial = tuple  # chord masks, lex-least in the commutation class


@dataclass(frozen=True)
class F2Series:
    """Truncated series: the set of monomials with coefficient 1.

    The empty monomial is the constant term.  All stored monomials have
    length at most ``degree``.
    """

    degree: int
    support: frozenset

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("truncation degree must be at least 1")
        if any(len(m) > self.degree for m in self.support):
            raise ValueError("monomial exceeds truncation degree")

    @property
    def constant_term(self) -> int:
        return 1 if () in self.support else 0

    def is_one(self) -> bool:
        return self.support == frozenset([()])

    def terms(self) -> tuple:
        """Nonconstant (monomial, coefficient) pairs, sorted by monomial."""
        return tuple(sorted((m, 1) for m in self.support if m))


def f2_one(degree: int) -> F2Series:
    return F2Series(degree, frozenset([()]))


def f2_image(w: DiagramWord, degree: int) -> F2Series:
    """Image of a chord word: the truncated product of 1 + t over its
    letters.  Each letter grows every monomial below the truncation degree
    by one append; a monomial whose new letter meets an equal one across
    commuting letters vanishes.

    >>> sorted(f2_image(DiagramWord(2, (0b11, 0b11)), 3).support)
    [()]
    """
    if degree < 1:
        raise ValueError("truncation degree must be at least 1")
    support = {()}
    for letter in w.letters:
        step = set(support)
        for mono in support:
            if len(mono) < degree:
                slot = kernels.append_slot(mono, letter)
                if slot >= 0:
                    step.symmetric_difference_update((mono[:slot] + (letter,) + mono[slot:],))
        support = step
    return F2Series(degree, frozenset(support))


def homogeneous_component(x: F2Series, d: int) -> frozenset:
    return frozenset(m for m in x.support if len(m) == d)


def nilpotent_separation(
    w: DiagramWord, max_degree: int | None = None
) -> SeparationCertificate | None:
    """Certificate of nontriviality in a nilpotent quotient, or None for
    the trivial element.

    Searches truncation degrees 1, 2, ... for the first at which the image
    of the lean reduction differs from 1; the lean length always suffices,
    since the image's top term is the lean monomial itself.  ``max_degree``
    caps the search (raising `DegreeCapReached` if it bites).

    >>> cert = nilpotent_separation(DiagramWord(2, (0b11,)))
    >>> cert.degree, cert.witness
    (1, (((3,), 1),))
    """
    return _separate(w, max_degree, f2_image, RING_F2)
