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

from typing import TYPE_CHECKING

from . import kernels
from .words import DiagramWord, _Frozen, _check_degree

if TYPE_CHECKING:
    from .certificates import SeparationCertificate


class F2Series(_Frozen):
    """Truncated series: the set of monomials with coefficient 1.

    The empty monomial is the constant term.  All stored monomials have
    length at most ``degree``.  The support is kept as a frozenset.
    """

    degree: int
    support: frozenset

    def __post_init__(self):
        object.__setattr__(self, "support", frozenset(self.support))
        _check_degree(self.degree)
        if max(map(len, self.support), default=0) > self.degree:
            raise ValueError("monomial exceeds truncation degree")


def f2_image(w: DiagramWord, degree: int) -> F2Series:
    """Image of a chord word: the truncated product of 1 + t over its
    letters.  Each letter grows every monomial below the truncation degree
    by one append; a monomial whose new letter meets an equal one across
    commuting letters vanishes.  A letter placed at the end grows its
    monomial by one concatenation, and that is the common case.

    A letter's grown monomials are collected in one pass and toggled into
    the support together.  No two of them are equal: m -> m t_a is one to
    one on canonical monomials, since a trace monoid cancels on the right.
    So one batched symmetric difference adds each of them exactly once.

    >>> sorted(f2_image(DiagramWord(2, (0b11, 0b11)), 3).support)
    [()]
    """
    _check_degree(degree)
    support = {()}
    for letter in w.letters:
        end = (letter,)
        grown = []
        for mono in support:
            if (size := len(mono)) < degree:
                slot = kernels.append_slot(mono, letter)
                if slot == size:
                    grown.append(mono + end)
                elif slot >= 0:
                    grown.append(mono[:slot] + end + mono[slot:])
        support.symmetric_difference_update(grown)
    # unchecked: only monomials shorter than the degree grow
    return F2Series._unchecked(degree, frozenset(support))


def nilpotent_separation(
    w: DiagramWord, max_degree: int | None = None
) -> SeparationCertificate | None:
    """Certificate of nontriviality in a nilpotent quotient, or None for
    the trivial element.

    The search of `certificates._separate`, over GF(2): the lean length
    always suffices, since the image's top term is the lean monomial
    itself.  ``max_degree`` caps the search (raising `DegreeCapReached` if
    it bites).

    >>> cert = nilpotent_separation(DiagramWord(2, (0b11,)))
    >>> cert.degree, cert.witness
    (1, (((3,), 1),))
    """
    import cactus_groups.certificates as certificates  # on first use; it imports this module
    return certificates._separate(w, max_degree, certificates.RING_F2)
