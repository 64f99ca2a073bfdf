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
from .words import DiagramWord, _Frozen

if TYPE_CHECKING:
    from .certificates import SeparationCertificate


class F2Series(_Frozen):
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


def _graded_terms(letters: tuple):
    """Yield the homogeneous components 1, 2, ... of the image of a word,
    each as sorted (monomial, 1) pairs.

    Appending a letter a maps the degree-k component of a prefix w to
    comp_k(w a) = comp_k(w) + comp_{k-1}(w) t_a.  For the last degree the
    generator keeps what each letter added; the next pass replays those
    gains to rebuild comp_{k-1} of every prefix in turn and appends each
    letter to it.  A degree costs one append per monomial per prefix, so
    the components up to d together cost about one `f2_image` at degree d.
    """
    gains = [()] * len(letters)  # what each letter adds to comp_{k-1}
    start = [()]  # comp_{k-1} of the empty prefix
    while True:
        prefix = set(start)
        step = []
        for letter, gained in zip(letters, gains):
            grown = []
            for mono in prefix:
                slot = kernels.append_slot(mono, letter)
                if slot >= 0:
                    grown.append(mono[:slot] + (letter,) + mono[slot:])
            step.append(grown)
            prefix.symmetric_difference_update(gained)
        gains, start = step, ()
        component = set()
        for grown in gains:
            component.symmetric_difference_update(grown)
        yield tuple(sorted((mono, 1) for mono in component))


def nilpotent_separation(
    w: DiagramWord, max_degree: int | None = None
) -> SeparationCertificate | None:
    """Certificate of nontriviality in a nilpotent quotient, or None for
    the trivial element.

    Computes the homogeneous components of the lean reduction's image one
    degree at a time, each one pass over the prefixes of the word, and
    stops at the first nonzero one; the lean length always suffices, since
    the image's top term is the lean monomial itself.  ``max_degree`` caps
    the search (raising `DegreeCapReached` if it bites).

    >>> cert = nilpotent_separation(DiagramWord(2, (0b11,)))
    >>> cert.degree, cert.witness
    (1, (((3,), 1),))
    """
    import cactus_groups.certificates as certificates  # on first use; it imports this module
    return certificates._separate(w, max_degree, _graded_terms, certificates.RING_F2)
