"""Degree-truncated integer partially commutative power-series algebra.

Same chord generators and commutation relations as the mod-2 algebra but
no square-zero relation and integer coefficients, so monomials may repeat
letters and coefficients carry signs.  Coefficients are Python ints, hence
arbitrary precision: truncation bounds the monomial count, never the
coefficient size, and overflow cannot occur.

Words from the even diagram subgroup (every chord occurring an even
number of times) map into the unit group by sending the c-th occurrence of
a chord to 1 + t for odd c and to the truncated geometric inverse
1 - t + t^2 - ... for even c.  The image of a lean word of length d
contains the word's own monomial with coefficient (-1)^(d/2), which makes
the minimal nontrivial truncation degree a certificate of nontriviality
in a torsion-free nilpotent quotient.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from . import kernels
from .diagram_group import in_even_subgroup
from .words import DiagramWord, _Frozen

if TYPE_CHECKING:
    from .certificates import SeparationCertificate


class ZSeries(_Frozen):
    """Truncated series: monomial -> nonzero integer coefficient.

    ``coeffs`` is taken as it is given: its keys must be canonical
    monomials (lex-least in their commutation class), its coefficients
    nonzero, and no monomial longer than ``degree``.  The constructor
    checks only the degree and keeps a read-only view of the mapping,
    without a pass over the terms.
    """

    degree: int
    coeffs: Mapping

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("truncation degree must be at least 1")
        object.__setattr__(self, "coeffs", MappingProxyType(self.coeffs))


def z_image(w: DiagramWord, degree: int) -> ZSeries:
    """Image of an even-subgroup word: scan left to right counting each
    chord's occurrences and multiply the per-occurrence factors in order.
    Outside the even subgroup the assignment is not relation invariant, so
    such input is rejected.

    A factor 1 + t or 1 - t + t^2 - ... grows each monomial m into m a^j.
    Appending a letter again lands right after its previous copy, so one
    scan finds the slot for every power.

    The terms are kept in one dict per monomial length and updated in
    place.  For each letter the source lengths are walked from
    ``degree - 1`` down to 0.  A source term m of length l adds m a into
    length l + 1 for an odd occurrence, and (-1)^j m a^j into length l + j
    for every j that fits for an even one, so it writes only into lengths
    that have been read already.  A total that reaches 0 is deleted at
    once.  No series is copied, and terms of full length are never visited
    again.
    """
    if not in_even_subgroup(w):
        raise ValueError("word is outside the even diagram subgroup (odd chord parity)")
    seen_odd: set = set()  # chords met an odd number of times so far
    by_length: list = [{} for _ in range(degree + 1)]  # length -> {monomial: coeff}
    by_length[0][()] = 1
    for letter in w.letters:
        odd = letter not in seen_odd
        seen_odd.symmetric_difference_update((letter,))
        sign = 1 if odd else -1
        for length in range(degree - 1, -1, -1):
            # an odd occurrence grows by a alone, an even one by every power
            targets = by_length[length + 1 : length + 2 if odd else None]
            for mono, coeff in by_length[length].items():
                slot = kernels.append_slot(mono, letter, cancel=False)
                head, tail = mono[:slot], mono[slot:]
                run = ()
                for target in targets:
                    coeff *= sign
                    run += (letter,)
                    grown = head + run + tail
                    total = target.get(grown, 0) + coeff
                    if total:
                        target[grown] = total
                    else:
                        del target[grown]
    coeffs = by_length[0]
    for terms in by_length[1:]:
        coeffs.update(terms)
    return ZSeries(degree, coeffs)


def _accumulate(acc: dict, terms) -> None:
    for mono, coeff in terms:
        total = acc.get(mono, 0) + coeff
        if total:
            acc[mono] = total
        else:
            del acc[mono]


def _graded_terms(letters: tuple):
    """Yield the homogeneous components 1, 2, ... of the image of an
    even-subgroup word, each as sorted (monomial, coefficient) pairs.

    An odd occurrence of a multiplies a prefix w by 1 + a, so
    comp_k(w (1 + a)) = comp_k(w) + comp_{k-1}(w) a.  An even one
    multiplies by f = 1 - a + a^2 - ..., which satisfies f = 1 - f a, so
    comp_k(w f) = comp_k(w) - comp_{k-1}(w f) a: the degree below, taken
    after the letter instead of before it.  Either way degree k needs only
    degree k - 1.  As in the mod-2 algebra, each pass replays what every
    letter added to the degree below to rebuild it prefix by prefix.
    """
    is_odd = []
    seen_odd: set = set()
    for letter in letters:
        is_odd.append(letter not in seen_odd)
        seen_odd.symmetric_difference_update((letter,))
    gains = [()] * len(letters)  # what each letter adds to comp_{k-1}
    start = {(): 1}  # comp_{k-1} of the empty prefix
    while True:
        prefix = dict(start)
        step = []
        for letter, odd, gained in zip(letters, is_odd, gains):
            if not odd:
                _accumulate(prefix, gained)
            sign = 1 if odd else -1
            grown = []
            for mono, coeff in prefix.items():
                slot = kernels.append_slot(mono, letter, cancel=False)
                grown.append((mono[:slot] + (letter,) + mono[slot:], sign * coeff))
            step.append(grown)
            if odd:
                _accumulate(prefix, gained)
        gains, start = step, {}
        component: dict = {}
        for grown in gains:
            _accumulate(component, grown)
        yield tuple(sorted(component.items()))


def tfn_separation(
    w: DiagramWord, max_degree: int | None = None
) -> SeparationCertificate | None:
    """Certificate of nontriviality in a torsion-free nilpotent quotient,
    or None for the trivial element.  Input must lie in the even diagram
    subgroup.

    Computes the homogeneous components of the lean reduction's image one
    degree at a time, each one pass over the prefixes of the word, and
    stops at the first nonzero one.  At the lean length d the image always
    separates: the coefficient of the lean monomial itself is (-1)^(d/2).
    ``max_degree`` caps the search (raising `DegreeCapReached` if it
    bites).
    """
    if not in_even_subgroup(w):
        raise ValueError("word is outside the even diagram subgroup (odd chord parity)")
    import cactus_groups.certificates as certificates  # on first use; it imports this module
    return certificates._separate(w, max_degree, _graded_terms, certificates.RING_Z)
