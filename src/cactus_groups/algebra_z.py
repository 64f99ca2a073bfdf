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

Which occurrence of its chord each letter is, odd or even, is the one
group fact this ring reads, and `_occurrence_signs` is its one pass.  It
is also the one place that refuses a word outside the even subgroup, for
`z_image` and the separation search alike, so the ring needs no group
layer, only `words` and `kernels`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from . import kernels
from .words import DiagramWord, _Frozen, _check_degree

if TYPE_CHECKING:
    from .certificates import SeparationCertificate


def _occurrence_signs(letters: tuple) -> list:
    """For each letter, the sign of its factor's linear term: 1 for an odd
    occurrence of its chord (the first, third, ...), whose factor is 1 + t,
    and -1 for an even one, whose factor is 1 - t + t^2 - ...

    The one place that refuses a word outside the even diagram subgroup:
    `ValueError` when some chord occurs an odd number of times in all."""
    last = {}  # chord -> the sign of its latest occurrence: 1 while its count is odd
    signs = []
    for letter in letters:
        sign = last[letter] = -last.get(letter, -1)
        signs.append(sign)
    if 1 in last.values():
        raise ValueError("word is outside the even diagram subgroup (odd chord parity)")
    return signs


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
        _check_degree(self.degree)
        object.__setattr__(self, "coeffs", MappingProxyType(self.coeffs))


def z_image(w: DiagramWord, degree: int) -> ZSeries:
    """Image of an even-subgroup word: the per-occurrence factors, odd or
    even as `_occurrence_signs` reads them, multiplied in order.
    Outside the even subgroup the assignment is not relation invariant, so
    `_occurrence_signs` refuses such input.  A degree that is not an int
    of at least 1 is refused before that pass.

    A factor 1 + t or 1 - t + t^2 - ... grows each monomial m into m a^j.
    Appending a letter again lands right after its previous copy, so one
    scan finds the slot for every power.  A letter placed at the end grows
    its monomial by one concatenation per power, and that is the common
    case; elsewhere each power is the grown head and the tail joined.

    The terms are kept in one dict per monomial length and updated in
    place.  For each letter the source lengths are walked from
    ``degree - 1`` down to 0.  A source term m of length l adds m a into
    length l + 1 for an odd occurrence, and (-1)^j m a^j into length l + j
    for every j that fits for an even one, so it writes only into lengths
    that have been read already.  A total that reaches 0 is deleted at
    once.  No series is copied, and terms of full length are never visited
    again.
    """
    _check_degree(degree)
    signs = _occurrence_signs(w.letters)
    by_length: list = [{} for _ in range(degree + 1)]  # length -> {monomial: coeff}
    by_length[0][()] = 1
    for letter, sign in zip(w.letters, signs):
        end = (letter,)
        for length in range(degree - 1, -1, -1):
            # an odd occurrence grows by a alone, an even one by every power
            targets = by_length[length + 1 : length + 2 if sign > 0 else None]
            for mono, coeff in by_length[length].items():
                slot = kernels.append_slot(mono, letter, cancel=False)
                # m a^j is m with j letters at the slot; at the end, no tail
                grown, tail = (mono, ()) if slot == length else (mono[:slot], mono[slot:])
                for target in targets:
                    coeff *= sign
                    grown += end
                    key = grown + tail if tail else grown
                    total = target.get(key, 0) + coeff
                    if total:
                        target[key] = total
                    else:
                        del target[key]
    coeffs = by_length[0]
    for terms in by_length[1:]:
        coeffs.update(terms)
    return ZSeries(degree, coeffs)


def tfn_separation(
    w: DiagramWord, max_degree: int | None = None
) -> SeparationCertificate | None:
    """Certificate of nontriviality in a torsion-free nilpotent quotient,
    or None for the trivial element.  Input must lie in the even diagram
    subgroup.

    The search of `certificates._separate`, over the integers: at the lean
    length d the image always separates, since the coefficient of the lean
    monomial itself is (-1)^(d/2).  ``max_degree`` caps the search (raising
    `DegreeCapReached` if it bites).
    """
    import cactus_groups.certificates as certificates  # on first use; it imports this module
    return certificates._separate(w, max_degree, certificates.RING_Z)
