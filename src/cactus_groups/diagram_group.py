"""The diagram group on n strands and its parity homomorphisms.

Generators are chords t_I, one per nonempty subset I of strands, with the
square relation (every chord is an involution) and commutation whenever
the two subsets are nested or disjoint.  A word is *lean* when no equal
pair of letters can be made adjacent using commutations alone; lean words
represent each element uniquely up to commutation, so the canonical form
of an element is the lexicographically least word of the lean
representative's commutation class, under the total order that reads a
chord as the integer sum of ``2**(i-1)`` over its members.

`delta` counts each chord's occurrences mod 2, which is invariant under
both relations; its kernel across all chords is the even diagram
subgroup.  For pure cactus words, the restriction of the parity vector to
chords on more than two strands is a surjection onto a vector space of
dimension ``2**n - n*(n+1)/2 - 1``, and `construct_pure_generator` builds
an explicit pure preimage of each standard basis vector.
"""

from __future__ import annotations

from typing import Iterable

from . import kernels
from .cactus_core import diagram_of, is_pure, word_permutation
from .words import (
    CactusGenerator,
    CactusWord,
    DiagramWord,
    chord_mask,
    chord_members,
    format_chord,
    format_diagram_word,
    parse_diagram_word,
)

__all__ = [
    "DiagramWord",
    "chord_mask",
    "chord_members",
    "format_chord",
    "format_diagram_word",
    "parse_diagram_word",
    "commute",
    "is_lean",
    "lean_reduce",
    "lex_normal_form",
    "equal_diagrams",
    "delta",
    "in_even_subgroup",
    "big_chord_sets",
    "projection_dimension",
    "gamma_circ_projection",
    "in_gamma_circ",
    "construct_pure_generator",
]


def commute(i_mask: int, j_mask: int) -> bool:
    """True iff the chords are nested or disjoint.

    >>> commute(0b011, 0b111), commute(0b011, 0b110)
    (True, False)
    """
    return kernels.commutes(i_mask, j_mask)


def is_lean(w: DiagramWord) -> bool:
    """True iff no commutation sequence creates an adjacent equal pair."""
    return kernels.is_lean(w.letters)


def lex_normal_form(w: DiagramWord) -> DiagramWord:
    """Canonical representative: the lean word of the element, least in its
    commutation class.  Two words get equal normal forms iff they represent
    the same element; `lean_reduce` is another name for this function.

    Letters are appended one at a time, each cancelling the nearest equal
    letter it reaches across commuting letters, so no equal pair is left
    that commutations could bring together.  Central chords (singletons
    and the union of the word's letters) are counted by parity and the odd
    ones appended last.
    """
    return DiagramWord(w.n, kernels.lean_reduce(w.letters))


# Bound after the definition, so that the function's first name is
# `lex_normal_form` wherever names are read in module order.
lean_reduce = lex_normal_form


def equal_diagrams(w1: DiagramWord, w2: DiagramWord) -> bool:
    """Decide equality in the diagram group via normal forms."""
    if w1.n != w2.n:
        raise ValueError(f"arity mismatch: {w1.n} != {w2.n}")
    return lex_normal_form(w1) == lex_normal_form(w2)


def delta(w: DiagramWord) -> frozenset:
    """Occurrence parity of each chord: the set of chords occurring an odd
    number of times (the support of the parity vector).

    >>> sorted(delta(DiagramWord(3, (0b011, 0b011, 0b101))))
    [5]
    """
    odd = set()
    for mask in w.letters:
        odd.symmetric_difference_update((mask,))
    return frozenset(odd)


def in_even_subgroup(w: DiagramWord) -> bool:
    """True iff every chord occurs an even number of times."""
    return not delta(w)


def big_chord_sets(n: int) -> tuple[int, ...]:
    """Chord masks on more than two strands, ascending; the coordinate
    order of `gamma_circ_projection`."""
    return tuple(m for m in range(1, 1 << n) if m.bit_count() > 2)


def projection_dimension(n: int) -> int:
    """Number of chords on more than two strands: 2^n - n(n+1)/2 - 1."""
    return (1 << n) - n * (n + 1) // 2 - 1


def gamma_circ_projection(w: CactusWord) -> tuple:
    """Parity vector of a pure word over the chords with more than two
    strands, in ascending mask order.

    >>> from .cactus_core import parse_cactus_word
    >>> gamma_circ_projection(parse_cactus_word("s1,2 s1,3 " * 3, 3))
    (1,)
    """
    if not is_pure(w):
        raise ValueError("word is not pure (nontrivial strand permutation)")
    odd = delta(diagram_of(w))
    return tuple(1 if m in odd else 0 for m in big_chord_sets(w.n))


def in_gamma_circ(w: CactusWord) -> bool:
    """True iff the pure word lies in the even part: all big-chord parities
    vanish.  Cross-checked against full evenness of the diagram, which must
    agree for pure words; disagreement signals an internal bug.
    """
    projection_zero = not any(gamma_circ_projection(w))
    even = in_even_subgroup(diagram_of(w))
    if projection_zero != even:
        raise RuntimeError(
            "parity criteria disagree on a pure word; this cannot happen "
            f"(projection zero: {projection_zero}, even diagram: {even})"
        )
    return even


def _sort_swaps(arr: list) -> list[int]:
    """Bubble-sort ``arr`` ascending in place, returning the 1-based
    positions of the adjacent swaps performed, in order."""
    swaps = []
    m = len(arr)
    changed = True
    while changed:
        changed = False
        for i in range(m - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                swaps.append(i + 1)
                changed = True
    return swaps


def construct_pure_generator(n: int, chord: int | Iterable[int]) -> CactusWord:
    """A pure word whose diagram contains exactly one chord on more than
    two strands, namely ``chord``; every other chord joins two strands.

    Hence its projection is the standard basis vector indexed by
    ``chord``.  Built from adjacent transpositions (which only emit
    two-strand chords): first bring the members of ``chord`` to positions
    1..k in order, then reverse that block in one letter, then undo the
    accumulated permutation by bubble sort.  The postconditions are
    verified before returning.

    >>> from .words import format_cactus_word
    >>> format_cactus_word(construct_pure_generator(3, (1, 2, 3)))
    's1,3 s1,2 s2,3 s1,2'
    """
    mask = chord if isinstance(chord, int) else chord_mask(chord, n)
    members = list(chord_members(mask))
    if members and members[-1] > n:
        raise ValueError(f"strand {members[-1]} out of range 1..{n}")
    k = len(members)
    if k <= 2:
        raise ValueError(f"chord must have more than two strands, got {k}")

    target = members + [i for i in range(1, n + 1) if not (mask >> (i - 1)) & 1]
    gather = [CactusGenerator(i, i + 1) for i in reversed(_sort_swaps(list(target)))]
    letters = gather + [CactusGenerator(1, k)]

    assign = list(range(1, n + 1))
    for g in letters:
        assign[g.p - 1 : g.q] = assign[g.p - 1 : g.q][::-1]
    letters += [CactusGenerator(i, i + 1) for i in _sort_swaps(assign)]

    word = CactusWord(n, tuple(letters))
    if word_permutation(word) != tuple(range(1, n + 1)):
        raise RuntimeError("constructed generator is not pure")
    big = [m for m in diagram_of(word).letters if m.bit_count() > 2]
    if big != [mask]:
        raise RuntimeError("constructed generator has wrong big-chord content")
    return word
