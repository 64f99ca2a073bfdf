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
from .cactus_core import pure_diagram
from .words import CactusGenerator, CactusWord, DiagramWord, chord_mask, chord_members


def lex_normal_form(w: DiagramWord) -> DiagramWord:
    """Canonical representative: the lean word of the element, least in its
    commutation class.  Two words get equal normal forms iff they represent
    the same element.

    Letters are appended one at a time, each cancelling the nearest equal
    letter it reaches across commuting letters, so no equal pair is left
    that commutations could bring together.  Central chords (singletons
    and the union of the word's letters) are counted by parity and the odd
    ones appended last.
    """
    # unchecked: its letters are some of w's, which were checked at w.n
    return DiagramWord._unchecked(w.n, kernels.lean_reduce(w.letters))


def equal_diagrams(w1: DiagramWord, w2: DiagramWord) -> bool:
    """Decide equality in the diagram group: w1 = w2 iff w1 w2^-1 reduces
    to the empty word.  Every chord is an involution, so w2^-1 is w2
    reversed, and the test is `equal_in_Jn`'s last stage, one
    `kernels.lean_reduce` of the joined letters, with no normal form built.

    Like `equal_in_Jn`, it counts no chord parities first: an odd chord
    never reduces away.  `equal_in_Jn` counts only the lengths of its
    cactus letters, which spares it the strand walk; a diagram word has
    no walk to spare.
    """
    if w1.n != w2.n:
        raise ValueError(f"arity mismatch: {w1.n} != {w2.n}")
    return kernels.lean_reduce(w1.letters + w2.letters[::-1]) == ()


def delta(w: DiagramWord) -> frozenset:
    """Occurrence parity of each chord: the set of chords occurring an odd
    number of times (the support of the parity vector).  A membership
    test moves each letter in or out of the set, with no call per letter
    to build a one-letter tuple; `collections.Counter` reads long words
    faster but costs more on the short ones the parity checks mostly see.

    >>> sorted(delta(DiagramWord(3, (0b011, 0b011, 0b101))))
    [5]
    """
    odd = set()
    for mask in w.letters:
        if mask in odd:
            odd.remove(mask)
        else:
            odd.add(mask)
    return frozenset(odd)


def in_even_subgroup(w: DiagramWord) -> bool:
    """True iff every chord occurs an even number of times."""
    return not delta(w)


# Largest arity `gamma_circ_projection` accepts: its vector has about 2^n
# entries, about 10^6 at n = 20.
MAX_PROJECTION_ARITY = 20


def big_chord_sets(n: int) -> tuple[int, ...]:
    """Chord masks on more than two strands, ascending; the coordinate
    order of `gamma_circ_projection`."""
    return tuple(m for m in range(1, 1 << n) if m.bit_count() > 2)


def projection_dimension(n: int) -> int:
    """Number of chords on more than two strands: 2^n - n(n+1)/2 - 1."""
    return (1 << n) - n * (n + 1) // 2 - 1


def _odd_chords(w: CactusWord) -> frozenset:
    """`delta` of a pure word's diagram, from one walk of the word."""
    diagram = pure_diagram(w)
    if diagram is None:
        raise ValueError("word is not pure (nontrivial strand permutation)")
    return delta(diagram)


def gamma_circ_projection(w: CactusWord) -> tuple:
    """Parity vector of a pure word over the chords with more than two
    strands, in ascending mask order.

    >>> from .words import parse_cactus_word
    >>> gamma_circ_projection(parse_cactus_word("s1,2 s1,3 " * 3, 3))
    (1,)
    """
    if w.n > MAX_PROJECTION_ARITY:
        raise ValueError(
            f"arity {w.n} exceeds {MAX_PROJECTION_ARITY}: the projection has 2^n entries"
        )
    odd = _odd_chords(w)
    return tuple(1 if m in odd else 0 for m in big_chord_sets(w.n))


def in_gamma_circ(w: CactusWord) -> bool:
    """True iff the pure word lies in the even part: all big-chord parities
    vanish, which on a pure word holds iff no chord at all is odd (the
    Tier-1 property `test_projection_equivalence_on_pure_words`).  Reads
    only the odd chords, so unlike `gamma_circ_projection` it costs no 2^n.
    """
    return not _odd_chords(w)


def construct_pure_generator(n: int, chord: int | Iterable[int]) -> CactusWord:
    """A pure word whose only chord on more than two strands is ``chord``,
    so its projection is the standard basis vector indexed by ``chord``.

    For members c_1 < ... < c_k the word is G s_{1,k} U G^-1, and every
    letter but s_{1,k} is an adjacent swap, whose chord joins two strands:
    the gather G moves each c_j in turn down to position j, s_{1,k}
    reverses that block, U's k(k-1)/2 swaps sort it again and G^-1
    scatters it.  No letter reaches past c_k, so memory follows the chord.
    Purity and the big-chord content are checked for every chord up to
    strand 10 by the Tier-1 test
    `test_construct_pure_generator_postconditions_up_to_10_strands`.

    >>> from .words import format_cactus_word
    >>> format_cactus_word(construct_pure_generator(3, (1, 2, 3)))
    's1,3 s1,2 s2,3 s1,2'
    >>> format_cactus_word(construct_pure_generator(4, (1, 2, 4)))
    's3,4 s1,3 s1,2 s2,3 s1,2 s3,4'
    """
    mask = chord if isinstance(chord, int) else chord_mask(chord, n)
    members = chord_members(mask)
    if members and members[-1] > n:
        raise ValueError(f"strand {members[-1]} out of range 1..{n}")
    k = len(members)
    if k <= 2:
        raise ValueError(f"chord must have more than two strands, got {k}")

    gather = [
        CactusGenerator(i, i + 1) for j, c in enumerate(members, 1) for i in range(j, c)[::-1]
    ]
    unreverse = [
        CactusGenerator(i, i + 1) for last in range(k - 1, 0, -1) for i in range(1, last + 1)
    ]
    letters = (*gather, CactusGenerator(1, k), *unreverse, *reversed(gather))

    return CactusWord(n, letters)
