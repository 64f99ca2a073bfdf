"""The cactus group on n strands: permutations, purity, chord diagrams.

Generators s_{p,q} (1 <= p < q <= n) reverse the interval of strands p..q;
relations are the square, disjoint-interval commutation, and the nested
rewrite s_{p,q} s_{m,r} = s_{p+q-r,p+q-m} s_{p,q} for [m,r] inside [p,q].
Words multiply by concatenation.

Composition convention, used consistently everywhere: reading a word left
to right stacks its letters downward, and the tracked state is the
position-to-label assignment (which top label currently sits at each
position).  Each letter reverses a segment of that assignment.
`word_permutation` is the inverse of the final assignment, i.e. it maps a
top label to its final position, so that u * v applies the permutation of
u first, then that of v:

    word_permutation(u * v)[i - 1] == b[a[i - 1] - 1]

with a = word_permutation(u) and b = word_permutation(v).  A word is
pure when this permutation is the identity; the pure words form the kernel
of the map onto the symmetric group.

`diagram_of` turns a word into its chord diagram: each letter s_{p,q}
contributes one chord joining the labels currently occupying positions
p..q.  Chords record labels, not positions, which makes the restriction of
`diagram_of` to pure words a homomorphism into the diagram group; on
non-pure words it is still well defined (a cocycle) and powers the
equality test g == h  iff  g h^{-1} is trivial.

`equal_in_Jn` decides that test in three stages over one walk of g h^{-1}:
the permutation, then the parity map, then the lean reduction of the
chord diagram.  The parity stage is sound because the diagram map is a
homomorphism on pure words and each chord's occurrence count mod 2 is
invariant under both diagram relations, so a chord met an odd number of
times leaves a nontrivial diagram.  The pure words of even parity form a
subgroup of index 2^N in the pure group, N = 2^n - n(n+1)/2 - 1, so most
unequal pairs with equal permutations never reach the reduction.

All of these read a word in one walk over positions 1..max q, since the
rest never move; only `word_permutation`, with n entries out, costs n.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter

from . import kernels
from .words import CactusWord, DiagramWord

__all__ = [
    "word_permutation",
    "is_pure",
    "inverse_word",
    "diagram_of",
    "equal_in_Jn",
]


def _walk(letters) -> tuple[list[int], list[int]]:
    """The chord of each letter, and the bit ``1 << (label - 1)`` of the
    label at each position 1..max q at the end; the bits are disjoint, so
    a chord is the sum of its segment."""
    assign = [1 << i for i in range(max(map(itemgetter(1), letters), default=0))]
    chords = []
    for p, q in letters:
        segment = assign[p - 1 : q]
        chords.append(sum(segment))
        segment.reverse()
        assign[p - 1 : q] = segment
    return chords, assign


def _unmoved(assign: list[int]) -> bool:
    return all(bit == 1 << i for i, bit in enumerate(assign))


def word_permutation(w: CactusWord) -> tuple[int, ...]:
    """Image of a word in the symmetric group: entry i - 1 is the final
    position of label i.

    >>> from .words import parse_cactus_word
    >>> word_permutation(parse_cactus_word("s1,3 s1,2", 4))
    (3, 1, 2, 4)
    """
    images = list(range(1, w.n + 1))
    for pos, bit in enumerate(_walk(w.letters)[1], start=1):
        images[bit.bit_length() - 1] = pos
    return tuple(images)


def is_pure(w: CactusWord) -> bool:
    """True iff the word lies in the kernel of the permutation map."""
    return _unmoved(_walk(w.letters)[1])


def inverse_word(w: CactusWord) -> CactusWord:
    """The reversed letter sequence; each generator is its own inverse."""
    return CactusWord(w.n, w.letters[::-1])


def diagram_of(w: CactusWord) -> DiagramWord:
    """Chord diagram of a word: one chord per letter, joining current labels.

    >>> from .words import format_diagram_word, parse_cactus_word
    >>> format_diagram_word(diagram_of(parse_cactus_word("s1,3 s1,2", 3)))
    't{1,2,3} t{2,3}'
    """
    return DiagramWord(w.n, tuple(_walk(w.letters)[0]))


def equal_in_Jn(g: CactusWord, h: CactusWord) -> bool:
    """Decide equality in the cactus group.

    One walk of g h^{-1} feeds three stages, cheapest first.  g and h can
    only be equal when g h^{-1} is pure.  A pure word whose chord diagram
    meets some chord an odd number of times is nontrivial, since that
    parity survives both diagram relations; `Counter` counts the chords in
    C.  Only a pure word of even parity is reduced: it is trivial iff its
    chord diagram reduces to the empty diagram word.

    >>> from .words import parse_cactus_word
    >>> equal_in_Jn(parse_cactus_word("s1,2 s3,4", 4), parse_cactus_word("s3,4 s1,2", 4))
    True
    """
    if g.n != h.n:
        raise ValueError(f"arity mismatch: {g.n} != {h.n}")
    chords, assign = _walk(g.letters + h.letters[::-1])
    if not _unmoved(assign):
        return False
    if any(count & 1 for count in Counter(chords).values()):
        return False
    return kernels.lean_reduce(chords) == ()
