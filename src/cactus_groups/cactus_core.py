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

`equal_in_Jn` decides that test in three stages, cheapest first: the
length parity, the permutation, the lean reduction.  Counting letters by
their length q - p mod 2 is a homomorphism onto (Z/2)^(n-1), the
abelianization of J_n: the square removes two letters of one length,
commutation reorders letters, and the nested rewrite swaps s_{m,r} for
s_{p+q-r,p+q-m}, of the same length.  So g h^{-1} with an odd count at
some length is nontrivial, and that stage needs no walk.  The permutation
must be the identity before the reduction's answer holds, since the
diagram map is a homomorphism only on pure words.  A chord met an odd
number of times is the F2 separation at degree 1, and the reduction
never cancels it, since both diagram relations keep each chord's count
mod 2; the paper's map onto Gamma / Gamma-circ, which reads those
parities, stays in `delta`, `in_gamma_circ` and `gamma_circ_projection`.
`pure_diagram` gives `is_pure` and `diagram_of` from one walk, for
callers that need both; `is_pure` and `word_permutation` alone take
`_final_labels`, an assignment-only walk that builds no chords.

All of these read a word in one walk over positions 1..max q, since the
rest never move; only `word_permutation`, with n entries out, costs n.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter

from . import kernels
from .words import CactusWord, DiagramWord


def _walk(letters, top: int | None = None) -> tuple[list[int], list[int]]:
    """The chord of each letter, and the bit ``1 << (label - 1)`` of the
    label at each position 1..top at the end; the bits are disjoint, so
    a chord is the sum of its segment.  ``top`` is the largest q, found
    here unless the caller knows it."""
    if top is None:
        top = max(map(itemgetter(1), letters), default=0)
    assign = [1 << i for i in range(top)]
    chords = []
    for p, q in letters:
        segment = assign[p - 1 : q]
        chords.append(sum(segment))
        segment.reverse()
        assign[p - 1 : q] = segment
    return chords, assign


def _unmoved(assign: list[int]) -> bool:
    return all(bit == 1 << i for i, bit in enumerate(assign))


def _final_labels(letters) -> list[int]:
    """The label, numbered from 0, at each position 1..max q at the end of
    the walk: `_walk`'s final assignment without the chords."""
    labels = list(range(max(map(itemgetter(1), letters), default=0)))
    for p, q in letters:
        segment = labels[p - 1 : q]
        segment.reverse()
        labels[p - 1 : q] = segment
    return labels


def word_permutation(w: CactusWord) -> tuple[int, ...]:
    """Image of a word in the symmetric group: entry i - 1 is the final
    position of label i.

    >>> from .words import parse_cactus_word
    >>> word_permutation(parse_cactus_word("s1,3 s1,2", 4))
    (3, 1, 2, 4)
    """
    images = list(range(1, w.n + 1))
    for pos, label in enumerate(_final_labels(w.letters), start=1):
        images[label] = pos
    return tuple(images)


def is_pure(w: CactusWord) -> bool:
    """True iff the word lies in the kernel of the permutation map."""
    labels = _final_labels(w.letters)
    return labels == list(range(len(labels)))


def inverse_word(w: CactusWord) -> CactusWord:
    """The reversed letter sequence; each generator is its own inverse."""
    # unchecked: the letters of w, which were checked at w.n
    return CactusWord._unchecked(w.n, w.letters[::-1])


def diagram_of(w: CactusWord) -> DiagramWord:
    """Chord diagram of a word: one chord per letter, joining current labels.

    >>> from .words import format_diagram_word, parse_cactus_word
    >>> format_diagram_word(diagram_of(parse_cactus_word("s1,3 s1,2", 3)))
    't{1,2,3} t{2,3}'
    """
    # unchecked: a chord sums label bits below 1 << max q <= 1 << n
    return DiagramWord._unchecked(w.n, tuple(_walk(w.letters)[0]))


def pure_diagram(w: CactusWord) -> DiagramWord | None:
    """Chord diagram of a pure word, or None when the word is not pure:
    `is_pure` and `diagram_of` in one walk, built unchecked like the latter.

    >>> from .words import format_diagram_word, parse_cactus_word
    >>> format_diagram_word(pure_diagram(parse_cactus_word("s1,2 s1,2", 3)))
    't{1,2} t{1,2}'
    >>> pure_diagram(parse_cactus_word("s1,2", 3)) is None
    True
    """
    chords, assign = _walk(w.letters)
    return DiagramWord._unchecked(w.n, tuple(chords)) if _unmoved(assign) else None


def _length_parity(letters) -> tuple[int, int]:
    """Bit q - p set iff the letters of that length occur an odd number of
    times, and the largest q; `Counter` counts the letters in C, so the
    loop runs once per distinct generator."""
    parity = top = 0
    for (p, q), count in Counter(letters).items():
        if count & 1:
            parity ^= 1 << (q - p)
        if q > top:
            top = q
    return parity, top


def equal_in_Jn(g: CactusWord, h: CactusWord) -> bool:
    """Decide equality in the cactus group.

    Three stages decide g h^{-1}, cheapest first.  The length parity needs
    no walk: every defining relation keeps the count of letters of each
    length q - p mod 2, so an odd count means g != h.  `Counter` counts
    the letters in C, and the largest q it finds spares the walk its own
    pass.  The walk then gives the permutation, which must be the
    identity, and the chords of a pure word, which is trivial iff they
    reduce to the empty diagram word.  No pass counts the chords: a chord
    met an odd number of times is the F2 separation at degree 1, and it
    never reduces away.  The paper's parity map stays in `delta`,
    `in_gamma_circ` and `gamma_circ_projection`.

    >>> from .words import parse_cactus_word
    >>> equal_in_Jn(parse_cactus_word("s1,2 s3,4", 4), parse_cactus_word("s3,4 s1,2", 4))
    True
    """
    if g.n != h.n:
        raise ValueError(f"arity mismatch: {g.n} != {h.n}")
    letters = g.letters + h.letters[::-1]
    parity, top = _length_parity(letters)
    if parity:
        return False
    chords, assign = _walk(letters, top)
    if not _unmoved(assign):
        return False
    return kernels.lean_reduce(chords) == ()
