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
top label to its final position, so that

    word_permutation(u * v) == compose_permutations(word_permutation(u),
                                                    word_permutation(v))

with `compose_permutations(a, b)` meaning "apply a, then b".  A word is
pure when this permutation is the identity; the pure words form the kernel
of the map onto the symmetric group.

`diagram_of` turns a word into its chord diagram: each letter s_{p,q}
contributes one chord joining the labels currently occupying positions
p..q.  Chords record labels, not positions, which makes the restriction of
`diagram_of` to pure words a homomorphism into the diagram group; on
non-pure words it is still well defined (a cocycle) and powers the
equality test g == h  iff  g h^{-1} is trivial.
"""

from __future__ import annotations

from operator import itemgetter

from . import kernels
from .words import (
    CactusGenerator,
    CactusWord,
    DiagramWord,
    ParseError,
    format_cactus_word,
    parse_cactus_word,
)

__all__ = [
    "CactusGenerator",
    "CactusWord",
    "ParseError",
    "parse_cactus_word",
    "format_cactus_word",
    "Permutation",
    "identity_permutation",
    "compose_permutations",
    "invert_permutation",
    "generator_permutation",
    "word_permutation",
    "is_pure",
    "inverse_word",
    "diagram_of",
    "equal_in_Jn",
]

# images[i－1] is the destination of i; a bijection on 1..n.
Permutation = tuple


def identity_permutation(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def compose_permutations(a: Permutation, b: Permutation) -> Permutation:
    """Apply ``a``, then ``b``.

    >>> compose_permutations((2, 1, 3), (1, 3, 2))
    (3, 1, 2)
    """
    return tuple(b[a[i] - 1] for i in range(len(a)))


def invert_permutation(a: Permutation) -> Permutation:
    inv = [0] * len(a)
    for i, img in enumerate(a):
        inv[img - 1] = i + 1
    return tuple(inv)


def generator_permutation(g: CactusGenerator, n: int) -> Permutation:
    """The interval reversal i -> p+q-i on [p,q], identity elsewhere.

    >>> generator_permutation(CactusGenerator(3, 7), 7)
    (1, 2, 7, 6, 5, 4, 3)
    """
    if not 1 <= g.p < g.q <= n:
        raise ValueError(f"invalid generator s_{{{g.p},{g.q}}} for arity {n}")
    return tuple(g.p + g.q - i if g.p <= i <= g.q else i for i in range(1, n + 1))


def _final_assignment(w: CactusWord) -> list[int]:
    """Position-to-label assignment after reading the whole word."""
    assign = list(range(1, w.n + 1))
    for g in w.letters:
        assign[g.p - 1 : g.q] = assign[g.p - 1 : g.q][::-1]
    return assign


def word_permutation(w: CactusWord) -> Permutation:
    """Image of a word in the symmetric group (label -> final position).

    >>> w = parse_cactus_word("s1,2 s1,2", 2)
    >>> word_permutation(w)
    (1, 2)
    """
    assign = _final_assignment(w)
    images = [0] * w.n
    for pos, label in enumerate(assign, start=1):
        images[label - 1] = pos
    return tuple(images)


def is_pure(w: CactusWord) -> bool:
    """True iff the word lies in the kernel of the permutation map."""
    assign = _final_assignment(w)
    return all(label == pos for pos, label in enumerate(assign, start=1))


def inverse_word(w: CactusWord) -> CactusWord:
    """The reversed letter sequence; each generator is its own inverse."""
    return CactusWord(w.n, w.letters[::-1])


def diagram_of(w: CactusWord) -> DiagramWord:
    """Chord diagram of a word: one chord per letter, joining current labels.

    >>> from .words import format_diagram_word
    >>> format_diagram_word(diagram_of(parse_cactus_word("s1,3 s1,2", 3)))
    't{1,2,3} t{2,3}'
    """
    # assign[i] is the bit of the label at position i; the bits are
    # disjoint, so a chord is the sum of its segment.  Positions past the
    # largest q never move, so they get no entry.
    assign = [1 << i for i in range(max(map(itemgetter(1), w.letters), default=0))]
    chords = []
    for p, q in w.letters:
        segment = assign[p - 1 : q]
        chords.append(sum(segment))
        segment.reverse()
        assign[p - 1 : q] = segment
    return DiagramWord(w.n, tuple(chords))


def equal_in_Jn(g: CactusWord, h: CactusWord) -> bool:
    """Decide equality in the cactus group.

    Equal words must have equal permutations, and then g h^{-1} is pure, so
    it is trivial iff its chord diagram reduces to the empty diagram word.

    >>> equal_in_Jn(parse_cactus_word("s1,2 s3,4", 4), parse_cactus_word("s3,4 s1,2", 4))
    True
    """
    if g.n != h.n:
        raise ValueError(f"arity mismatch: {g.n} != {h.n}")
    if word_permutation(g) != word_permutation(h):
        return False
    cancel = g * inverse_word(h)
    return kernels.lean_reduce(diagram_of(cancel).letters) == ()
