"""Pure-Python kernels: the inner loops of every group/algebra operation.

A chord set is an int bitmask over strands (bit ``1 << (i - 1)`` for strand
``i``); a word is a tuple of such masks.  Two letters commute exactly when
one contains the other or they are disjoint, which makes words over this
alphabet a trace monoid, and the diagram group a right-angled Coxeter
group over it.

Every word kernel is a fold of one primitive, `append_slot`: where a letter
goes when it is appended to a canonical word (the lexicographically least
word of its commutation class).  By Anisimov and Knuth's inhomogeneous
sorting, that canonical product is the old word with the letter inserted;
by the Crisp-Godelle-Wiest stack reduction for right-angled groups, an
equal letter the new one reaches across commuting letters cancels it.  One
backward scan decides both, so a word of L letters costs L scans instead
of a restart after every deletion.  `lean_reduce` scans less: a central
letter (a singleton chord, or the union of the word's letters) commutes
with everything and never meets a barrier, so its scan would cross the
whole word.  It keeps only the parity of each central letter and appends
the odd ones last.

`cactus_groups.kernels` re-exports every kernel from here.
"""

from __future__ import annotations

from typing import Sequence

Word = tuple  # tuple[int, ...]


def commutes(a: int, b: int) -> bool:
    """True iff chords a and b commute: nested or disjoint.

    >>> commutes(0b011, 0b111), commutes(0b011, 0b100), commutes(0b011, 0b110)
    (True, True, False)
    """
    c = a & b
    return c == 0 or c == a or c == b


def append_slot(word: Sequence[int], letter: int, cancel: bool = True) -> int:
    """Where ``letter`` goes when appended to the canonical word ``word``.

    Scans back from the end across letters that commute with ``letter``.
    With ``cancel``, reaching an equal letter at index j returns ``~j``
    (negative): in the group the product is ``word`` without that letter,
    and in the square-zero algebra it is zero.  Otherwise equal letters
    commute like any other, and the result is the index at which inserting
    ``letter`` gives the canonical form of the product: the first position
    past the scan's barrier that holds a larger letter, else the end.

    >>> append_slot((3, 12), 5), append_slot((3, 12), 4), append_slot((3, 12), 3)
    (2, 1, -1)
    >>> append_slot((3, 12), 3, cancel=False)
    1
    """
    slot = j = len(word)
    for b in reversed(word):
        j -= 1
        if b == letter:
            if cancel:
                return ~j
            continue
        c = b & letter
        if c != 0 and c != b and c != letter:
            break
        if b > letter:
            slot = j
    return slot


def lean_reduce(word: Sequence[int]) -> Word:
    """Canonical form of the group element: the lean word, lexicographically
    least in its commutation class.

    Appends the letters one at a time; a letter that reaches an equal one
    across commuting letters deletes it.  Any deletion order yields the same
    element, and the fold keeps the prefix canonical throughout.

    Central letters are held back: a singleton chord, or ``top``, the union
    of every letter of the word, commutes with every letter, so it can move
    to the end and two copies of it cancel.  Only their parity is kept, and
    the odd ones are appended last in ascending order, one scan each,
    instead of one scan per occurrence.

    >>> lean_reduce((4, 3, 7, 5, 1, 4, 7, 1, 1))
    (1, 3, 5)
    """
    top = 0
    for a in word:
        top |= a
    odd: set[int] = set()
    out: list[int] = []
    for a in word:
        if a & (a - 1) == 0 or a == top:
            if a in odd:
                odd.remove(a)
            else:
                odd.add(a)
            continue
        slot = append_slot(out, a)
        if slot < 0:
            del out[~slot]
        else:
            out.insert(slot, a)
    for a in sorted(odd):
        out.insert(append_slot(out, a), a)
    return tuple(out)


def lex_least(word: Sequence[int]) -> Word:
    """Lexicographically least word of the commutation class of ``word``.

    Equal letters commute and never cancel, so repeated letters survive.
    """
    out: list[int] = []
    for a in word:
        out.insert(append_slot(out, a, cancel=False), a)
    return tuple(out)


def canonical_if_lean(word: Sequence[int]) -> Word | None:
    """Canonical form of a lean word, or None when the word is not lean."""
    out: list[int] = []
    for a in word:
        slot = append_slot(out, a)
        if slot < 0:
            return None
        out.insert(slot, a)
    return tuple(out)


def is_lean(word: Sequence[int]) -> bool:
    """True iff no equal pair of letters can be made adjacent by commutations."""
    return canonical_if_lean(word) is not None

