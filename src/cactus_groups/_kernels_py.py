"""Pure-Python kernels: the inner loops of every group/algebra operation.

A chord set is an int bitmask over strands (bit ``1 << (i - 1)`` for strand
``i``); a word is a tuple of such masks.  Two letters commute exactly when
one contains the other or they are disjoint, which makes words over this
alphabet a trace monoid, and the diagram group a right-angled Coxeter
group over it.

The kernel layer is one backward scan, in two places.  `append_slot` says
where a letter goes when it is appended to a canonical word (the least
word of its commutation class).  By Anisimov and Knuth's inhomogeneous
sorting, that canonical product is the old word with the letter
inserted; by the Crisp-Godelle-Wiest stack reduction for right-angled
groups, an equal letter the new one reaches across commuting letters
cancels it.  One scan decides both, with no restart after a deletion.
`append_slot` serves the algebras' images, and through them the checks
of `verify_certificate`.  `lean_reduce` carries the same scan in its own
loop, with no call per letter, and scans only when the new letter
commutes with the last one and differs from it: an equal last letter
cancels, and a crossing one blocks, so the letter goes at the end.  A
central letter (a singleton chord, or the union of the word's letters)
commutes with everything, so its scan would cross the whole word: the
fold keeps its parity only and places the odd ones last, each at its
slot without a scan.  A word is lean exactly when `lean_reduce` cancels
none of its letters.

`cactus_groups.kernels` re-exports both kernels from here.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Sequence

Word = tuple  # tuple[int, ...]


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
    element, and the fold keeps the prefix canonical throughout.  The fold
    keeps the prefix's last letter at hand: an equal one is popped, and a
    crossing one blocks at once, so the letter goes at the end.  A letter
    that commutes with the last one and differs from it scans on from the
    letter before, as `append_slot` would after reading the last one.

    Central letters are held back: a singleton chord, or ``top``, the union
    of every letter of the word, commutes with every letter, so it can move
    to the end and two copies of it cancel.  Only their parity is kept, and
    the odd ones are placed last in ascending order.  A central letter meets
    no barrier and no equal letter, so its slot is the first position
    holding a larger letter: a forward pointer finds it, and never moves
    back, since each singleton's slot lies past the one before.  ``top``
    contains every letter, so it is the largest and goes at the end.

    >>> lean_reduce((4, 3, 7, 5, 1, 4, 7, 1, 1))
    (1, 3, 5)
    >>> lean_reduce((3, 5, 5)), lean_reduce((12, 3))  # crosses, then pops; scans
    ((3,), (3, 12))
    """
    top = reduce(or_, word, 0)
    odd: set[int] = set()
    out: list[int] = []
    last = 0  # out[-1], or 0 when out is empty
    for a in word:
        if a & (a - 1) == 0 or a == top:
            if a in odd:
                odd.remove(a)
            else:
                odd.add(a)
            continue
        if last == a:
            out.pop()
            last = out[-1] if out else 0
        elif (c := last & a) and c != last and c != a:
            out.append(a)
            last = a
        else:
            # the scan of `append_slot`, past the last letter already read
            j = len(out) - 1
            slot = j if last > a else j + 1
            while j > 0:
                j -= 1
                b = out[j]
                if b == a:
                    del out[j]
                    break
                if (c := b & a) and c != b and c != a:
                    j = 0  # a barrier: stop, and place the letter
                elif b > a:
                    slot = j
            else:
                if slot < len(out):
                    out.insert(slot, a)
                else:
                    out.append(a)
                    last = a
    j = 0
    for a in sorted(odd):
        if a == top:
            out.append(a)
            break
        while j < len(out) and out[j] < a:
            j += 1
        out.insert(j, a)
        j += 1
    return tuple(out)

