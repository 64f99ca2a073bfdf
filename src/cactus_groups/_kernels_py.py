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
of a restart after every deletion.

The breadth-first kernels (`bfs_reach`, `reachable_class`, `swap_class`,
`component_ids`) serve the test oracle.  `cactus_groups.kernels` re-exports
every kernel from here.

BFS functions return ``None`` instead of raising when a state cap is hit;
callers turn that into their own error.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

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
    slot = len(word)
    for j in range(len(word) - 1, -1, -1):
        b = word[j]
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
    """
    out: list[int] = []
    for a in word:
        slot = append_slot(out, a)
        if slot < 0:
            del out[~slot]
        else:
            out.insert(slot, a)
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


def _neighbors(w: Word, letters: Sequence[int], max_len: int) -> list[Word]:
    n = len(w)
    out = []
    for i in range(n - 1):
        a = w[i]
        b = w[i + 1]
        if a == b:
            out.append(w[:i] + w[i + 2 :])
        else:
            c = a & b
            if c == 0 or c == a or c == b:
                out.append(w[:i] + (b, a) + w[i + 2 :])
    if n + 2 <= max_len:
        for i in range(n + 1):
            head = w[:i]
            tail = w[i:]
            for let in letters:
                out.append(head + (let, let) + tail)
    return out


def bfs_reach(
    start: Word,
    targets: Iterable[Word],
    letters: Sequence[int],
    max_len: int,
    state_cap: int,
) -> list[bool] | None:
    """Which of ``targets`` are reachable from ``start`` by relation moves.

    Moves: swap adjacent commuting letters, delete an adjacent equal pair,
    insert an adjacent equal pair (any letter), never exceeding ``max_len``
    letters.  Returns one bool per target, or None once more than
    ``state_cap`` states have been visited.
    """
    targets = list(targets)
    want = {}
    for idx, t in enumerate(targets):
        want.setdefault(t, []).append(idx)
    found = [False] * len(targets)
    missing = len(want)

    visited = {start}
    queue = deque([start])
    if start in want:
        for idx in want[start]:
            found[idx] = True
        missing -= 1
    while queue and missing:
        w = queue.popleft()
        for nb in _neighbors(w, letters, max_len):
            if nb in visited:
                continue
            visited.add(nb)
            if len(visited) > state_cap:
                return None
            if nb in want:
                hits = want.pop(nb)
                for idx in hits:
                    found[idx] = True
                missing -= 1
            queue.append(nb)
    return found


def reachable_class(
    start: Word, letters: Sequence[int], max_len: int, state_cap: int
) -> set[Word] | None:
    """All words reachable from ``start`` by relation moves, length-bounded."""
    visited = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for nb in _neighbors(w, letters, max_len):
            if nb not in visited:
                visited.add(nb)
                if len(visited) > state_cap:
                    return None
                queue.append(nb)
    return visited


def swap_class(start: Word, state_cap: int) -> set[Word] | None:
    """The commutation class of ``start``: adjacent commuting swaps only."""
    visited = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for i in range(len(w) - 1):
            a = w[i]
            b = w[i + 1]
            if a == b:
                continue
            c = a & b
            if c == 0 or c == a or c == b:
                nb = w[:i] + (b, a) + w[i + 2 :]
                if nb not in visited:
                    visited.add(nb)
                    if len(visited) > state_cap:
                        return None
                    queue.append(nb)
    return visited


def component_ids(
    words: Sequence[Word], letters: Sequence[int], max_len: int, state_cap: int
) -> list[int] | None:
    """Connected-component labels of ``words`` under the relation moves.

    One flood fill per previously unseen word, sharing the visited map, so
    labelling N words costs one bounded BFS per distinct component rather
    than one per word.  ``state_cap`` bounds the total states across all
    floods.  Two words get equal labels iff each is reachable from the
    other within the ``max_len`` bound.
    """
    visited: dict[Word, int] = {}
    next_id = 0
    for w in words:
        if w in visited:
            continue
        comp = next_id
        next_id += 1
        visited[w] = comp
        queue = deque([w])
        while queue:
            v = queue.popleft()
            for nb in _neighbors(v, letters, max_len):
                if nb not in visited:
                    visited[nb] = comp
                    if len(visited) > state_cap:
                        return None
                    queue.append(nb)
    return [visited[w] for w in words]
