"""Brute-force reference implementations for the test suite.

Ground truth at small scale comes from breadth-first search over the
defining relation moves: swapping adjacent commuting chords, deleting an
adjacent equal pair, and inserting one (insertions bounded by a maximum
word length).  Equality decided this way depends on no normal-form theory,
so it can sit in judgement over the normal forms.

Never called by the library operations; not a performance path, although
the move loops live in `cactus_groups.kernels` so exhaustive sweeps stay
tractable.
"""

from __future__ import annotations

from typing import Sequence

from . import kernels
from .words import DiagramWord

DEFAULT_STATE_CAP = 10**6


class StateCapExceeded(RuntimeError):
    """A search visited more states than its cap allows."""


def _alphabet(n: int) -> tuple:
    return tuple(range(1, 1 << n))


def _default_max_len(*words: DiagramWord) -> int:
    # Equality of words never needs length growth beyond the longer input;
    # the slack guards the tests of that very claim.
    return max(len(w.letters) for w in words) + 2


def bfs_equal(
    w1: DiagramWord,
    w2: DiagramWord,
    max_len: int | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> bool:
    """True iff w2 is reachable from w1 by relation moves within the
    length bound (default: two more than the longer word).

    >>> bfs_equal(DiagramWord(2, (0b11, 0b11)), DiagramWord(2, ()))
    True
    """
    if w1.n != w2.n:
        raise ValueError(f"arity mismatch: {w1.n} != {w2.n}")
    if max_len is None:
        max_len = _default_max_len(w1, w2)
    hits = kernels.bfs_reach(w1.letters, [w2.letters], _alphabet(w1.n), max_len, state_cap)
    if hits is None:
        raise StateCapExceeded(f"more than {state_cap} states at length bound {max_len}")
    return hits[0]


def bfs_equal_many(
    w1: DiagramWord,
    targets: Sequence[DiagramWord],
    max_len: int | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[bool]:
    """Batched `bfs_equal`: one search from w1 answers every target.

    Equivalent to ``[bfs_equal(w1, t, max_len, state_cap) for t in
    targets]`` at a shared length bound (default: two more than the
    longest word involved).
    """
    for t in targets:
        if t.n != w1.n:
            raise ValueError(f"arity mismatch: {w1.n} != {t.n}")
    if max_len is None:
        max_len = _default_max_len(w1, *targets)
    hits = kernels.bfs_reach(
        w1.letters, [t.letters for t in targets], _alphabet(w1.n), max_len, state_cap
    )
    if hits is None:
        raise StateCapExceeded(f"more than {state_cap} states at length bound {max_len}")
    return hits


def reachable_class(
    w: DiagramWord, max_len: int | None = None, state_cap: int = DEFAULT_STATE_CAP
) -> set:
    """All words reachable from w by relation moves, as letter tuples."""
    if max_len is None:
        max_len = _default_max_len(w)
    states = kernels.reachable_class(w.letters, _alphabet(w.n), max_len, state_cap)
    if states is None:
        raise StateCapExceeded(f"more than {state_cap} states at length bound {max_len}")
    return states


def commutation_class(w: DiagramWord, state_cap: int = DEFAULT_STATE_CAP) -> set:
    """All words reachable by adjacent commuting swaps only.

    The class of a word of length L can approach L! words, so keep inputs
    short (length about 10) or lower the cap.

    >>> sorted(w.letters for w in commutation_class(DiagramWord(4, (0b0011, 0b1100))))
    [(3, 12), (12, 3)]
    """
    states = kernels.swap_class(w.letters, state_cap)
    if states is None:
        raise StateCapExceeded(f"commutation class larger than {state_cap}")
    return {DiagramWord(w.n, letters) for letters in states}


def component_partition(
    words: Sequence[DiagramWord],
    max_len: int,
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[int]:
    """Component labels of ``words`` under the relation moves: equal labels
    iff mutually reachable within the length bound.  One flood fill per
    component, visited states shared, so this is the batch form of running
    `bfs_equal` over all pairs at the same bound.
    """
    if not words:
        return []
    n = words[0].n
    for w in words:
        if w.n != n:
            raise ValueError(f"arity mismatch: {n} != {w.n}")
    ids = kernels.component_ids([w.letters for w in words], _alphabet(n), max_len, state_cap)
    if ids is None:
        raise StateCapExceeded(f"more than {state_cap} states at length bound {max_len}")
    return ids
