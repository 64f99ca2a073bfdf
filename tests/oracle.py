"""Breadth-first search over the defining relations: the independent judge.

Ground truth at small scale comes from flood fills over the relation moves:
swapping adjacent commuting chords, deleting an adjacent equal pair, and
inserting one (insertions bounded by a maximum word length).  Equality
decided this way depends on no normal-form theory, so it can sit in
judgement over the normal forms; that is why this module takes only
`DiagramWord` from the package and spells out the commutation test itself.
"""

from collections import deque

from cactus_groups.words import DiagramWord

DEFAULT_STATE_CAP = 10**6


class StateCapExceeded(RuntimeError):
    """A search visited more states than its cap allows."""


def relation_neighbors(letters, n, max_len=None):
    """All letter tuples one defining-relation move away from ``letters``.

    Moves: swap an adjacent commuting pair, delete an adjacent equal pair,
    insert an adjacent equal pair of any chord on n strands (only while the
    result has at most ``max_len`` letters, when a bound is given).
    """
    out = []
    for i in range(len(letters) - 1):
        a, b = letters[i], letters[i + 1]
        if a == b:
            out.append(letters[:i] + letters[i + 2 :])
        elif (a & b) in (0, a, b):
            out.append(letters[:i] + (b, a) + letters[i + 2 :])
    if max_len is None or len(letters) + 2 <= max_len:
        for i in range(len(letters) + 1):
            head, tail = letters[:i], letters[i:]
            out.extend(head + (x, x) + tail for x in range(1, 1 << n))
    return out


def swap_neighbors(letters):
    """All letter tuples one swap of adjacent commuting chords away."""
    return [
        letters[:i] + (b, a) + letters[i + 2 :]
        for i, (a, b) in enumerate(zip(letters, letters[1:]))
        if (a & b) in (0, a, b)
    ]


def _flood(starts, moves, state_cap, targets=None):
    """Flood fill under ``moves`` from each of ``starts`` not yet reached,
    sharing one visited map: word -> index of the start whose flood reached
    it first.  With ``targets``, stops once all of them are visited.
    """
    visited = {}
    missing = set(targets or ())
    for label, start in enumerate(starts):
        if start in visited:
            continue
        visited[start] = label
        missing.discard(start)
        queue = deque([start])
        while queue and (missing or targets is None):
            for nb in moves(queue.popleft()):
                if nb not in visited:
                    visited[nb] = label
                    if len(visited) > state_cap:
                        raise StateCapExceeded(f"more than {state_cap} states")
                    missing.discard(nb)
                    queue.append(nb)
    return visited


def _relation_moves(words, max_len):
    """The relation moves on the common arity of ``words`` at a length bound
    (default: two more than the longest word)."""
    n = words[0].n
    for w in words:
        if w.n != n:
            raise ValueError(f"arity mismatch: {n} != {w.n}")
    if max_len is None:
        # Equality of words never needs length growth beyond the longer
        # input; the slack guards the tests of that very claim.
        max_len = max(len(w.letters) for w in words) + 2
    return lambda letters: relation_neighbors(letters, n, max_len)


def bfs_equal_many(w1, targets, max_len=None, state_cap=DEFAULT_STATE_CAP):
    """Batched `bfs_equal`: one search from w1 answers every target."""
    moves = _relation_moves([w1, *targets], max_len)
    wanted = [t.letters for t in targets]
    visited = _flood([w1.letters], moves, state_cap, wanted)
    return [t in visited for t in wanted]


def bfs_equal(w1, w2, max_len=None, state_cap=DEFAULT_STATE_CAP):
    """True iff w2 is reachable from w1 by relation moves within the
    length bound (default: two more than the longer word).

    >>> bfs_equal(DiagramWord(2, (0b11, 0b11)), DiagramWord(2, ()))
    True
    """
    return bfs_equal_many(w1, [w2], max_len, state_cap)[0]


def reachable_class(w, max_len=None, state_cap=DEFAULT_STATE_CAP):
    """All words reachable from w by relation moves, as letter tuples."""
    return set(_flood([w.letters], _relation_moves([w], max_len), state_cap))


def commutation_class(w, state_cap=DEFAULT_STATE_CAP):
    """All words reachable by adjacent commuting swaps only.

    The class of a word of length L can approach L! words, so keep inputs
    short (length about 10) or lower the cap.

    >>> sorted(w.letters for w in commutation_class(DiagramWord(4, (0b0011, 0b1100))))
    [(3, 12), (12, 3)]
    """
    return {DiagramWord(w.n, v) for v in _flood([w.letters], swap_neighbors, state_cap)}


def component_partition(words, max_len, state_cap=DEFAULT_STATE_CAP):
    """Component labels of ``words`` under the relation moves: equal labels
    iff mutually reachable within the length bound.  One flood fill per
    component, visited states shared, so this is the batch form of running
    `bfs_equal` over all pairs at the same bound.
    """
    if not words:
        return []
    visited = _flood([w.letters for w in words], _relation_moves(words, max_len), state_cap)
    return [visited[w.letters] for w in words]
