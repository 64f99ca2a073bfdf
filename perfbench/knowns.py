"""Known-answer generators and checkers, independent of the package.

Nothing here imports ``cactus_groups``: every answer the benchmark checks
is fixed by how its input was built, or recomputed from the definitions
by code written for the benchmark alone.

* Equal pairs come from one base word scrambled twice by relation moves:
  square insertion and deletion, commuting-chord swaps, and for cactus
  words disjoint swaps and the nested rewrite
  ``s_{p,q} s_{m,r} = s_{p+q-r,p+q-m} s_{p,q}``.
* Unequal cactus pairs insert the pure word ``(s_{k,k+1} s_{k,k+2})^3``,
  whose diagram meets the big chord ``{k,k+1,k+2}`` an odd number of
  times, so the pair keeps its permutation but differs in the group.
* Unequal chord pairs insert ``c d c d`` with ``c`` and ``d`` not
  commuting; that element has infinite order in the dihedral group the
  two chords generate.
* Iterated commutators ``[x, c]`` are nontrivial by the centralizer
  criterion for right-angled Coxeter groups: the centralizer of a chord
  ``c`` is generated by the chords commuting with it, so ``[x, c] != 1``
  as soon as killing every chord except ``c`` and one chord ``a`` that
  does not commute with it sends ``x`` outside ``{1, c}``.

Cactus words are lists of ``(p, q)`` pairs; chord words are lists of
strand bitmasks, bit ``1 << (i - 1)`` for strand ``i``.
"""

from __future__ import annotations

import random
from collections import deque

# --- chords -----------------------------------------------------------------


def commute(a: int, b: int) -> bool:
    """Chords commute when nested or disjoint."""
    c = a & b
    return c == 0 or c == a or c == b


def members(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def chord_text(mask: int) -> str:
    return "t{" + ",".join(map(str, members(mask))) + "}"


def chord_word_text(word) -> str:
    return " ".join(chord_text(m) for m in word)


def cactus_word_text(word) -> str:
    return " ".join(f"s{p},{q}" for p, q in word)


def noncentral_chords(n: int) -> list[int]:
    """Chords that fail to commute with some other chord.

    Singletons and the full chord commute with everything, so they can
    never separate anything; commutators and even reduced words draw from
    the rest.
    """
    alphabet = range(1, 1 << n)
    return [a for a in alphabet if any(not commute(a, b) for b in alphabet)]


def append_keeps_reduced(word, c: int) -> bool:
    """Whether ``word + [c]`` is reduced, given that ``word`` is.

    A chord word is reduced exactly when no equal pair can be brought
    together by commutations, i.e. no two equal letters have only
    letters commuting with them in between.
    """
    for a in reversed(word):
        if a == c:
            return False
        if not commute(a, c):
            return True
    return True


def is_reduced(word) -> bool:
    out: list[int] = []
    for c in word:
        if not append_keeps_reduced(out, c):
            return False
        out.append(c)
    return True


def random_reduced(rng: random.Random, n: int, length: int, alphabet=None) -> list[int]:
    """A reduced chord word of exactly ``length`` letters, grown letter by letter."""
    alphabet = alphabet or range(1, 1 << n)
    word: list[int] = []
    while len(word) < length:
        c = rng.choice(alphabet)
        if append_keeps_reduced(word, c):
            word.append(c)
    return word


def random_even_reduced(rng: random.Random, n: int, pairs: int, tries: int = 20000) -> list[int]:
    """A reduced chord word in which every chord occurs an even number of
    times: a doubled multiset, shuffled, kept when reduced."""
    alphabet = noncentral_chords(n)
    for _ in range(tries):
        base = [rng.choice(alphabet) for _ in range(pairs)]
        word = base + base
        rng.shuffle(word)
        if is_reduced(word):
            return word
    raise RuntimeError(f"no even reduced word with {pairs} pairs at n={n}")


def trace_equivalent(u, v) -> bool:
    """Whether ``u`` and ``v`` are equal up to commutations.

    Two words are equal in a trace monoid exactly when, for every pair of
    letters that do not commute (a letter included, with itself), the
    subsequences of the two words on that pair agree: that is, when every
    occurrence of a letter has as many of each letter that does not
    commute with it before it in both words.
    """
    if sorted(u) != sorted(v):
        return False
    letters = set(u)
    blockers = {a: [b for b in letters if not commute(a, b)] for a in letters}
    return _occurrences(u, blockers) == _occurrences(v, blockers)


def _occurrences(word, blockers) -> dict:
    """(letter, k) -> counts of its blockers before its k-th occurrence."""
    seen = dict.fromkeys(blockers, 0)
    out = {}
    for a in word:
        seen[a] += 1
        out[a, seen[a]] = tuple(seen[b] for b in blockers[a])
    return out


def lex_least_class(word, cap: int = 200000) -> tuple:
    """Least word of the commutation class, by searching the whole class."""
    start = tuple(word)
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a != b and commute(a, b):
                nb = w[:i] + (b, a) + w[i + 2 :]
                if nb not in seen:
                    seen.add(nb)
                    if len(seen) > cap:
                        raise RuntimeError("commutation class too large")
                    queue.append(nb)
    return min(seen)


def scramble_chords(rng: random.Random, word, n: int, target: int, moves: int) -> list[int]:
    """Pad ``word`` to ``target`` letters with squares ``c c``, then apply
    ``moves`` random relation moves.  An adjacent square found by a move
    is deleted and a fresh one inserted elsewhere, so the length stays
    ``target`` (which must have the parity of ``len(word)``)."""
    w = list(word)
    while len(w) < target:
        i = rng.randrange(len(w) + 1)
        c = rng.randrange(1, 1 << n)
        w[i:i] = [c, c]
    if len(w) < 2:
        return w
    for _ in range(moves):
        i = rng.randrange(len(w) - 1)
        a, b = w[i], w[i + 1]
        if a == b:
            del w[i : i + 2]
            j = rng.randrange(len(w) + 1)
            c = rng.randrange(1, 1 << n)
            w[j:j] = [c, c]
        elif commute(a, b):
            w[i], w[i + 1] = b, a
    return w


def noncommuting_pair(rng: random.Random, n: int) -> tuple[int, int]:
    alphabet = noncentral_chords(n)
    while True:
        c, d = rng.choice(alphabet), rng.choice(alphabet)
        if not commute(c, d):
            return c, d


def chord_pair(rng: random.Random, n: int, length: int, equal: bool):
    """Two chord words of ``length`` letters, equal in the diagram group
    or not, built from one reduced base.  Returns the pair and the base;
    the first word always reduces to the base."""
    squares = length // 8
    core = length - 2 * squares
    base = random_reduced(rng, n, core)
    other = list(base)
    if not equal:
        c, d = noncommuting_pair(rng, n)
        i = rng.randrange(len(other) + 1)
        other[i:i] = [c, d, c, d]
    moves = 2 * length
    first = scramble_chords(rng, base, n, length, moves)
    second = scramble_chords(rng, other, n, max(length, len(other)), moves)
    return first, second, base


# --- cactus words -------------------------------------------------------------


def cactus_generators(n: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(1, n) for q in range(p + 1, n + 1)]


def scramble_cactus(rng: random.Random, word, n: int, target: int, moves: int) -> list:
    """Cactus-word twin of `scramble_chords`: squares, disjoint swaps and
    the nested rewrite, in both directions."""
    gens = cactus_generators(n)
    w = list(word)
    while len(w) < target:
        i = rng.randrange(len(w) + 1)
        g = rng.choice(gens)
        w[i:i] = [g, g]
    if len(w) < 2:
        return w
    for _ in range(moves):
        i = rng.randrange(len(w) - 1)
        x, y = w[i], w[i + 1]
        (p, q), (m, r) = x, y
        if x == y:
            del w[i : i + 2]
            j = rng.randrange(len(w) + 1)
            g = rng.choice(gens)
            w[j:j] = [g, g]
        elif q < m or r < p:
            w[i], w[i + 1] = y, x
        elif p <= m and r <= q:
            w[i], w[i + 1] = (p + q - r, p + q - m), x
        elif m <= p and q <= r:
            w[i], w[i + 1] = y, (m + r - q, m + r - p)
    return w


def odd_pure_word(k: int) -> list[tuple[int, int]]:
    """``(s_{k,k+1} s_{k,k+2})^3``: pure, meeting ``{k,k+1,k+2}`` three times."""
    return [(k, k + 1), (k, k + 2)] * 3


def cactus_pair(rng: random.Random, n: int, length: int, equal: bool):
    """Two cactus words of about ``length`` letters with the same
    permutation, equal in the cactus group or not."""
    gens = cactus_generators(n)
    squares = length // 8
    base = [rng.choice(gens) for _ in range(length - 2 * squares)]
    other = list(base)
    if not equal:
        i = rng.randrange(len(other) + 1)
        other[i:i] = odd_pure_word(rng.randrange(1, n - 1))
    moves = 2 * length
    first = scramble_cactus(rng, base, n, length, moves)
    second = scramble_cactus(rng, other, n, max(length, len(other)), moves)
    return first, second


def final_assignment(word, n: int) -> list[int]:
    """Labels at positions 1..n after reading the word, each letter
    reversing the labels at positions p..q."""
    assign = list(range(1, n + 1))
    for p, q in word:
        assign[p - 1 : q] = assign[p - 1 : q][::-1]
    return assign


def permutation(word, n: int) -> tuple[int, ...]:
    """Label -> final position."""
    images = [0] * n
    for pos, label in enumerate(final_assignment(word, n), start=1):
        images[label - 1] = pos
    return tuple(images)


def diagram(word, n: int) -> list[int]:
    """One chord per letter, joining the labels at positions p..q."""
    assign = list(range(1, n + 1))
    chords = []
    for p, q in word:
        mask = 0
        for label in assign[p - 1 : q]:
            mask |= 1 << (label - 1)
        chords.append(mask)
        assign[p - 1 : q] = assign[p - 1 : q][::-1]
    return chords


def odd_chords(word) -> list[int]:
    odd: set[int] = set()
    for c in word:
        odd ^= {c}
    return sorted(odd)


def big_chords(n: int) -> list[int]:
    return [m for m in range(1, 1 << n) if m.bit_count() > 2]


def purify(word, n: int) -> list:
    """Append adjacent transpositions that sort the labels back, making
    the word pure."""
    assign = final_assignment(word, n)
    out = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if assign[i] > assign[i + 1]:
                assign[i], assign[i + 1] = assign[i + 1], assign[i]
                out.append((i + 1, i + 2))
                changed = True
    return out


# --- commutators ------------------------------------------------------------------


def dihedral_image(word, a: int, c: int) -> tuple:
    """Image of ``word`` after killing every chord except ``a`` and ``c``:
    a freely reduced alternating word in the infinite dihedral group."""
    out: list[int] = []
    for x in word:
        if x == a or x == c:
            if out and out[-1] == x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def commutator_is_nontrivial(x, c: int, n: int) -> bool:
    """Sufficient condition for ``[x, c] != 1`` (centralizer criterion)."""
    for a in range(1, 1 << n):
        if not commute(a, c) and dihedral_image(x, a, c) not in ((), (c,)):
            return True
    return False


def commutator(rng: random.Random, n: int, depth: int) -> list[int]:
    """Left-normed ``[[c1, c2], ..., c_depth]``, each step certified
    nontrivial; ``[x, c] = x c x^-1 c`` since chords are involutions."""
    alphabet = noncentral_chords(n)
    x = [rng.choice(alphabet)]
    for _ in range(depth - 1):
        while True:
            c = rng.choice(alphabet)
            if commutator_is_nontrivial(x, c, n):
                break
        x = x + [c] + x[::-1] + [c]
    return x


# --- rendering --------------------------------------------------------------------


def render(word, n: int, cactus: bool) -> str:
    """ASCII picture: a bar row, then per letter a letter row and a bar row."""
    bar = " ".join("|" * n)
    rows = [bar]
    for letter in word:
        if cactus:
            p, q = letter
            marked = set(range(p, q + 1))
            lo, hi = p, q
            mark = "X"
        else:
            marked = set(members(letter))
            lo, hi = min(marked), max(marked)
            mark = "*"
        chars = []
        for strand in range(1, n + 1):
            chars.append(mark if strand in marked else "|")
            if strand < n:
                chars.append("-" if lo <= strand < hi else " ")
        rows.append("".join(chars))
        rows.append(bar)
    return "\n".join(rows)
