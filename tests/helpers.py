"""Seeded word generators and reference kernels shared across test modules."""

import re
import tracemalloc

from cactus_groups import _kernels_py
from cactus_groups.diagram_group import is_lean
from cactus_groups.words import CactusGenerator, CactusWord, DiagramWord, ParseError


def all_generators(n):
    return [CactusGenerator(p, q) for p in range(1, n) for q in range(p + 1, n + 1)]


def random_cactus_word(rng, n, length):
    gens = all_generators(n)
    return CactusWord(n, tuple(rng.choice(gens) for _ in range(length)))


def random_diagram_word(rng, n, length):
    return DiagramWord(n, tuple(rng.randrange(1, 1 << n) for _ in range(length)))


def random_lean_word(rng, n, length, tries=2000):
    """A lean word of exactly `length` letters, by rejection sampling."""
    for _ in range(tries):
        w = random_diagram_word(rng, n, length)
        if is_lean(w):
            return w
    raise AssertionError(f"no lean word of length {length} found at n={n}")


def noncentral_alphabet(n):
    """Chords that fail to commute with at least one other chord.

    Singleton chords and the full chord commute with every chord, so a lean
    word never repeats one; drawing from this alphabet makes rejection
    sampling of even lean words effective.
    """
    alpha = range(1, 1 << n)
    return tuple(
        a for a in alpha if any(not _kernels_py.commutes(a, b) for b in alpha)
    )


def random_even_word(rng, n, pairs, alphabet=None):
    """A word with every chord multiplicity even: a doubled multiset, shuffled."""
    alphabet = alphabet or tuple(range(1, 1 << n))
    base = [rng.choice(alphabet) for _ in range(pairs)]
    letters = base + base
    rng.shuffle(letters)
    return DiagramWord(n, tuple(letters))


def random_even_lean_word(rng, n, pairs, tries=5000):
    """A lean word with all chord parities even, of length 2 * pairs."""
    alphabet = noncentral_alphabet(n)
    for _ in range(tries):
        w = random_even_word(rng, n, pairs, alphabet)
        if is_lean(w):
            return w
    raise AssertionError(f"no even lean word of {2 * pairs} letters found at n={n}")


def _blocks(a, b):
    c = a & b
    return c != 0 and c != a and c != b


def reference_is_lean(word):
    """Scan right from each letter: a later equal letter reached across
    commuting letters only is exactly a deletable (non-lean) pair."""
    for i, a in enumerate(word):
        for b in word[i + 1 :]:
            if b == a:
                return False
            if _blocks(a, b):
                break
    return True


def reference_lean_reduce(word):
    """Greedy lean reduction: delete the leftmost deletable pair, innermost
    match for that left endpoint, and rescan from the start until lean."""
    letters = list(word)
    changed = True
    while changed:
        changed = False
        for i, a in enumerate(letters):
            for j in range(i + 1, len(letters)):
                if letters[j] == a:
                    del letters[j], letters[i]
                    changed = True
                    break
                if _blocks(a, letters[j]):
                    break
            if changed:
                break
    return tuple(letters)


def reference_lex_least(word):
    """Greedy extraction of the least word of a commutation class: a letter
    can move to the front iff everything before it commutes with it, and
    the least movable letter is always taken."""
    remaining = list(word)
    out = []
    while remaining:
        best = None
        for j, b in enumerate(remaining):
            movable = not any(_blocks(a, b) for a in remaining[:j])
            if movable and (best is None or b < remaining[best]):
                best = j
        out.append(remaining.pop(best))
    return tuple(out)


def reference_canonical_if_lean(word):
    return reference_lex_least(word) if reference_is_lean(word) else None


def reference_append_slot(word, letter, cancel=True):
    """Index-based backward scan: where `letter` goes when appended to the
    canonical word `word`, or ~j when it cancels the equal letter at j."""
    slot = len(word)
    for j in range(len(word) - 1, -1, -1):
        b = word[j]
        if b == letter:
            if cancel:
                return ~j
            continue
        if _blocks(b, letter):
            break
        if b > letter:
            slot = j
    return slot


def peak_bytes(call):
    """Peak memory, in bytes, that ``call()`` allocates beyond what was
    allocated when it started, as tracemalloc sees it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def reference_diagram_of(w):
    """Chord diagram of a cactus word, tracking the label list itself."""
    assign = list(range(1, w.n + 1))
    chords = []
    for g in w.letters:
        mask = 0
        for label in assign[g.p - 1 : g.q]:
            mask |= 1 << (label - 1)
        chords.append(mask)
        assign[g.p - 1 : g.q] = assign[g.p - 1 : g.q][::-1]
    return DiagramWord(w.n, tuple(chords))


def reference_parse_cactus_word(text, n):
    """Token-by-token parser: every token is validated where it stands."""
    letters = []
    for pos, token in enumerate(text.split(), start=1):
        m = re.fullmatch(r"s(\d+),(\d+)", token)
        if m is None:
            raise ParseError("expected s<p>,<q>", token, pos)
        p, q = int(m.group(1)), int(m.group(2))
        if p < 1:
            raise ParseError("p must be at least 1", token, pos)
        if p >= q:
            raise ParseError("p must be less than q", token, pos)
        if q > n:
            raise ParseError(f"q exceeds arity {n}", token, pos)
        letters.append(CactusGenerator(p, q))
    return CactusWord(n, tuple(letters))


def reference_parse_diagram_word(text, n):
    """Token-by-token parser: every token is validated where it stands."""
    letters = []
    for pos, token in enumerate(text.split(), start=1):
        m = re.fullmatch(r"t\{(\d+(?:,\d+)*)\}", token)
        if m is None:
            raise ParseError("expected t{a,b,...}", token, pos)
        members = [int(s) for s in m.group(1).split(",")]
        if any(a >= b for a, b in zip(members, members[1:])):
            raise ParseError("members must be strictly ascending", token, pos)
        if members[0] < 1:
            raise ParseError("strands are numbered from 1", token, pos)
        if members[-1] > n:
            raise ParseError(f"strand exceeds arity {n}", token, pos)
        letters.append(sum(1 << (i - 1) for i in members))
    return DiagramWord(n, tuple(letters))
