"""Seeded word generators and reference kernels shared across test modules."""

import os
import re
import subprocess
import sys
import tracemalloc

import cactus_groups
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
        if reference_is_lean(w.letters):
            return w
    raise AssertionError(f"no lean word of length {length} found at n={n}")


def noncentral_alphabet(n):
    """Chords that fail to commute with at least one other chord.

    Singleton chords and the full chord commute with every chord, so a lean
    word never repeats one; drawing from this alphabet makes rejection
    sampling of even lean words effective.
    """
    alpha = range(1, 1 << n)
    return tuple(a for a in alpha if any(_blocks(a, b) for b in alpha))


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
        if reference_is_lean(w.letters):
            return w
    raise AssertionError(f"no even lean word of {2 * pairs} letters found at n={n}")


# Five chords on a common strand plus the chords through every other strand:
# no two of them are nested or disjoint, so every pair crosses.
CROSSING_CHORDS_N6 = ("t{1,2}", "t{1,3}", "t{1,4}", "t{1,5}", "t{1,6}", "t{2,3,4,5,6}")


def nested_commutator_text(brackets):
    """Left-normed commutator [[..[[a, b], c], ..], z] of the first
    ``brackets + 1`` pairwise-crossing chords at n = 6, as diagram-word text.
    Chords are involutions, so [x, c] = x c x^-1 c with x^-1 read backwards.
    """
    chords = CROSSING_CHORDS_N6[: brackets + 1]
    word = [chords[0]]
    for chord in chords[1:]:
        word = word + [chord] + word[::-1] + [chord]
    return " ".join(word)


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


def reference_label_walk(w):
    """Chord diagram of a cactus word and its final position-to-label list,
    tracking the label list itself."""
    assign = list(range(1, w.n + 1))
    chords = []
    for g in w.letters:
        mask = 0
        for label in assign[g.p - 1 : g.q]:
            mask |= 1 << (label - 1)
        chords.append(mask)
        assign[g.p - 1 : g.q] = assign[g.p - 1 : g.q][::-1]
    return DiagramWord(w.n, tuple(chords)), assign


def identity_permutation(n):
    return tuple(range(1, n + 1))


def compose_permutations(a, b):
    """Apply ``a``, then ``b``; entry i - 1 of each is the destination of i."""
    return tuple(b[a[i] - 1] for i in range(len(a)))


def invert_permutation(a):
    inv = [0] * len(a)
    for i, img in enumerate(a):
        inv[img - 1] = i + 1
    return tuple(inv)


def generator_permutation(g, n):
    """The interval reversal i -> p+q-i on [p,q], identity elsewhere."""
    if not 1 <= g.p < g.q <= n:
        raise ValueError(f"invalid generator s_{{{g.p},{g.q}}} for arity {n}")
    return tuple(g.p + g.q - i if g.p <= i <= g.q else i for i in range(1, n + 1))


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


def run_fresh(script, argv, stdin=None, stdout=subprocess.PIPE):
    """``python -c script *argv`` in a fresh interpreter that imports the
    package from this checkout, with ``stdin`` as its input if given, and
    its output sent to ``stdout`` (captured by default)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cactus_groups.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, input=stdin, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
    )
