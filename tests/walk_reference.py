"""Truncated images by subsequence expansion, as references.

The image of a word is a product with one factor per letter; expanding it
chooses one term of each factor, so every homogeneous component is a sum
over subsequences of the word.  These walkers enumerate those choices one
by one, which costs about C(L, <= d) appends for L letters and degree d.
That is far too slow for the library, but it shares nothing with the
letter-by-letter images or the degree-by-degree separation search except
`append_slot`, so tests check both against it on short words.
"""

from __future__ import annotations

from cactus_groups import kernels


def expand_f2(letters: tuple, degree: int) -> dict:
    """Degree -> {monomial} with odd coefficient, by subsequence expansion.

    The image of a word under t -> 1 + t is the sum over subsequences of
    the subsequence's monomial.  Each subsequence is grown one chosen
    letter at a time and kept canonical by appending; once a chosen letter
    meets an equal one across commuting letters the monomial is zero, and
    every extension of it stays zero, so the branch is dropped.  The walk
    runs on an explicit stack, so no word length meets the recursion limit.
    """
    components: dict[int, set] = {d: set() for d in range(1, degree + 1)}
    stack = [(0, ())]  # (next letter that may be chosen, monomial so far)
    while stack:
        start, mono = stack.pop()
        if mono:
            components[len(mono)].symmetric_difference_update((mono,))
        if len(mono) == degree:
            continue
        for i in range(start, len(letters)):
            letter = letters[i]
            slot = kernels.append_slot(mono, letter)
            if slot >= 0:
                stack.append((i + 1, mono[:slot] + (letter,) + mono[slot:]))
    return components


def expand_z(letters: tuple, degree: int) -> dict:
    """Degree -> {monomial: coeff}, by direct expansion of the alternating
    product: the c-th occurrence of a chord contributes 1 + t for odd c and
    the truncated geometric inverse for even c; choose one term per factor.

    Like `expand_f2`, the walk visits each choice of non-constant terms
    once, on an explicit stack, appending t^j to the monomial as j letters.
    """
    seen: dict[int, int] = {}
    factors = []  # (mask, is_odd_occurrence)
    for mask in letters:
        count = seen.get(mask, 0) + 1
        seen[mask] = count
        factors.append((mask, count % 2 == 1))

    components: dict[int, dict] = {d: {} for d in range(1, degree + 1)}
    stack = [(0, (), 1)]  # (next factor, monomial so far, sign)
    while stack:
        start, mono, sign = stack.pop()
        if mono:
            comp = components[len(mono)]
            coeff = comp.get(mono, 0) + sign
            if coeff:
                comp[mono] = coeff
            else:
                del comp[mono]
        room = degree - len(mono)
        if not room:
            continue
        for i in range(start, len(factors)):
            mask, odd = factors[i]
            grown, term_sign = mono, sign
            for _ in range(1 if odd else room):
                slot = kernels.append_slot(grown, mask, cancel=False)
                grown = grown[:slot] + (mask,) + grown[slot:]
                if not odd:
                    term_sign = -term_sign
                stack.append((i + 1, grown, term_sign))
    return components
