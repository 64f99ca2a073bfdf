"""ASCII pictures of cactus words and chord diagrams.

Strands run top to bottom, one character column per strand (two screen
columns apart).  Each letter occupies one row between plain rows:

* a cactus letter is a block of ``X`` marks over the strands it reverses;
* a diagram letter is a chord row with ``*`` on its member strands.
"""

from __future__ import annotations

from .words import CactusGenerator, CactusWord, DiagramWord, chord_members

MAX_STRANDS = 26


def _row(members, mark: str, n: int) -> str:
    """One letter's row: ``mark`` on each member strand, ``|`` on the
    others, and ``-`` joining the first member to the last."""
    lo, hi = members[0], members[-1]
    chars = []
    for col in range(2 * n - 1):
        strand = col // 2 + 1
        if col % 2 == 0:
            chars.append(mark if strand in members else "|")
        else:
            chars.append("-" if lo <= strand < hi else " ")
    return "".join(chars)


def render_ascii(w: CactusWord | DiagramWord) -> str:
    """Multi-line drawing of the word, one row per letter.

    >>> print(render_ascii(CactusWord(3, (CactusGenerator(1, 2),))))
    | | |
    X-X |
    | | |
    >>> print(render_ascii(DiagramWord(4, (0b1011,))))
    | | | |
    *-*-|-*
    | | | |
    """
    if w.n > MAX_STRANDS:
        raise ValueError(f"cannot render more than {MAX_STRANDS} strands, got {w.n}")
    if isinstance(w, CactusWord):
        rows = [_row(range(p, q + 1), "X", w.n) for p, q in w.letters]
    else:
        rows = [_row(chord_members(mask), "*", w.n) for mask in w.letters]
    bar = " ".join("|" * w.n)
    return bar + "".join(f"\n{row}\n{bar}" for row in rows)
