"""Word types and text grammars for the two generator alphabets.

Cactus words are sequences of interval generators ``s{p},{q}`` acting on n
strands; diagram words are sequences of chords ``t{a,b,...}``, each chord a
nonempty subset of strands stored as an int bitmask (bit ``1 << (i - 1)``
for strand ``i``).  Both grammars are whitespace-separated token lists and
an empty string denotes the identity; arity is always supplied separately,
never inferred from the tokens, and is checked before any token is read.

Each arity n up to `_TABLE_ARITY` has one table per grammar, built once
per process: it maps every spelling the formatters print for that arity,
the 2^n - 1 chords ``t{...}`` and the n(n-1)/2 generators ``s<p>,<q>``,
to its letter, so a word parses with one table lookup per token, in C,
and is built without its constructor's check, since every letter in the
table is valid at that arity.  The first token a table misses (a bad
token, or a valid spelling the formatters never print, such as
``t{01,2}``, ``s01,2`` or non-ASCII digits), and any arity past the
bound, sends the whole word to the validating path, so every accepted
word and every error is the same with or without the tables.  User
tokens are never cached: such spellings make the set of valid tokens
unbounded, and one token can be megabytes long.

Printing a word of arity n up to the bound goes through the same
tables, inverted, with one lookup per letter; a word of a larger arity
is spelled letter by letter from its strand members.  The tables are
built by doubling the chord spellings strand by strand, and all of
them, with their inverses, stay under 0.4 MB.

The validating path collects the distinct tokens in first-occurrence
order (`dict.fromkeys`, in C), validates each once and reuses the result
for every repeat.  The first bad distinct token is the earliest bad
token, so the error and its position, worked out only then, are the same
as for a token-by-token scan.

Strand numbers in tokens are bounded by `MAX_STRAND`, independently of the
arity: the strand walk and the chord masks take memory that grows with the
largest strand number, which a short token could otherwise make huge.

This module is the one home of the types and the parsing/printing; the
package root exports them too, and the group modules import them from
here.
"""

from __future__ import annotations

import functools
import operator
import re
from typing import Any, Callable, Iterable, NamedTuple


# Largest strand number a token or chord may name; `s1,4096` walks in ~1 MB.
MAX_STRAND = 4096

# Largest arity with spelling tables: 1,023 chords at the bound.
_TABLE_ARITY = 10


class ParseError(ValueError):
    """A word failed to parse; carries the offending token and its position.

    ``position`` is the 1-based index of the token within the input.
    """

    def __init__(self, message: str, token: str, position: int):
        super().__init__(f"token {position} ({token!r}): {message}")
        self.token = token
        self.position = position


def _check_arity(n: int) -> None:
    if n < 1:
        raise ValueError(f"arity must be positive, got {n}")


_setattr = object.__setattr__


class _Frozen:
    """A frozen dataclass without `dataclasses`, which loads `inspect`: the
    fields are the class annotations, set through ``object.__setattr__`` as
    a dataclass does, since a ``__dict__`` read slows later attribute reads."""

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._astuple = staticmethod(operator.attrgetter(*cls._fields))  # two fields or more

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            args += tuple(kwargs.pop(field) for field in fields[len(args):] if field in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(fields)}")
        for field, value in zip(fields, args):
            _setattr(self, field, value)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self._astuple(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CactusGenerator(NamedTuple):
    """The interval generator s_{p,q}, reversing strands p..q (1 <= p < q)."""

    p: int
    q: int


class CactusWord(_Frozen):
    """A word in the interval generators; the carrier of cactus group elements.

    >>> CactusWord(3, (CactusGenerator(1, 2), CactusGenerator(1, 3))).n
    3
    """

    n: int
    letters: tuple[CactusGenerator, ...]

    def __post_init__(self):
        _check_arity(self.n)
        for g in dict.fromkeys(self.letters):
            if not 1 <= g.p < g.q <= self.n:
                raise ValueError(f"invalid generator s_{{{g.p},{g.q}}} for arity {self.n}")

    def __mul__(self, other: "CactusWord") -> "CactusWord":
        if self.n != other.n:
            raise ValueError(f"arity mismatch: {self.n} != {other.n}")
        return CactusWord(self.n, self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)


def chord_mask(members: Iterable[int], n: int) -> int:
    """Bitmask of a chord from its strand members (each in 1..n and at most
    `MAX_STRAND`, nonempty)."""
    mask = 0
    for i in members:
        if not 1 <= i <= n:
            raise ValueError(f"strand {i} out of range 1..{n}")
        if i > MAX_STRAND:
            raise ValueError(f"strand {i} exceeds the bound {MAX_STRAND}")
        mask |= 1 << (i - 1)
    if mask == 0:
        raise ValueError("chord must be nonempty")
    return mask


def chord_members(mask: int) -> tuple[int, ...]:
    """Ascending strand members of a chord bitmask.

    >>> chord_members(0b1011)
    (1, 2, 4)
    """
    if mask < 0:
        raise ValueError(f"chord mask must be nonnegative, got {mask}")
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class DiagramWord(_Frozen):
    """A word in the chord generators; the carrier of diagram group elements."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        _check_arity(n)
        # ``mask >> n`` instead of ``mask < 1 << n``, which would build an
        # n-bit integer; min and max run in C, the search only on failure
        letters = self.letters
        if letters and (min(letters) <= 0 or max(letters) >> n):
            mask = next(m for m in letters if m <= 0 or m >> n)
            raise ValueError(f"chord {mask:#b} out of range for arity {n}")

    def __mul__(self, other: "DiagramWord") -> "DiagramWord":
        if self.n != other.n:
            raise ValueError(f"arity mismatch: {self.n} != {other.n}")
        return DiagramWord(self.n, self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)


def _parse(
    cls: type, text: str, n: int, letter: Callable[[str, int], Any], table: Callable[[int], dict]
):
    """The word of arity n spelled by ``text``.  Its letters are looked up in
    ``table(n)`` when every token is there, and the word is then built
    without its constructor's check: a table holds only letters valid at
    arity n.  Otherwise ``letter(token, n)`` validates one token or raises
    `ValueError`, each distinct token is validated once, and the
    constructor checks the word as usual."""
    _check_arity(n)
    tokens = text.split()
    # exact ints only: the tables are built over range(1, n + 1)
    if type(n) is int and n <= _TABLE_ARITY:
        try:
            letters = tuple(map(table(n).__getitem__, tokens))
        except KeyError:
            pass
        else:
            # both word classes have exactly the fields n and letters
            w = object.__new__(cls)
            object.__setattr__(w, "n", n)
            object.__setattr__(w, "letters", letters)
            return w
    seen = dict.fromkeys(tokens)
    for token in seen:
        try:
            seen[token] = letter(token, n)
        except ValueError as exc:
            raise ParseError(str(exc), token, tokens.index(token) + 1) from None
    return cls(n, tuple(map(seen.__getitem__, tokens)))


@functools.cache
def _generator_table(n: int) -> dict[str, CactusGenerator]:
    """Every printed spelling ``s<p>,<q>`` at arity n -> its generator."""
    return {f"s{p},{q}": CactusGenerator(p, q) for q in range(2, n + 1) for p in range(1, q)}


@functools.cache
def _chord_table(n: int) -> dict[str, int]:
    """Every printed spelling ``t{...}`` at arity n -> its chord mask.

    Strand i doubles the list of member lists: each one without i, and the
    same with i appended, which keeps the members ascending.
    """
    bodies = [("", 0)]
    for i in range(1, n + 1):
        bit = 1 << (i - 1)
        bodies += [(f"{body},{i}" if mask else str(i), mask | bit) for body, mask in bodies]
    return {f"t{{{body}}}": mask for body, mask in bodies[1:]}


@functools.cache
def _generator_spellings(n: int) -> dict[CactusGenerator, str]:
    """Inverse of `_generator_table(n)`: generator -> printed spelling."""
    table = _generator_table(n)
    return dict(zip(table.values(), table))


@functools.cache
def _chord_spellings(n: int) -> dict[int, str]:
    """Inverse of `_chord_table(n)`: chord mask -> printed spelling."""
    table = _chord_table(n)
    return dict(zip(table.values(), table))


_CACTUS_TOKEN = re.compile(r"s(\d+),(\d+)\Z")
_DIAGRAM_TOKEN = re.compile(r"t\{(\d+(?:,\d+)*)\}\Z")


def _cactus_generator(token: str, n: int) -> CactusGenerator:
    m = _CACTUS_TOKEN.match(token)
    if m is None:
        raise ValueError("expected s<p>,<q>")
    p, q = map(int, m.groups())
    if p < 1:
        raise ValueError("p must be at least 1")
    if p >= q:
        raise ValueError("p must be less than q")
    if q > n:
        raise ValueError(f"q exceeds arity {n}")
    if q > MAX_STRAND:
        raise ValueError(f"q exceeds the strand bound {MAX_STRAND}")
    return CactusGenerator(p, q)


def parse_cactus_word(text: str, n: int) -> CactusWord:
    """Parse ``s<p>,<q>`` tokens separated by whitespace; empty = identity.

    >>> parse_cactus_word("s1,2  s1,3", 3).letters
    (CactusGenerator(p=1, q=2), CactusGenerator(p=1, q=3))
    >>> len(parse_cactus_word("", 5))
    0
    """
    return _parse(CactusWord, text, n, _cactus_generator, _generator_table)


def format_cactus_word(w: CactusWord) -> str:
    """Inverse of `parse_cactus_word`; identity prints as the empty string."""
    # exact ints only, as in `_parse`; the table holds every generator of
    # arity n unless one was built by hand with strands that are not ints
    if type(w.n) is int and w.n <= _TABLE_ARITY:
        try:
            return " ".join(map(_generator_spellings(w.n).__getitem__, w.letters))
        except KeyError:
            pass
    return " ".join(f"s{g.p},{g.q}" for g in w.letters)


def _chord(token: str, n: int) -> int:
    m = _DIAGRAM_TOKEN.match(token)
    if m is None:
        raise ValueError("expected t{a,b,...}")
    members = list(map(int, m.group(1).split(",")))
    if not all(map(operator.lt, members, members[1:])):
        raise ValueError("members must be strictly ascending")
    if members[0] < 1:
        raise ValueError("strands are numbered from 1")
    if members[-1] > n:
        raise ValueError(f"strand exceeds arity {n}")
    if members[-1] > MAX_STRAND:
        raise ValueError(f"strand exceeds the bound {MAX_STRAND}")
    # distinct members, so the sum of their bits is the mask
    return sum(map((1).__lshift__, members)) >> 1


def parse_diagram_word(text: str, n: int) -> DiagramWord:
    """Parse ``t{a,b,...}`` tokens (strictly ascending members, 1..n).

    >>> parse_diagram_word("t{1,2} t{1,2,3}", 3).letters == (0b011, 0b111)
    True
    """
    return _parse(DiagramWord, text, n, _chord, _chord_table)


def format_chord(mask: int) -> str:
    return "t{" + ",".join(str(i) for i in chord_members(mask)) + "}"


def format_diagram_word(w: DiagramWord) -> str:
    """Inverse of `parse_diagram_word`; identity prints as the empty string."""
    if type(w.n) is int and w.n <= _TABLE_ARITY:
        return " ".join(map(_chord_spellings(w.n).__getitem__, w.letters))
    return " ".join(format_chord(mask) for mask in w.letters)
