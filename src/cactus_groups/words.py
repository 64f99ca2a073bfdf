"""Word types and text grammars for the two generator alphabets.

Cactus words are sequences of interval generators ``s{p},{q}`` acting on n
strands; diagram words are sequences of chords ``t{a,b,...}``, each chord a
nonempty subset of strands stored as an int bitmask (bit ``1 << (i - 1)``
for strand ``i``).  Both grammars are whitespace-separated token lists and
an empty string denotes the identity; arity is always supplied separately,
never inferred from the tokens, and is checked before any token is read.
The arity and every generator strand are integers, checked with
`operator.index` when a word is built: a float, which would print as
text no parser reads, raises `TypeError` there.

Each arity n up to `_TABLE_ARITY` has one table per grammar, built once
per process: it maps every spelling the formatters print for that arity,
the 2^n - 1 chords ``t{...}`` and the n(n-1)/2 generators ``s<p>,<q>``,
to its letter, so a word parses with one table lookup per token, in C.
The first token a table misses (a bad token, or a valid spelling the
formatters never print, such as ``t{01,2}``, ``s01,2`` or non-ASCII
digits), and any arity past the bound, sends the whole word to the
validating path, so every accepted word and every error is the same
with or without the tables.  User tokens are never cached: such
spellings make the set of valid tokens unbounded, and one token can be
megabytes long.  The validating path collects the distinct tokens in
first-occurrence order (`dict.fromkeys`, in C), validates each once and
reuses the result for every repeat.  The first bad distinct token is the
earliest bad token, so the error and its position, worked out only then,
are the same as for a token-by-token scan.  Every parsed word, from a
table or validated, is built without its constructor's check: its arity
was checked first, and each of its letters is valid at that arity.

Printing a word of arity n up to the bound goes through the same
tables, inverted, with one lookup per letter; a word of a larger arity
is spelled letter by letter from its strand members.  The tables are
built by doubling the chord spellings strand by strand, and all of
them, with their inverses, stay under 0.4 MB.

Strand numbers in tokens are bounded by `MAX_STRAND`, independently of the
arity: the strand walk and the chord masks take memory that grows with the
largest strand number, which a short token could otherwise make huge.

This module is the one home of the word types and their parsing and
printing; the package root reads them from here on first use.
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
    if operator.index(n) < 1:
        raise ValueError(f"arity must be positive, got {n}")


def _check_degree(degree: int) -> None:
    """The one degree check of both algebras' images and series: refuse a
    truncation degree that is not an int (a bool too) or is below 1."""
    if type(degree) is not int:
        raise ValueError(f"truncation degree must be an int, got {degree!r}")
    if degree < 1:
        raise ValueError("truncation degree must be at least 1")


_setattr = object.__setattr__


class _Frozen:
    """A frozen dataclass without `dataclasses`, which loads `inspect`: the
    fields are the class annotations, set through ``object.__setattr__`` as
    a dataclass does, since a ``__dict__`` read slows later attribute reads.
    A subclass without annotations keeps its base's fields."""

    def __init_subclass__(cls):
        fields = tuple(vars(cls).get("__annotations__", ()))
        if fields:
            cls._fields = fields
            cls._astuple = staticmethod(operator.attrgetter(*fields))  # two fields or more

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            args += tuple(kwargs.pop(field) for field in fields[len(args):] if field in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(fields)}")
        for field, value in zip(fields, args):
            _setattr(self, field, value)
        self.__post_init__()

    @classmethod
    def _unchecked(cls, first, second):
        """An instance of a two-field type built without `__post_init__`,
        for a caller that already holds what it would check and convert to:
        for a word, a checked arity and a tuple of letters valid at it."""
        obj = object.__new__(cls)
        one, two = cls._fields
        _setattr(obj, one, first)
        _setattr(obj, two, second)
        return obj

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


class _Word(_Frozen):
    """Arity n and letters, kept as a tuple; a subclass checks its letters
    in `_check_letters`."""

    n: int
    letters: tuple

    def __post_init__(self):
        _setattr(self, "letters", tuple(self.letters))
        _check_arity(self.n)
        self._check_letters()

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"arity mismatch: {self.n} != {other.n}")
        # unchecked: both factors were checked, and at the same arity
        return self._unchecked(self.n, self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)


class CactusGenerator(NamedTuple):
    """The interval generator s_{p,q}, reversing strands p..q (1 <= p < q)."""

    p: int
    q: int


class CactusWord(_Word):
    """A word in the interval generators; the carrier of cactus group elements.

    >>> CactusWord(3, (CactusGenerator(1, 2), CactusGenerator(1, 3))).n
    3
    """

    def _check_letters(self):
        n, index = self.n, operator.index
        # every letter, not each distinct one: (1.0, 2) equals (1, 2)
        for g in self.letters:
            if not isinstance(g, CactusGenerator):  # a plain (p, q) tuple too
                raise TypeError(f"letter {g!r} is not a CactusGenerator")
            p, q = index(g.p), index(g.q)
            if not 1 <= p < q <= n:
                raise ValueError(f"invalid generator s_{{{g.p},{g.q}}} for arity {n}")


def chord_mask(members: Iterable[int], n: int) -> int:
    """Bitmask of a chord from its strand members (each in 1..n and at most
    `MAX_STRAND`, nonempty)."""
    mask = 0
    for i in members:
        if type(i) is not int:  # True and 1.0 equal 1
            raise ValueError(f"strand {i!r} is not an int")
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


class DiagramWord(_Word):
    """A word in the chord generators; the carrier of diagram group elements."""

    def _check_letters(self):
        n, letters = self.n, self.letters
        # ``mask >> n`` instead of ``mask < 1 << n``, which would build an
        # n-bit integer; min and max run in C, the search only on failure
        if letters and (min(letters) <= 0 or max(letters) >> n):
            mask = next(m for m in letters if m <= 0 or m >> n)
            raise ValueError(f"chord {mask:#b} out of range for arity {n}")


def _parse(
    cls: type, text: str, n: int, letter: Callable[[str, int], Any], table: Callable[[int], dict]
):
    """The word of arity n spelled by ``text``.  Its letters are looked up in
    ``table(n)`` when every token is there; otherwise ``letter(token, n)``
    validates one token or raises `ValueError`, each distinct token once.
    Either way the arity is checked first and every letter is valid at n,
    so the word is built without its constructor's check."""
    _check_arity(n)
    tokens = text.split()
    if n <= _TABLE_ARITY:
        try:
            return cls._unchecked(n, tuple(map(table(n).__getitem__, tokens)))
        except KeyError:
            pass
    seen = dict.fromkeys(tokens)
    for token in seen:
        try:
            seen[token] = letter(token, n)
        except ValueError as exc:
            raise ParseError(str(exc), token, tokens.index(token) + 1) from None
    return cls._unchecked(n, tuple(map(seen.__getitem__, tokens)))


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
def _spellings(table: Callable[[int], dict], n: int) -> dict:
    """Inverse of ``table(n)``, either grammar's: letter -> printed spelling."""
    spelled = table(n)
    return dict(zip(spelled.values(), spelled))


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
    if w.n <= _TABLE_ARITY:
        return " ".join(map(_spellings(_generator_table, w.n).__getitem__, w.letters))
    # %d spells a strand as its number, as the tables do: True prints as 1
    return " ".join("s%d,%d" % g for g in w.letters)


def _strands_mask(members: list, n: int) -> int:
    """Mask of a chord spelled as a list of int strands, which must be
    nonempty, strictly ascending, from 1, and at most n and `MAX_STRAND`;
    `ValueError` otherwise.  The one check of a strand list: the token
    grammar and the certificate reader both call it."""
    if not members:
        raise ValueError("chord must be nonempty")
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


def _chord(token: str, n: int) -> int:
    m = _DIAGRAM_TOKEN.match(token)
    if m is None:
        raise ValueError("expected t{a,b,...}")
    return _strands_mask(list(map(int, m.group(1).split(","))), n)


def parse_diagram_word(text: str, n: int) -> DiagramWord:
    """Parse ``t{a,b,...}`` tokens (strictly ascending members, 1..n).

    >>> parse_diagram_word("t{1,2} t{1,2,3}", 3).letters == (0b011, 0b111)
    True
    """
    return _parse(DiagramWord, text, n, _chord, _chord_table)


def format_chord(mask: int) -> str:
    members = chord_members(mask)
    if not members:
        raise ValueError("chord must be nonempty")
    return "t{" + ",".join(map(str, members)) + "}"


def format_diagram_word(w: DiagramWord) -> str:
    """Inverse of `parse_diagram_word`; identity prints as the empty string."""
    if w.n <= _TABLE_ARITY:
        return " ".join(map(_spellings(_chord_table, w.n).__getitem__, w.letters))
    return " ".join(format_chord(mask) for mask in w.letters)
