"""Separation certificates: machine-checkable witnesses of nontriviality.

A certificate records the minimal truncation degree at which a group
element's image in the truncated algebra differs from 1, together with the
nonzero homogeneous component at that degree.  Ring "f2-nilpotent" refers
to the mod-2 algebra with square-zero generators (each chord t_I maps
through 1 + t_I); ring "z-torsion-free" to the integer partially
commutative power-series algebra with the alternating-occurrence map.

`verify_certificate` recomputes the truncated image by direct expansion of
the defining product over subsequences of the word, a code path separate
from the letter-by-letter images that produced the certificate (the two
share only the kernel primitive), and confirms the witness and its
minimality.  `SeparationCertificate.from_json` validates the layout below
and raises `CertificateFormatError` for anything else.

JSON layout::

    {"element": "t{1,2} t{1,3} ...", "ring": "f2-nilpotent", "degree": 2,
     "witness": [{"monomial": [[1,2],[1,3]], "coeff": 1}, ...]}

where a monomial is a list of chords, each a strictly ascending strand
list, and no monomial appears twice in a witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import kernels
from .words import (
    DiagramWord,
    chord_mask,
    chord_members,
    format_diagram_word,
    parse_diagram_word,
)

RING_F2 = "f2-nilpotent"
RING_Z = "z-torsion-free"

Monomial = tuple  # tuple[int, ...], chord masks in canonical order


class DegreeCapReached(RuntimeError):
    """A separation search hit its degree cap before separating."""


class CertificateFormatError(ValueError):
    """Certificate data that does not follow the JSON layout."""


def _field(data, key: str, kind: type):
    if not isinstance(data, dict):
        raise CertificateFormatError(f"expected a JSON object, got {type(data).__name__}")
    if key not in data:
        raise CertificateFormatError(f"missing key {key!r}")
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise CertificateFormatError(
            f"{key!r} must be of type {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _chord(members) -> int:
    if (
        not isinstance(members, list)
        or not members
        or not all(type(i) is int and i >= 1 for i in members)
        or not all(a < b for a, b in zip(members, members[1:]))
    ):
        raise CertificateFormatError(
            "a chord must be a nonempty, strictly ascending list of strands "
            f"numbered from 1, got {members!r}"
        )
    return chord_mask(members, members[-1])


@dataclass(frozen=True)
class SeparationCertificate:
    element: str
    ring: str
    degree: int
    witness: tuple  # tuple[(Monomial, int), ...], sorted by monomial

    def __post_init__(self):
        if self.ring not in (RING_F2, RING_Z):
            raise ValueError(f"unknown ring {self.ring!r}")
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if not self.witness:
            raise ValueError("witness must be nonempty")
        if len({mono for mono, _ in self.witness}) != len(self.witness):
            raise ValueError("witness lists a monomial more than once")
        for mono, coeff in self.witness:
            if len(mono) != self.degree:
                raise ValueError("witness monomial length differs from degree")
            if coeff == 0 or (self.ring == RING_F2 and coeff != 1):
                raise ValueError(f"invalid witness coefficient {coeff}")

    def to_dict(self) -> dict:
        return {
            "element": self.element,
            "ring": self.ring,
            "degree": self.degree,
            "witness": [
                {"monomial": [list(chord_members(m)) for m in mono], "coeff": coeff}
                for mono, coeff in self.witness
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> SeparationCertificate:
        """Read the JSON layout; `CertificateFormatError` for any deviation."""
        element = _field(data, "element", str)
        ring = _field(data, "ring", str)
        degree = _field(data, "degree", int)
        witness = []
        for entry in _field(data, "witness", list):
            mono = tuple(_chord(chord) for chord in _field(entry, "monomial", list))
            witness.append((mono, _field(entry, "coeff", int)))
        try:
            return cls(element, ring, degree, tuple(sorted(witness)))
        except ValueError as exc:
            raise CertificateFormatError(str(exc)) from None

    @classmethod
    def from_json(cls, text: str) -> SeparationCertificate:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise CertificateFormatError(f"not JSON: {exc}") from None
        return cls.from_dict(data)


def _separate(w: DiagramWord, max_degree: int | None, image, ring: str):
    """The separation search of both rings: the first truncation degree at
    which ``image`` of the lean reduction differs from 1, or None for the
    trivial element.
    """
    if max_degree is not None and max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    lean = kernels.lean_reduce(w.letters)
    if not lean:
        return None
    reduced = DiagramWord(w.n, lean)
    cap = len(lean) if max_degree is None else min(max_degree, len(lean))
    for k in range(1, cap + 1):
        series = image(reduced, k)
        if not series.is_one():
            return SeparationCertificate(format_diagram_word(w), ring, k, series.terms())
    if cap < len(lean):
        raise DegreeCapReached(f"not separated by degree {cap}")
    raise RuntimeError("lean word image was trivial at its own length; impossible")


def _infer_arity(cert: SeparationCertificate) -> int:
    strands = [1]
    for token in cert.element.replace("t{", " ").replace("}", " ").replace(",", " ").split():
        strands.append(int(token))
    for mono, _ in cert.witness:
        for mask in mono:
            strands.append(mask.bit_length())
    return max(strands)


def _expand_f2(letters: tuple, degree: int) -> dict:
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


def _expand_z(letters: tuple, degree: int) -> dict:
    """Degree -> {monomial: coeff}, by direct expansion of the alternating
    product: the c-th occurrence of a chord contributes 1 + t for odd c and
    the truncated geometric inverse for even c; choose one term per factor.

    Like `_expand_f2`, the walk visits each choice of non-constant terms
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


def verify_certificate(cert: SeparationCertificate, n: int | None = None) -> bool:
    """Recompute the truncated image of the certified element at the stated
    degree and confirm the witness is exactly the first nonzero component.
    """
    try:
        if n is None:
            n = _infer_arity(cert)
        word = parse_diagram_word(cert.element, n)
    except ValueError:
        return False
    letters = kernels.lean_reduce(word.letters)
    if not letters:
        return False

    if cert.ring == RING_F2:
        components = _expand_f2(letters, cert.degree)
        claimed = {mono for mono, _ in cert.witness}
    else:
        parity = set()
        for mask in word.letters:
            parity.symmetric_difference_update((mask,))
        if parity:
            return False
        components = _expand_z(letters, cert.degree)
        claimed = dict(cert.witness)

    for d in range(1, cert.degree):
        if components[d]:
            return False
    return components[cert.degree] == claimed
