"""Separation certificates: machine-checkable witnesses of nontriviality.

A certificate records the minimal truncation degree at which a group
element's image in the truncated algebra differs from 1, together with the
nonzero homogeneous component at that degree.  Ring "f2-nilpotent" refers
to the mod-2 algebra with square-zero generators (each chord t_I maps
through 1 + t_I); ring "z-torsion-free" to the integer partially
commutative power-series algebra with the alternating-occurrence map.

The producers search degree by degree: each algebra yields the homogeneous
components of the lean word's image one degree at a time, every new degree
one pass over the prefixes of the word, and the search stops at the first
nonzero one.  `verify_certificate` takes the other road through the
algebra: it builds the whole truncated image (`f2_image` or `z_image`)
once, at the certified degree, and requires every lower component to
vanish and the top one to equal the witness.  The two paths share only
the kernel primitive.  `SeparationCertificate.from_json` validates the
layout below and raises `CertificateFormatError` for anything else.

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
from .algebra_f2 import f2_image
from .algebra_z import z_image
from .diagram_group import in_even_subgroup
from .words import (
    DiagramWord,
    MAX_STRAND,
    chord_mask,
    chord_members,
    format_diagram_word,
    parse_diagram_word,
)

RING_F2 = "f2-nilpotent"
RING_Z = "z-torsion-free"


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
        or members[-1] > MAX_STRAND
    ):
        raise CertificateFormatError(
            "a chord must be a nonempty, strictly ascending list of strands "
            f"numbered from 1 to {MAX_STRAND}, got {members!r}"
        )
    return chord_mask(members, members[-1])


@dataclass(frozen=True)
class SeparationCertificate:
    element: str
    ring: str
    degree: int
    witness: tuple  # ((monomial, coeff), ...), sorted; a monomial is canonical chord masks

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
        except (ValueError, RecursionError) as exc:  # deep nesting recurses
            raise CertificateFormatError(f"not JSON: {exc}") from None
        return cls.from_dict(data)


def _separate(w: DiagramWord, max_degree: int | None, components, ring: str):
    """The separation search of both rings: the first degree at which the
    image of the lean reduction has a nonzero homogeneous component, or
    None for the trivial element.  ``components(lean)`` yields the sorted
    nonconstant terms of that image, degree 1, 2, ... in turn.
    """
    if max_degree is not None and max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    lean = kernels.lean_reduce(w.letters)
    if not lean:
        return None
    cap = len(lean) if max_degree is None else min(max_degree, len(lean))
    for degree, terms in zip(range(1, cap + 1), components(lean)):
        if terms:
            return SeparationCertificate(format_diagram_word(w), ring, degree, terms)
    if cap < len(lean):
        raise DegreeCapReached(f"not separated by degree {cap}")
    raise RuntimeError("lean word image was trivial at its own length; impossible")


def verify_certificate(cert: SeparationCertificate) -> bool:
    """Recompute the truncated image of the certified element at the stated
    degree and confirm the witness is exactly the first nonzero component.

    The lean word's own monomial has coefficient 1 in F2 and +-1 in Z, so
    no element separates above its lean length; a certificate claiming a
    higher degree is rejected before any image is built.

    The element is read at arity `MAX_STRAND`, so it parses exactly when
    its strand numbers stay within the token bound; the arity changes
    nothing else, since neither algebra reads it.
    """
    try:
        word = parse_diagram_word(cert.element, MAX_STRAND)
    except ValueError:
        return False
    letters = kernels.lean_reduce(word.letters)
    if not letters or cert.degree > len(letters):
        return False
    lean = DiagramWord(word.n, letters)

    if cert.ring == RING_F2:
        image = f2_image(lean, cert.degree).support
        claimed = {(), *(mono for mono, _ in cert.witness)}
    else:
        # Lean reduction keeps every chord's parity.
        if not in_even_subgroup(lean):
            return False
        image = dict(z_image(lean, cert.degree).coeffs)
        claimed = {(): 1, **dict(cert.witness)}
    # Every witness monomial has length degree, so equality leaves the
    # components 1 ... degree - 1 empty.
    return image == claimed
