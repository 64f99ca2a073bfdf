"""Separation certificates: machine-checkable witnesses of nontriviality.

A certificate records the minimal truncation degree at which a group
element's image in the truncated algebra differs from 1, together with the
nonzero homogeneous component at that degree.  Ring "f2-nilpotent" refers
to the mod-2 algebra with square-zero generators (each chord t_I maps
through 1 + t_I); ring "z-torsion-free" to the integer partially
commutative power-series algebra with the alternating-occurrence map.

The whole separation search lives here: one graded engine,
`_graded_terms`, serves both rings, and `_separate` stops it at the first
nonzero component.  `verify_certificate` takes the other road through the
algebra: it builds the whole truncated image (`f2_image` or `z_image`)
once, at the certified degree, and requires every lower component to
vanish and the top one to equal the witness.  The verifier shares the
parsing of the element, `lean_reduce` and the `append_slot` scan with the
producer; it does not share the engine, which it checks against the
images.  `SeparationCertificate.from_json` validates the layout below and
raises `CertificateFormatError` for anything else.

JSON layout::

    {"element": "t{1,2} t{1,3} ...", "ring": "f2-nilpotent", "degree": 2,
     "witness": [{"monomial": [[1,2],[1,3]], "coeff": 1}, ...]}

where a monomial is a list of chords, each a strictly ascending strand
list, and no monomial appears twice in a witness.  The reader refuses a
strand that is not a JSON integer (``true`` and ``1.0`` among them) and
leaves the strand list itself to `words`, whose one check also serves the
token grammar.  Neither algebra reads a group layer, so this module loads
only `words`, `kernels` and the two algebras.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import kernels
from .algebra_f2 import f2_image
from .algebra_z import _occurrence_signs, z_image
from .words import (
    DiagramWord,
    MAX_STRAND,
    _strands_mask,
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


def _chord(members, known: dict) -> int:
    """The mask of a witness chord.  ``known`` maps the strands of each
    chord already read to its mask, so each distinct chord is checked once.
    """
    # Only int strands pass the guard, so only they are looked up: JSON
    # true and 1.0 equal 1.  `words` checks the strand list itself.
    if isinstance(members, list) and {*map(type, members)} <= {int}:
        key = tuple(members)
        try:  # masks are positive, so a miss reads as false
            return known.get(key) or known.setdefault(key, _strands_mask(members, MAX_STRAND))
        except ValueError:
            pass
    raise CertificateFormatError(
        "a chord must be a nonempty, strictly ascending list of strands "
        f"numbered from 1 to {MAX_STRAND}, got {members!r}"
    )


@dataclass(frozen=True)
class SeparationCertificate:
    element: str
    ring: str
    degree: int
    witness: tuple  # ((monomial, coeff), ...), sorted; a monomial is canonical chord masks

    def __post_init__(self):
        # Sorted before the checks, so a witness with several faulty entries
        # reports the same one in any order.  Entries that do not compare
        # are faulty, and the checks below refuse them.
        witness = list(self.witness)
        try:
            witness.sort()
        except TypeError:
            pass
        object.__setattr__(self, "witness", tuple(witness))
        if not isinstance(self.element, str):
            raise ValueError(f"element must be a str, got {self.element!r}")
        if self.ring not in (RING_F2, RING_Z):
            raise ValueError(f"unknown ring {self.ring!r}")
        if type(self.degree) is not int:  # nor a bool, as `from_dict` reads it
            raise ValueError(f"degree must be an int, got {self.degree!r}")
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if not self.witness:
            raise ValueError("witness must be nonempty")
        if len({mono for mono, _ in self.witness}) != len(self.witness):
            raise ValueError("witness lists a monomial more than once")
        for mono, coeff in self.witness:
            if len(mono) != self.degree:
                raise ValueError("witness monomial length differs from degree")
            if type(coeff) is not int or coeff == 0 or (self.ring == RING_F2 and coeff != 1):
                raise ValueError(f"invalid witness coefficient {coeff!r}")
            # positive ints of at most MAX_STRAND bits, the type first: True and 3.0 equal ints
            if {*map(type, mono)} != {int} or min(mono) < 1 or max(mono) >> MAX_STRAND:
                raise ValueError(f"invalid witness chord in {mono!r}")

    def to_json(self) -> str:
        """The JSON layout with its keys sorted, spelled byte for byte as
        ``json.dumps(..., sort_keys=True)`` spells it.  Each distinct chord
        is spelled once, as a list of ints prints, which is its JSON; the
        degree and coefficients are ints and the ring one of two plain
        names, so only the element needs the encoder."""
        masks = {m for mono, _ in self.witness for m in mono}
        chords = {m: str(list(chord_members(m))) for m in masks}
        witness = ", ".join(
            '{"coeff": %d, "monomial": [%s]}' % (coeff, ", ".join(map(chords.__getitem__, mono)))
            for mono, coeff in self.witness
        )
        return '{"degree": %d, "element": %s, "ring": "%s", "witness": [%s]}' % (
            self.degree, json.dumps(self.element), self.ring, witness
        )

    @classmethod
    def from_dict(cls, data: dict) -> SeparationCertificate:
        """Read the JSON layout; `CertificateFormatError` for any deviation."""
        element = _field(data, "element", str)
        ring = _field(data, "ring", str)
        degree = _field(data, "degree", int)
        known = {}
        witness = []
        for entry in _field(data, "witness", list):
            mono = tuple(_chord(members, known) for members in _field(entry, "monomial", list))
            witness.append((mono, _field(entry, "coeff", int)))
        try:
            return cls(element, ring, degree, witness)
        except ValueError as exc:
            raise CertificateFormatError(str(exc)) from None

    @classmethod
    def from_json(cls, text: str) -> SeparationCertificate:
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # deep nesting recurses
            raise CertificateFormatError(f"not JSON: {exc}") from None
        return cls.from_dict(data)


def _graded_terms(letters: tuple, signs, square_zero: bool):
    """Yield the homogeneous components 1, 2, ... of the image of a word,
    each as an unsorted dict monomial -> nonzero coefficient.

    ``signs`` holds, for each letter, the sign of its factor's linear term:
    1 for an odd occurrence of its chord, whose factor is 1 + a, and -1 for
    an even one, whose factor is f = 1 - a + a^2 - ...  An odd occurrence
    gives comp_k(w (1 + a)) = comp_k(w) + comp_{k-1}(w) a: it reads the
    degree below before its letter.  Since f = 1 - f a, an even one gives
    comp_k(w f) = comp_k(w) - comp_{k-1}(w f) a: it reads the degree below
    after its letter.  Either way degree k needs only degree k - 1.  The
    mod-2 ring is the case where every occurrence is odd, with
    ``square_zero``: a letter that reaches an equal one kills the monomial,
    and coefficients are reduced mod 2.

    For the last degree the engine keeps what each letter added; the next
    pass replays those gains to rebuild comp_{k-1} of every prefix in turn
    and appends each letter to it.  A letter placed at the end grows its
    monomial by one concatenation, and that is the common case.  A degree
    costs one append per monomial per prefix, so in the mod-2 ring the
    components up to d together make the appends of one `f2_image` at
    degree d (92 on (t{1,3} t{1,4})^8); but each of the d passes also
    steps through every letter and its gains, where the image steps
    through the letters once.
    """

    def add(acc: dict, terms) -> None:
        for mono, coeff in terms:
            total = acc.pop(mono, 0) + coeff
            if square_zero:
                total &= 1
            if total:
                acc[mono] = total

    gains = [()] * len(letters)  # what each letter adds to comp_{k-1}
    start = {(): 1}  # comp_{k-1} of the empty prefix
    while True:
        prefix = dict(start)
        step = []
        for letter, sign, gained in zip(letters, signs, gains):
            if sign < 0:
                add(prefix, gained)
            end = (letter,)
            grown = []
            for mono, coeff in prefix.items():
                slot = kernels.append_slot(mono, letter, square_zero)
                if slot == len(mono):
                    grown.append((mono + end, sign * coeff))
                elif slot >= 0:
                    grown.append((mono[:slot] + end + mono[slot:], sign * coeff))
            step.append(grown)
            if sign > 0:
                add(prefix, gained)
        gains, start = step, {}
        component: dict = {}
        for grown in gains:
            add(component, grown)
        yield component


def _separate(w: DiagramWord, max_degree: int | None, ring: str):
    """The separation search of both rings: the first degree at which the
    image of the lean reduction has a nonzero homogeneous component, or
    None for the trivial element.  A Z word outside the even subgroup is
    refused first: lean reduction keeps every chord's parity, so
    `_occurrence_signs` over the lean word both refuses it and signs it.
    Then a cap that is not an int of at least 1 is refused.
    """
    lean = kernels.lean_reduce(w.letters)
    square_zero = ring == RING_F2
    signs = (1,) * len(lean) if square_zero else _occurrence_signs(lean)
    if type(max_degree) not in (int, type(None)):  # nor a bool, as a certificate's degree
        raise ValueError(f"max_degree must be an int, got {max_degree!r}")
    if max_degree is not None and max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    if not lean:
        return None
    cap = len(lean) if max_degree is None else min(max_degree, len(lean))
    terms = _graded_terms(lean, signs, square_zero)
    for degree, component in zip(range(1, cap + 1), terms):
        if component:
            return SeparationCertificate(format_diagram_word(w), ring, degree, component.items())
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
    if cert.degree > len(letters):  # every degree is at least 1
        return False
    lean = DiagramWord._unchecked(word.n, letters)  # letters of the parsed word

    if cert.ring == RING_F2:
        image = f2_image(lean, cert.degree).support
        claimed = {(), *(mono for mono, _ in cert.witness)}
    else:
        try:
            image = z_image(lean, cert.degree).coeffs
        except ValueError:  # odd chord parity, which lean reduction keeps
            return False
        claimed = {(): 1, **dict(cert.witness)}
    # Every witness monomial has length degree, so equality leaves the
    # components 1 ... degree - 1 empty.
    return image == claimed
