"""Computational tools for cactus groups and their chord-diagram quotients.

The package solves the word problem in the diagram groups through lean
normal forms, tracks the permutation action of cactus words, computes the
parity homomorphisms on the pure subgroup, and produces machine-checkable
certificates that separate nontrivial elements from the identity in
degree-truncated algebras over GF(2) and over the integers.
"""

from __future__ import annotations

from .algebra_f2 import F2Series, f2_image, nilpotent_separation
from .algebra_z import ZSeries, tfn_separation, z_image
from .cactus_core import (
    diagram_of,
    equal_in_Jn,
    inverse_word,
    is_pure,
    pure_diagram,
    word_permutation,
)
from .diagram_group import (
    construct_pure_generator,
    delta,
    equal_diagrams,
    gamma_circ_projection,
    in_even_subgroup,
    in_gamma_circ,
    lex_normal_form,
    projection_dimension,
)
from .render import render_ascii
from .words import (
    CactusGenerator,
    CactusWord,
    DiagramWord,
    ParseError,
    chord_mask,
    chord_members,
    format_cactus_word,
    format_chord,
    format_diagram_word,
    parse_cactus_word,
    parse_diagram_word,
)

__version__ = "0.1.0"
KERNEL_BACKEND = "python"  # the implementation of `kernels`


def __getattr__(name: str):
    # The names in __all__ that are not bound here are the certificate
    # layer's, which loads (with `json`) when one of them is first read.
    if name in __all__:
        from . import certificates

        return getattr(certificates, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = [
    "CactusGenerator",
    "CactusWord",
    "CertificateFormatError",
    "DegreeCapReached",
    "DiagramWord",
    "F2Series",
    "KERNEL_BACKEND",
    "ParseError",
    "RING_F2",
    "RING_Z",
    "SeparationCertificate",
    "ZSeries",
    "chord_mask",
    "chord_members",
    "construct_pure_generator",
    "delta",
    "diagram_of",
    "equal_diagrams",
    "equal_in_Jn",
    "f2_image",
    "format_cactus_word",
    "format_chord",
    "format_diagram_word",
    "gamma_circ_projection",
    "in_even_subgroup",
    "in_gamma_circ",
    "inverse_word",
    "is_pure",
    "lex_normal_form",
    "nilpotent_separation",
    "parse_cactus_word",
    "parse_diagram_word",
    "projection_dimension",
    "pure_diagram",
    "render_ascii",
    "tfn_separation",
    "verify_certificate",
    "word_permutation",
    "z_image",
    "__version__",
]
