"""Computational tools for cactus groups and their chord-diagram quotients.

The package solves the word problem in the diagram groups through lean
normal forms, tracks the permutation action of cactus words, computes the
parity homomorphisms on the pure subgroup, and produces machine-checkable
certificates that separate nontrivial elements from the identity in
degree-truncated algebras over GF(2) and over the integers.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"
KERNEL_BACKEND = "python"  # the implementation of `kernels`

# Each layer's public names, the one list of them: no layer module has an
# ``__all__``.  Importing the package loads no layer: a module loads the
# first time one of its names, or the module itself, is read from the
# package (PEP 562).
_LAYERS = {
    "algebra_f2": ("F2Series", "f2_image", "nilpotent_separation"),
    "algebra_z": ("ZSeries", "tfn_separation", "z_image"),
    "cactus_core": (
        "diagram_of", "equal_in_Jn", "inverse_word", "is_pure", "pure_diagram",
        "word_permutation",
    ),
    "certificates": (
        "CertificateFormatError", "DegreeCapReached", "RING_F2", "RING_Z",
        "SeparationCertificate", "verify_certificate",
    ),
    "diagram_group": (
        "construct_pure_generator", "delta", "equal_diagrams", "gamma_circ_projection",
        "in_even_subgroup", "in_gamma_circ", "lex_normal_form", "projection_dimension",
    ),
    "render": ("render_ascii",),
    "words": (
        "CactusGenerator", "CactusWord", "DiagramWord", "ParseError", "chord_mask",
        "chord_members", "format_cactus_word", "format_chord", "format_diagram_word",
        "parse_cactus_word", "parse_diagram_word",
    ),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}
_SUBMODULES = frozenset({*_LAYERS, "_kernels_py", "cli", "kernels"})


def __getattr__(name: str):
    # Nothing is bound here on first read, so every read of a public name
    # sees what its home module binds now.  Importing a submodule binds it
    # here, as any import does.
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = sorted([*_HOME, "KERNEL_BACKEND"]) + ["__version__"]
