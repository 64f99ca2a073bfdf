import importlib
import pkgutil

import pytest

import cactus_groups
from helpers import run_fresh


@pytest.mark.parametrize(
    "name",
    ["", *(f".{info.name}" for info in pkgutil.iter_modules(cactus_groups.__path__))],
    ids=lambda name: "cactus_groups" + name,
)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module("cactus_groups" + name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


# Every public name -> the module that defines it.  Each resolves on first
# read, to that module's own object, and the package keeps no copy of it.
HOME = {
    name: layer
    for layer, names in {
        "algebra_f2": "F2Series f2_image nilpotent_separation",
        "algebra_z": "ZSeries tfn_separation z_image",
        "cactus_core": "diagram_of equal_in_Jn inverse_word is_pure pure_diagram "
        "word_permutation",
        "certificates": "CertificateFormatError DegreeCapReached RING_F2 RING_Z "
        "SeparationCertificate verify_certificate",
        "diagram_group": "construct_pure_generator delta equal_diagrams "
        "gamma_circ_projection in_even_subgroup in_gamma_circ lex_normal_form "
        "projection_dimension",
        "render": "render_ascii",
        "words": "CactusGenerator CactusWord DiagramWord ParseError chord_mask chord_members "
        "format_cactus_word format_chord format_diagram_word parse_cactus_word "
        "parse_diagram_word",
    }.items()
    for name in names.split()
}
CERTIFICATE_NAMES = {name for name, layer in HOME.items() if layer == "certificates"}


def test_all_lists_every_public_name_once():
    assert sorted(cactus_groups.__all__) == sorted([*HOME, "KERNEL_BACKEND", "__version__"])


def assert_resolves_lazily(name):
    home = importlib.import_module(f"cactus_groups.{HOME[name]}")
    assert name in cactus_groups.__all__ and name in dir(cactus_groups)
    assert getattr(cactus_groups, name) is getattr(home, name)
    assert name not in vars(cactus_groups)


# The certificate names resolve on first use, to the certificate layer's own.
@pytest.mark.parametrize("name", sorted(CERTIFICATE_NAMES))
def test_certificate_names_resolve_lazily(name):
    assert_resolves_lazily(name)


@pytest.mark.parametrize("name", sorted(HOME.keys() - CERTIFICATE_NAMES))
def test_layer_names_resolve_lazily(name):
    assert_resolves_lazily(name)


# In a fresh interpreter, the package loads no submodule on import, and
# reading one from it imports it.
@pytest.mark.parametrize(
    "name", [info.name for info in pkgutil.iter_modules(cactus_groups.__path__)]
)
def test_submodules_load_on_first_read(name):
    script = (
        "import sys, cactus_groups\n"
        "before = [m for m in sys.modules if m.startswith('cactus_groups.')]\n"
        "module = getattr(cactus_groups, sys.argv[1])\n"
        "print(before, module is sys.modules['cactus_groups.' + sys.argv[1]])\n"
    )
    done = run_fresh(script, [name])
    assert (done.stdout, done.stderr) == ("[] True\n", "")


# `_LAYERS` is the one list of public names: each function or class it
# names is defined in the layer it is listed under, not re-exported there.
@pytest.mark.parametrize("layer, names", cactus_groups._LAYERS.items())
def test_layer_table_names_each_function_and_class_at_home(layer, names):
    module = importlib.import_module(f"cactus_groups.{layer}")
    for name in names:
        value = getattr(module, name)
        if callable(value):
            assert value.__module__ == module.__name__, name


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from cactus_groups import *", namespace)
    assert set(cactus_groups.__all__) <= set(namespace)
    assert namespace["SeparationCertificate"] is cactus_groups.SeparationCertificate


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cactus_groups.no_such_name
