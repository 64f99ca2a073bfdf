import importlib
import pkgutil

import pytest

import cactus_groups


@pytest.mark.parametrize(
    "name",
    ["", *(f".{info.name}" for info in pkgutil.iter_modules(cactus_groups.__path__))],
    ids=lambda name: "cactus_groups" + name,
)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module("cactus_groups" + name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


LAZY = {
    "RING_F2",
    "RING_Z",
    "CertificateFormatError",
    "DegreeCapReached",
    "SeparationCertificate",
    "verify_certificate",
}


# The certificate names resolve on first use, to the certificate layer's own.
@pytest.mark.parametrize("name", sorted(LAZY))
def test_certificate_names_resolve_lazily(name):
    from cactus_groups import certificates

    assert name in cactus_groups.__all__ and name in dir(cactus_groups)
    assert getattr(cactus_groups, name) is getattr(certificates, name)


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from cactus_groups import *", namespace)
    assert set(cactus_groups.__all__) <= set(namespace)
    assert namespace["SeparationCertificate"] is cactus_groups.SeparationCertificate


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cactus_groups.no_such_name
