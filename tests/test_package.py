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
