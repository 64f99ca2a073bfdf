import random

import pytest
from hypothesis import settings

from cactus_groups import kernels

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture
def append_calls(monkeypatch):
    """The arguments of every `kernels.append_slot` call the test makes: a
    cost contract counted rather than timed."""
    calls = []
    append_slot = kernels.append_slot

    def counted(*args, **kwargs):
        calls.append(args)
        return append_slot(*args, **kwargs)

    monkeypatch.setattr(kernels, "append_slot", counted)
    return calls
