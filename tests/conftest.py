import random

import pytest

from mediankit import fixtures as fx
from mediankit.structure import Automorphism


@pytest.fixture
def rng():
    return random.Random(987123)


@pytest.fixture
def square():
    return fx.square()


@pytest.fixture
def path3():
    return fx.path3()


@pytest.fixture
def tripod():
    return fx.tripod()


@pytest.fixture
def grid():
    return fx.grid()


@pytest.fixture
def checks_run(monkeypatch):
    """The maps whose ``Automorphism.check`` runs, not returning a recorded
    pass, in call order; held, so that no id is reused for another map."""
    ran, check = [], Automorphism.check

    def counting(g, total=False):
        if not g._passed:
            ran.append(g)
        check(g, total)

    monkeypatch.setattr(Automorphism, "check", counting)
    return ran
