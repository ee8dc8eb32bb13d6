import json

import pytest

from finforce import fixtures
from finforce.templates import SUBSETS, lattice
from finforce.workdoc import parse_doc


@pytest.fixture(scope="session")
def i1():
    return fixtures.i1()


@pytest.fixture(scope="session")
def i1_names(i1):
    return i1.registered_names()


@pytest.fixture(scope="session")
def fsi2_cc():
    return fixtures.fsi2_cohen_cohen()


@pytest.fixture(scope="session")
def fsi2_cohen_c():
    return fixtures.fsi2_cohen_c()


@pytest.fixture(scope="session")
def fsi3():
    return fixtures.fsi3_cohen()


@pytest.fixture(scope="session")
def case2():
    return fixtures.case2_fixture()


@pytest.fixture(scope="session")
def cohen22(i1):
    return i1.cohen22


@pytest.fixture(scope="session")
def ed22(i1):
    return i1.ed22


@pytest.fixture(scope="session")
def cohen_fsi():
    """A factory: k -> a fresh finite support iteration of k cohen(1,2) B
    stages with full-powerset families, parsed from its workdoc."""

    def make(k: int):
        points = [str(i) for i in range(k)]
        families = {x: [sorted(a) for (a,) in lattice(points[:i], SUBSETS)] for i, x in enumerate(points)}
        doc = {
            "template": {"points": points, "families": families},
            "models": {"S": {"builtin": "cohen", "length": 1, "alphabet": 2}},
            "iteration": {x: {"kind": "B", "model": "S"} for x in points},
        }
        return parse_doc(json.dumps(doc)).iteration

    return make
