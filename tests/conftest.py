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


def _fsi_doc(k: int, names: dict):
    points = [str(i) for i in range(k)]
    families = {x: [sorted(a) for (a,) in lattice(points[:i], SUBSETS)] for i, x in enumerate(points)}
    doc = {
        "template": {"points": points, "families": families},
        "models": {"S": {"builtin": "cohen", "length": 1, "alphabet": 2}},
        "iteration": {x: {"kind": "B", "model": "S"} for x in points},
        "names": names,
    }
    return parse_doc(json.dumps(doc))


@pytest.fixture(scope="session")
def cohen_fsi():
    """A factory: k -> a fresh finite support iteration of k cohen(1,2) B
    stages with full-powerset families, parsed from its workdoc."""

    def make(k: int):
        return _fsi_doc(k, {}).iteration

    return make


def _const_case(when: dict, value: int) -> dict:
    return {"when": {x: {"const": bit} for x, bit in when.items()}, "value": value}


@pytest.fixture
def fsi4_seed7():
    """A fresh four-stage FSI with the two names that
    `perfbench.inputs.fsi_names(4, random.Random(7))` draws, as
    (iteration, names)."""
    names = {
        "single": [[_const_case({"2": "0"}, 2), _const_case({"2": "1"}, 6)]],
        "pair": [[_const_case({"0": "0", "3": "0"}, 8), _const_case({"0": "0", "3": "1"}, 1),
                  _const_case({"0": "1"}, 5)]],
    }
    doc = _fsi_doc(4, names)
    return doc.iteration, doc.names
