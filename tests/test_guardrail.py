"""The synthesized-code route shares no code with the oracle route.

The main theorem check compares codes that `synth`, `codes` and `history`
build with the filters that the oracle route (`realize_filter`, the order
of the iteration and the `posets` kernels) induces.  It is evidence only
while the two stay independent, so these modules may not import or call
anything of the oracle route.  The memo layer, `posets.memoized`, is the
one name they take from `posets`."""

import ast
from importlib import resources

import pytest

from finforce import posets

SYNTH_ROUTE = ["synth.py", "codes.py", "history.py"]

ORACLE = {
    "realize_filter", "member_of_filter", "filter_table", "induced_filters",
    "build_poset", "order_leq", "_order_matrix",
}
# the public kernels of `posets` and every member of a poset that reads its order
KERNELS = (
    {name for name, value in vars(posets).items()
     if getattr(value, "__module__", None) == posets.__name__ and not name.startswith("_")}
    - {"memoized"}
) | {name for name in vars(posets.FinitePoset) if not name.startswith("__")} | {"_up", "_down", "_minimal"}
FORBIDDEN = ORACLE | KERNELS


def oracle_uses(source: str) -> list[str]:
    """Each import, name or attribute of ``source`` that reaches the oracle
    route, as "line: what"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if alias.name in FORBIDDEN or alias.name == "posets" \
                        or (module == "posets" and alias.name != "memoized"):
                    found.append(f"{node.lineno}: import {alias.name} from {node.module or '.'}")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if "posets" in a.name]
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN:
            found.append(f"{node.lineno}: name {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN:
            found.append(f"{node.lineno}: attribute {node.attr}")
    return found


@pytest.mark.parametrize("module", SYNTH_ROUTE)
def test_synth_route_reads_no_oracle(module):
    source = resources.files("finforce").joinpath(module).read_text(encoding="utf-8")
    assert oracle_uses(source) == []


@pytest.mark.parametrize("line, what", [
    ("from .iteration import realize_filter", "import realize_filter from iteration"),
    ("from .posets import memoized, compatible", "import compatible from posets"),
    ("from . import posets", "import posets from ."),
    ("import finforce.posets", "import finforce.posets"),
    ("it.build_poset(a)", "attribute build_poset"),
    ("it._order_matrix(a, elems)", "attribute _order_matrix"),
    ("model.poset.compat_matrix", "attribute compat_matrix"),
    ("p._down[0]", "attribute _down"),
    ("p._minimal.any()", "attribute _minimal"),
    ("check_correct_system(s)", "name check_correct_system"),
])
def test_each_kind_of_use_is_caught(line, what):
    """The check is not vacuous: one line of each kind fails it."""
    assert oracle_uses(line) == [f"1: {what}"]
