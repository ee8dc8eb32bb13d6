"""Outside-in layer tracing for the benchmark's traced runs.

`Tracer.install` replaces the named public functions and methods of the
finforce modules with timing wrappers, at every module attribute (and
every module-level dict value, such as ``verify.CHECKS``) that binds the
original by name.  Nothing under ``src/`` is edited.

Per wrapped name the tracer keeps ``calls``, ``s`` (inclusive time, the
outermost activation only, so recursion is not counted twice) and
``self_s`` (time not spent inside any nested wrapped call), plus the
work counters of ``Tracer._count``.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) -> metric prefix, for module-level functions
FUNCTIONS = {
    ("workdoc", "load_doc"): "workdoc.load_doc",
    ("templates", "validate_template"): "templates.validate_template",
    ("templates", "trace_family"): "templates.trace_family",
    ("models", "validate_borel_model"): "models.validate_borel_model",
    ("models", "check_nice_subposet"): "models.check_nice_subposet",
    ("iteration", "realize_filter"): "iteration.realize_filter",
    ("posets", "check_complete_embedding_posets"): "posets.check_complete_embedding_posets",
    ("posets", "check_correct_system"): "posets.check_correct_system",
    ("posets", "admissible_filters_upsets"): "posets.admissible_filters_upsets",
    ("history", "history_of_condition"): "history.history_of_condition",
    ("history", "tuple_space"): "history.tuple_space",
    ("history", "restrict_tuple"): "history.restrict_tuple",
    ("codes", "eval_code"): "codes.eval_code",
    ("codes", "eval_fcode_detailed"): "codes.eval_fcode_detailed",
    ("codes", "print_code"): "codes.print_code",
    ("synth", "synth_E"): "synth.synth_E",
    ("synth", "synth_F"): "synth.synth_F",
    ("synth", "case2_contexts"): "synth.case2_contexts",
    ("names", "decide_forces_value"): "names.decide_forces_value",
    ("verify", "verify_main_theorem"): "verify.main_theorem",
    ("verify", "verify_history_invariance"): "verify.history_invariance",
    ("verify", "verify_well_definedness"): "verify.well_definedness",
    ("verify", "verify_density"): "verify.density",
    ("verify", "verify_embeddings"): "verify.embeddings",
    ("verify", "verify_nice_and_correct"): "verify.nice_and_correct",
}

# (module, class, method) -> metric prefix
METHODS = {
    ("iteration", "SimpleIteration", "members"): "iteration.members",
    ("iteration", "SimpleIteration", "build_poset"): "iteration.build_poset",
    ("iteration", "SimpleIteration", "member_pstar"): "iteration.member_pstar",
    ("iteration", "SimpleIteration", "enumerate_generics"): "iteration.enumerate_generics",
    ("iteration", "SimpleIteration", "order_leq"): "iteration.order_leq",
    ("iteration", "SimpleIteration", "check_density_pstar"): "iteration.check_density_pstar",
    ("iteration", "SimpleIteration", "check_complete_embedding"): "iteration.check_complete_embedding",
    ("posets", "FinitePoset", "__init__"): "posets.FinitePoset",
}

# (module, class, property) -> metric prefix; the getter is wrapped
PROPERTIES = {
    ("posets", "FinitePoset", "compat_matrix"): "posets.compat_matrix",
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._active: dict[str, int] = {}
        self._children: list[float] = []
        self._built: dict[int, object] = {}  # counted posets, kept alive so ids stay unique
        self._synth_keys: set = set()
        self._epoch = 0  # bumped per load_doc, so each document is its own memo scope

    def _count(self, prefix: str, st: dict, args: tuple, result) -> None:
        """The work counters beyond calls and time."""
        if prefix == "workdoc.load_doc":
            self._epoch += 1
        elif prefix == "iteration.members":
            st["conditions"] = st.get("conditions", 0) + len(result)
        elif prefix == "iteration.build_poset":
            if id(result) not in self._built:
                self._built[id(result)] = result
                st["cells"] = st.get("cells", 0) + len(result.elements) ** 2
        elif prefix == "synth.synth_E":
            key = (self._epoch, args[1], args[2])
            if key not in self._synth_keys:
                self._synth_keys.add(key)
                st["distinct"] = st.get("distinct", 0) + 1
        elif prefix.startswith("verify."):
            st["checked"] = st.get("checked", 0) + result.checked

    def wrap(self, prefix: str, fn):
        st = self.stats[prefix] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        self._active[prefix] = 0
        active = self._active
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st["calls"] += 1
            active[prefix] += 1
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = children.pop()
                active[prefix] -= 1
                st["self_s"] += dt - nested
                if not active[prefix]:
                    st["s"] += dt
                if children:
                    children[-1] += dt
            self._count(prefix, st, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind it wherever finforce binds it."""
        mods = {
            name: mod for name, mod in sys.modules.items()
            if name == "finforce" or name.startswith("finforce.")
        }
        replace = {}  # id of the original -> (original, wrapper); keeps ids unique
        for (mod, attr), prefix in FUNCTIONS.items():
            orig = getattr(mods[f"finforce.{mod}"], attr)
            replace[id(orig)] = (orig, self.wrap(prefix, orig))
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, attr, replace[id(value)][1])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replace:
                            value[k] = replace[id(v)][1]
        for (mod, cls, attr), prefix in METHODS.items():
            klass = getattr(mods[f"finforce.{mod}"], cls)
            setattr(klass, attr, self.wrap(prefix, getattr(klass, attr)))
        for (mod, cls, attr), prefix in PROPERTIES.items():
            klass = getattr(mods[f"finforce.{mod}"], cls)
            prop = vars(klass)[attr]
            setattr(klass, attr, property(self.wrap(prefix, prop.fget), prop.fset, prop.fdel, prop.__doc__))

    def snapshot(self) -> dict[str, float]:
        """Flat metric -> value, e.g. ``synth.synth_E.calls``."""
        out = {}
        for prefix, st in self.stats.items():
            for field, value in st.items():
                out[f"{prefix}.{field}"] = value
        return out
