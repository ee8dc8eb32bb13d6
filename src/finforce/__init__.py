"""finforce: a desk-scale symbolic workbench for template iterations.

Validate finite indexed templates and the iterations declared over them,
compute condition and name histories, synthesize membership codes and name
evaluation functions by recursion on template depth, and verify the
synthesized objects exhaustively against brute-force generic-filter
semantics.
"""

from .templates import (
    IndexedTemplate,
    LinearOrder,
    Violation,
    depth,
    full_powerset_template,
    restrict_template,
    trace_family,
    validate_template,
)
from .posets import (
    CorrectGroup,
    CorrectSystem,
    FinitePoset,
    GroupedSystem,
    admissible_filters_upsets,
    check_complete_embedding_posets,
    check_correct_system,
    compatible,
)
from .models import (
    AdmissibleFilter,
    BorelPosetModel,
    check_nice_subposet,
    cohen,
    ed,
    ed_naive,
    validate_borel_model,
)
from .names import RealName, decide_forces_in_tree, decide_forces_value
from .iteration import (
    TRIV,
    Condition,
    DecisionTableName,
    GenericSequence,
    IterandAssignment,
    SimpleIteration,
    SmallPosetSpec,
    SubposetSpec,
    const_name,
    interpret_name,
    make_condition,
    realize_filter,
)
from .history import (
    History,
    TuplePoint,
    TupleSpace,
    history_of_condition,
    history_of_name,
    restrict_tuple,
    tuple_space,
)
from .codes import (
    AndNode,
    BitAtom,
    EAtom,
    FCode,
    NotNode,
    OrNode,
    TrueNode,
    eval_code,
    eval_fcode_detailed,
    fold_true,
    free_components,
    parse_code,
    parse_fcode,
    print_code,
    print_fcode,
)
from .synth import synth_E, synth_F
from .verify import Report, run_checks

__version__ = "0.1.0"
