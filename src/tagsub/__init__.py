"""Decidable tag-based semantic subtyping for nominal types, pairs and unions,
with a tuple-type multiple-dispatch resolver on top."""

from .core import (
    DEFAULT_HIERARCHY,
    ConcreteParent,
    CycleDetected,
    Decl,
    DuplicateName,
    HierarchyError,
    MultipleParents,
    Name,
    NominalHierarchy,
    NominalName,
    Pair,
    TagsubError,
    TypeExpr,
    Union,
    UnknownName,
    UnknownParent,
    concrete_descendants,
    is_value_type,
    load_hierarchy,
    nominal_subtype,
    parse_hierarchy,
    validate_hierarchy,
)
from .derivation import (
    Derivation,
    InvalidTrace,
    check_declarative,
    derive_nf_sub,
    derive_sub_nf,
    format_derivation,
    synthesize,
)
from .dispatch import (
    Ambiguous,
    DispatchOutcome,
    EmptySignature,
    MethodDef,
    MethodTable,
    NoApplicableMethod,
    Selected,
    UnknownFunction,
    add_method,
    applicable,
    load_methods,
    parse_methods,
    resolve,
    tuple_type,
)
from .frontend import ParseError, parse_type, print_type
from .normalize import EmptyAbstract, in_nf, in_nf_atomic, nf, nf_atomic, un_prs
from .semantics import (
    Concrete,
    Mode,
    NotAValueType,
    PairTag,
    Sentinel,
    Tag,
    format_tag_set,
    interp,
    matches,
    matching_sub,
    semantic_sub,
)
from .subtyping import (
    ReductiveTrace,
    Strategy,
    check_reductive_trace,
    format_trace,
    reductive_sub,
)

__version__ = "0.1.0"
