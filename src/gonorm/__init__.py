"""Dependency-guided normalization of labeled property graphs.

The package models property graphs, object-level functional dependencies
scoped by graph patterns, and the six graph transformations that remove the
value redundancy such dependencies describe.  Typical flow: load a graph and
a schema, check satisfaction, compute minimal covers, normalize, and compare
redundancy metrics before and after.
"""
from .errors import (
    EndpointError,
    FormatError,
    GonormError,
    InvariantError,
    NonStrict,
    NotFoundError,
    ParseError,
    ScopeMismatch,
    SizeLimit,
    UnboundVariable,
    UnsatisfiedDependency,
)
from .gofd import (
    DepClass,
    GnSchema,
    GoFd,
    Satisfaction,
    applicable_deps,
    classify,
    closure,
    gofd,
    implies,
    minimal_cover,
    restrict,
    satisfies,
    scope_closure,
    structurally_implied,
)
from .graph import (
    Atomic,
    Graph,
    dump_graph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)
from .metrics import (
    DepProfile,
    GraphMetrics,
    SchemaCounts,
    build_report,
    per_graph_metrics,
    profile,
    redundancy_potentials,
    schema_counts,
    two_decimals,
)
from .normalform import (
    NormalForm,
    NormalFormReport,
    Violation,
    ViolationReason,
    candidate_keys,
    check_gn1nf,
    check_gn_nf,
    check_scoped,
    is_superkey,
)
from .normalize import (
    NormalizationResult,
    PhaseLog,
    full_normalize,
    scoped_normalize,
    sort_scopes,
)
from .parser import (
    SchemaDocument,
    format_schema,
    load_schema,
    parse_gofd,
    parse_pattern_text,
    parse_schema,
    save_schema,
)
from .pattern import (
    ANON_EDGE_VAR,
    Direction,
    EdgeOnlyPattern,
    NodeEdgePattern,
    NodePattern,
    ObjectVar,
    Pattern,
    PropVar,
    Relation,
    Variable,
    attrs,
    canonicalize,
    edge_pattern,
    evaluate,
    more_general_than,
    node_edge_pattern,
    node_pattern,
    render_pattern,
    rename_map,
    rename_variable,
    scope_key,
    variable_roles,
)
from .transform import (
    Transformation,
    TransformationKind,
    build_plans,
    execute_plans,
    invert,
    match_redundancy_pattern,
    skolem_label,
    verify_lossless,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
