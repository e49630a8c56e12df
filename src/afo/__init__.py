"""Argumentation frameworks over a finite semantic lattice.

Arguments assert expressions, expressions map to lattice nodes, and groups
of mutually attacking arguments can be conservatively merged into a more
general argument.  Extensions of the merged frameworks, projected back,
sharpen the verdict on each concrete argument.
"""

from .abstraction import (
    AbstractionCandidate,
    ConservativityReport,
    best_abstraction_of,
    conservativity_report,
    is_abstraction_complete,
    is_abstraction_covering,
    is_abstraction_disjoint,
    is_abstraction_sound,
    is_argument_abstraction,
    is_attack_preserving,
    is_compatible,
    is_conservative,
    is_non_trivial,
    is_valid,
)
from .af import (
    Arglet,
    Argument,
    Framework,
    attack_relation,
    has_path,
    strongly_connected_components,
)
from .format import (
    AfoDocument,
    AfoModel,
    build_model,
    load_afo,
    parse_afo,
    serialize_afo,
)
from .errors import (
    AfoError,
    AfoFileError,
    AfoSyntaxError,
    CycleInCovers,
    DuplicateDeclaration,
    EmptySet,
    IdCollision,
    LatticeError,
    NonUniqueJoin,
    NonUniqueMeet,
    RedundantCover,
    TargetsNotInFramework,
    UnknownArgument,
    UnknownExpression,
    UnknownNode,
    UnknownReference,
)
from .galois import (
    SemanticMap,
    alpha,
    canonicalize,
    expr_set_leq,
    gamma,
    is_abstraction,
    is_best_abstraction,
    is_concretization,
    most_general_concretization,
)
from .lattice import FiniteLattice, validate_lattice
from .pipeline import (
    AbstractionResult,
    ArgumentVerdict,
    ReplacementStep,
    SharpeningReport,
    abstract_replace,
    concretize_extension_sets,
    derive_abstract_frameworks,
    maximal_conservative_subsets,
    restrict_extensions,
    sharpen,
)
from .semantics import (
    CREDULOUS,
    IN,
    OUT,
    SKEPTICAL,
    UNDECIDED,
    acceptance,
    cf2,
    grounded_labelling,
    is_admissible,
    is_conflict_free,
    maximal_conflict_free_sets,
    preferred,
    preferred_bruteforce,
)

__version__ = "0.1.0"
