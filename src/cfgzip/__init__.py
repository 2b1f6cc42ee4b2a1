"""Offline token-vocabulary compression for CFG-constrained decoding.

Pipeline: parse and validate a grammar, convert it to Greibach Normal
Form, precompute the stack-adjacency relation, compute each token's
stack displacement, group tokens by displacement equality into classes,
and cache the class table.  At decode time a reference engine computes
masks over class representatives only; expanded masks are bit-identical
to the naive per-token masks at every step.
"""

from .adjacency import RightmostGraph, StackAdjacency, build_rightmost_graph, build_stack_adjacency
from .classtable import (
    CacheError,
    CacheFormatError,
    CacheVersionError,
    ClassTable,
    StaleCacheError,
    Vocabulary,
    apply_mask,
    build_class_table,
    expand_class_mask,
    load_cache,
    load_vocabulary,
    map_token,
    parse_vocabulary,
    save_cache,
)
from .displacement import (
    Displacement,
    SearchBudgetExceeded,
    SweepResult,
    compute_all_displacements,
    compute_displacement,
    compute_displacement_annotated,
    trace_displacement,
)
from .engine import (
    EngineState,
    Mask,
    MaskedTokenError,
    commit_token,
    compute_mask_compressed,
    compute_mask_naive,
    new_state,
    try_advance,
)
from .fuzz import FuzzConfig, FuzzReport, RunReport, fuzz_decode
from .gnf import (
    GnfGrammar,
    GnfSizeError,
    pda_accepts,
    pda_prefix_viable,
    render_gnf,
    to_gnf,
    transition_function,
)
from .grammar import (
    Cfg,
    EmptyLanguageError,
    GrammarError,
    GrammarSource,
    derives_epsilon,
    parse_grammar,
    render_grammar,
    validate,
)
from .oracle import (
    Oracle,
    OracleBoundError,
    context_signature,
    distinguishing_context,
    oracle_congruence_sample,
    oracle_membership,
    oracle_prefix,
)

__version__ = "0.1.0"

__all__ = [
    "Cfg",
    "CacheError",
    "CacheFormatError",
    "CacheVersionError",
    "ClassTable",
    "Displacement",
    "EmptyLanguageError",
    "EngineState",
    "FuzzConfig",
    "FuzzReport",
    "GnfGrammar",
    "GnfSizeError",
    "GrammarError",
    "GrammarSource",
    "Mask",
    "MaskedTokenError",
    "Oracle",
    "OracleBoundError",
    "RightmostGraph",
    "RunReport",
    "SearchBudgetExceeded",
    "StackAdjacency",
    "StaleCacheError",
    "SweepResult",
    "Vocabulary",
    "apply_mask",
    "build_class_table",
    "build_rightmost_graph",
    "build_stack_adjacency",
    "commit_token",
    "compute_all_displacements",
    "compute_displacement",
    "compute_displacement_annotated",
    "compute_mask_compressed",
    "compute_mask_naive",
    "context_signature",
    "derives_epsilon",
    "distinguishing_context",
    "expand_class_mask",
    "fuzz_decode",
    "load_cache",
    "load_vocabulary",
    "map_token",
    "new_state",
    "oracle_congruence_sample",
    "oracle_membership",
    "oracle_prefix",
    "parse_grammar",
    "parse_vocabulary",
    "pda_accepts",
    "pda_prefix_viable",
    "render_gnf",
    "render_grammar",
    "save_cache",
    "to_gnf",
    "trace_displacement",
    "transition_function",
    "try_advance",
    "validate",
]
