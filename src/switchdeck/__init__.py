"""Switching decks of digraphs: operations, canonical forms, and censuses.

Switching a vertex set W reverses every arc with exactly one endpoint in W.
The deck of a digraph collects the isomorphism classes of its n one-vertex
switchings; this package builds decks and t-decks, decides reconstruction
questions over whole graph classes, and reproduces the known families of
non-isomorphic digraphs sharing a deck.
"""

from . import catalog
from .canon import (
    AutGroup,
    OrientationSpace,
    aut_group_undirected,
    canonical_code,
    canonical_form,
    canonical_perm,
    code_to_digraph,
    is_isomorphic,
)
from .census import (
    definite_components,
    group_by_deck,
    possible_components,
    run_census,
    strip_stable_components,
    switching_adjacent,
    verify_disconnected_dichotomy,
    verify_strip_residue,
)
from .cycles import (
    CycleOrientation,
    Rotation,
    dist_set,
    find_W,
    verify_w_size_reconstruction,
    w_set,
)
from .decks import Deck, deck, format_deck, matching_t, t_deck
from .digraph import (
    EMPTY,
    MAX_N,
    ComponentDecomposition,
    Digraph,
    Permutation,
    UnderlyingGraph,
    VertexSet,
    apply_perm,
    components,
    disjoint_union,
    format_digraph6,
    from_arcs,
    induced,
    is_connected,
    is_weakly_connected,
    parse_digraph6,
    underlying,
)
from .errors import (
    CardAbsent,
    DichotomyViolated,
    HeavyFlagRequired,
    HypothesisUnmet,
    OutOfRange,
    SwitchDeckError,
)
from .generate import (
    CLASS_BOUNDS,
    gen_all_oriented,
    gen_oriented_cycles,
    gen_oriented_maxdeg2,
    gen_oriented_paths,
    gen_tournaments,
    gen_underlying_graphs,
    maxdeg2_shapes,
)
from .report import Family, SearchReport, make_family, merge_reports
from .spaces import CycleSpace, PathSpace
from .stability import (
    check_stable_set_bound,
    classify_stable_connected,
    gamma_group,
    is_switching_stable,
    is_switching_stable_set,
    solve_switch_iso,
    verify_index_identity,
)
from .switching import switch_set, switch_vertex

__version__ = "0.1.0"

__all__ = [
    "AutGroup", "CLASS_BOUNDS", "CardAbsent", "ComponentDecomposition",
    "CycleOrientation", "CycleSpace", "Deck", "DichotomyViolated", "Digraph",
    "EMPTY", "Family", "HeavyFlagRequired", "HypothesisUnmet", "MAX_N",
    "OrientationSpace", "OutOfRange", "PathSpace", "Permutation", "Rotation",
    "SearchReport", "SwitchDeckError", "UnderlyingGraph", "VertexSet",
    "apply_perm", "aut_group_undirected", "canonical_code", "canonical_form",
    "canonical_perm", "catalog", "check_stable_set_bound",
    "classify_stable_connected", "code_to_digraph", "components", "deck",
    "definite_components", "disjoint_union", "dist_set", "find_W",
    "format_deck", "format_digraph6", "from_arcs", "gamma_group",
    "gen_all_oriented", "gen_oriented_cycles", "gen_oriented_maxdeg2",
    "gen_oriented_paths", "gen_tournaments", "gen_underlying_graphs",
    "group_by_deck", "induced", "is_connected", "is_isomorphic",
    "is_switching_stable", "is_switching_stable_set", "is_weakly_connected",
    "make_family", "matching_t", "maxdeg2_shapes", "merge_reports",
    "parse_digraph6", "possible_components", "run_census",
    "solve_switch_iso",
    "strip_stable_components", "switch_set", "switch_vertex",
    "switching_adjacent", "t_deck", "underlying", "verify_disconnected_dichotomy",
    "verify_index_identity", "verify_strip_residue", "verify_w_size_reconstruction",
    "w_set",
]
