"""posetsat: poset-saturation machinery over the Boolean lattice 2^[n].

Induced-copy detection, saturation verdicts with machine-checkable
certificates, structural decomposition with an invariant suite, and an
exact minimum-saturation search engine at desk scale.
"""

from ._version import __version__
from .families import (
    FamilyFormatError,
    SetFamily,
    complement_family,
    elements_of,
    family_from_json,
    family_to_json,
    mask_of,
    maximal_sets,
    minimal_sets,
    parse_family,
    serialize_family,
)
from .posets import (
    PatternFormatError,
    PatternPoset,
    dual,
    is_isomorphic,
    make_antichain,
    make_chain,
    make_diamond,
    make_hypercube,
    make_lambda,
    make_v,
    parse_pattern,
    pattern_from_spec,
    serialize_pattern,
    validate,
)
from .detect import (
    Embedding,
    find_diamond,
    find_induced,
    find_induced_using,
    validate_embedding,
)
from .saturate import (
    CatalogEntry,
    InternalCheckError,
    SaturationReport,
    Verdict,
    chain_family,
    empty_plus_singletons,
    full_plus_cosingletons,
    greedy_saturate,
    is_free,
    is_saturated,
    q3_construction,
    upper_bound_catalog,
)
from .structure import (
    CoverBoundResult,
    Decomposition,
    LemmaCheck,
    NestedSequence,
    NotDiamondFreeError,
    StructureReport,
    cover_bound_check,
    decompose,
    f_of,
    nested_sequence,
    verify_structure_invariants,
    w_of,
)
from .canonical import canonical_key
from .hasse import cover_edges, hasse_dot
from .search import (
    SearchManifest,
    classify_minimum,
    q3_probe,
    sat_star_exact,
    sat_star_no_extremes,
)

__all__ = [name for name in dir() if not name.startswith("_")]
