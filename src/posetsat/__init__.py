"""posetsat: poset-saturation machinery over the Boolean lattice 2^[n].

Induced-copy detection, saturation verdicts with machine-checkable
certificates, structural decomposition with an invariant suite, and an
exact minimum-saturation search engine at desk scale.

Every command runs ``families``, ``posets``, ``detect`` and ``saturate``,
which are imported here.  ``canonical``, ``hasse``, ``search`` and
``structure`` are deferred: each is put into ``sys.modules`` and onto the
package at once as an ``importlib.util.LazyLoader`` module, whose code
runs on its first attribute use, so a process that never reads one
never compiles or runs it.  Function-local imports would defer them
too, but then a module would be missing from ``sys.modules`` until used,
and code that looks it up there by name, as a tracer that wraps its
functions does, would fail.  Their public names are served by the
module ``__getattr__`` (PEP 562).  Before Python 3.12 LazyLoader is not
thread-safe: two threads that first read a deferred module at the same
time may both run its code.
"""

import importlib.util
import sys

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


def _deferred(name: str):
    """Register submodule name as a module that runs on first attribute use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


canonical = _deferred("canonical")
hasse = _deferred("hasse")
search = _deferred("search")
structure = _deferred("structure")

# public name -> the deferred module that defines it
_DEFERRED = {
    **dict.fromkeys(["canonical_key"], canonical),
    **dict.fromkeys(["cover_edges", "hasse_dot"], hasse),
    **dict.fromkeys(
        ["SearchManifest", "classify_minimum", "q3_probe", "sat_star_exact", "sat_star_no_extremes"], search
    ),
    **dict.fromkeys(
        [
            "Decomposition",
            "LemmaCheck",
            "NestedSequence",
            "NotDiamondFreeError",
            "StructureReport",
            "decompose",
            "f_of",
            "nested_sequence",
            "verify_structure_invariants",
            "w_of",
        ],
        structure,
    ),
}


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_DEFERRED[name], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED})


__all__ = [
    "CatalogEntry",
    "Decomposition",
    "Embedding",
    "FamilyFormatError",
    "InternalCheckError",
    "LemmaCheck",
    "NestedSequence",
    "NotDiamondFreeError",
    "PatternFormatError",
    "PatternPoset",
    "SaturationReport",
    "SearchManifest",
    "SetFamily",
    "StructureReport",
    "Verdict",
    "canonical_key",
    "chain_family",
    "classify_minimum",
    "complement_family",
    "cover_edges",
    "decompose",
    "dual",
    "elements_of",
    "empty_plus_singletons",
    "f_of",
    "family_from_json",
    "family_to_json",
    "find_diamond",
    "find_induced",
    "find_induced_using",
    "full_plus_cosingletons",
    "greedy_saturate",
    "hasse_dot",
    "is_free",
    "is_saturated",
    "make_antichain",
    "make_chain",
    "make_diamond",
    "make_hypercube",
    "make_lambda",
    "make_v",
    "mask_of",
    "maximal_sets",
    "minimal_sets",
    "nested_sequence",
    "parse_family",
    "parse_pattern",
    "pattern_from_spec",
    "q3_construction",
    "q3_probe",
    "sat_star_exact",
    "sat_star_no_extremes",
    "serialize_family",
    "serialize_pattern",
    "upper_bound_catalog",
    "validate",
    "validate_embedding",
    "verify_structure_invariants",
    "w_of",
]
