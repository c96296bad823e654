import ast
import types
from pathlib import Path

import posetsat

# The public names of the package.  Adding or removing one is an API
# change: update this list in the same change.
PUBLIC = [
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


def test_public_names_are_pinned():
    assert sorted(posetsat.__all__) == PUBLIC


def test_every_public_name_is_exported_and_no_module_is():
    assert all(hasattr(posetsat, name) for name in posetsat.__all__)
    assert not any(isinstance(getattr(posetsat, name), types.ModuleType) for name in posetsat.__all__)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``__future__`` exempt)."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    # the package's modules and the test modules; __init__.py imports
    # names to re-export them
    package, tests = Path(posetsat.__file__).parent, Path(__file__).parent
    paths = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    unused = {
        f"{path.parent.name}/{path.name}": names
        for path in paths + sorted(tests.glob("*.py"))
        if (names := _unused_imports(path.read_text()))
    }
    assert unused == {}
    assert _unused_imports("import itertools\nfrom a import b as c, d\nd()\n") == ["c", "itertools"]
