import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import posetsat
from posetsat.detect import DIAMOND
from posetsat.families import SetFamily, subset_table

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


def test_every_public_name_is_its_home_modules_object():
    for name in posetsat.__all__:
        value = getattr(posetsat, name)
        assert value is getattr(sys.modules[value.__module__], name), name


def test_dir_lists_every_public_name():
    assert set(posetsat.__all__) <= set(dir(posetsat))
    assert {"structure", "search", "canonical", "hasse"} <= set(dir(posetsat))


def test_an_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'posetsat' has no attribute 'sat_star'$"):
        getattr(posetsat, "sat_star")
    assert not hasattr(posetsat, "sat_star")


@pytest.mark.parametrize("name", ["canonical", "hasse", "search", "structure"])
def test_a_deferred_module_is_the_one_in_sys_modules(name):
    assert getattr(posetsat, name) is sys.modules[f"posetsat.{name}"]


def test_every_bench_layer_resolves_after_importing_the_cli():
    # in a fresh interpreter, the deferred modules are in sys.modules
    # before anything reads them, as a tracer that wraps them needs
    bench = Path(__file__).parents[1] / "bench"
    script = (
        "import sys\n"
        "import posetsat.cli\n"
        "import layers\n"
        "for t in layers.targets():\n"
        "    assert callable(getattr(sys.modules[t.module], t.func)), t.qualname\n"
        "print(len(layers.targets()))\n"
    )
    path = os.pathsep.join([str(Path(posetsat.__file__).parents[1]), str(bench)])
    proc = subprocess.run(
        [sys.executable, "-c", script], stdin=subprocess.DEVNULL, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True,
    )
    assert int(proc.stdout) > 0


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


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: posetsat.validate_embedding(posetsat.Embedding(SetFamily(2, (0, 1, 2, 3)), DIAMOND, (0, 1, 2))),
            "mapping length differs from pattern size",
        ),
        (lambda: posetsat.canonical_key(SetFamily(9)), "canonical forms need n <= 8, got 9"),
        (lambda: subset_table(25, []), "lookup table needs n <= 24, got 25"),
        (
            lambda: posetsat.is_saturated(SetFamily(2, (0,)), DIAMOND, mode="partial"),
            "mode must be 'full' or 'spot', got 'partial'",
        ),
        (lambda: posetsat.greedy_saturate(SetFamily(25), DIAMOND), "greedy completion needs n <= 24, got 25"),
        (lambda: posetsat.decompose(SetFamily(25)), "decomposition needs n <= 24, got 25"),
        (lambda: posetsat.sat_star_exact(7, DIAMOND), "exhaustive search needs 1 <= n <= 6, got 7"),
        (lambda: posetsat.classify_minimum(6, DIAMOND), "classification needs 1 <= n <= 5, got 6"),
        (lambda: posetsat.sat_star_no_extremes(6, DIAMOND), "restricted search needs 1 <= n <= 5, got 6"),
        (lambda: posetsat.q3_probe(3), "probe needs 4 <= n <= 6, got 3"),
    ],
    ids=[
        "validate_embedding", "canonical_key", "subset_table", "is_saturated", "greedy_saturate",
        "decompose", "sat_star_exact", "classify_minimum", "sat_star_no_extremes", "q3_probe",
    ],
)
def test_range_and_validation_errors_keep_their_messages(call, message):
    # validate_embedding returns its fault; every other call raises it
    try:
        fault = call()
    except ValueError as exc:
        fault = str(exc)
    assert fault == message
