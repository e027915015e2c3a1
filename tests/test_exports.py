"""Every name a module exports through __all__ resolves on that module, and
the package root exports exactly its library modules' __all__."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nearfields
from nearfields import epsilon, errors, finite, induced, maps, nvs, quadratic, rationals, report, rho

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(nearfields.__path__) if m.name != "__main__"
)


def test_submodules_are_found():
    assert {"cli", "epsilon", "finite", "induced", "maps", "nvs", "rho"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", ["nearfields"] + [f"nearfields.{m}" for m in SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


# The library modules whose public names the package root re-exports, in
# the order of nearfields.__all__.
REEXPORTED = [errors, report, rationals, quadratic, maps, epsilon, induced, rho, finite, nvs]

# The names the package root exported when it still listed them one by one,
# each under the module it imported the name from.
ROOT_NAMES_BEFORE = {
    errors: ["DomainError", "IntegrityError", "ResourceLimitError"],
    report: ["Check", "Report"],
    rationals: ["Rat", "SignedFactorization", "factor_int", "factor_rat", "is_prime", "primes_upto"],
    quadratic: ["KFactorization", "QuadInt", "QuadRat", "factor_quad", "is_canonical_prime",
                "primes_above", "rebuild_quad"],
    maps: ["DEFAULT_CORRESPONDENCE_CEILING", "EndoBijectionSpecQ", "PrimeCorrespondence",
           "default_correspondence", "endo_q_apply", "sigma_apply", "sigma_invert"],
    epsilon: ["epsilon_inverse_param", "eval_epsilon"],
    induced: ["DEFAULT_SUM_NORM_CEILING", "StructureOps", "check_ringisom", "exotic_add_q",
              "find_add_witness", "verify_exotic_field_axioms"],
    rho: ["Carrier", "CharMapResult", "RhoMap", "add_from_rho", "char_map", "field_carrier",
          "rational_carrier", "rho_from_add", "verify_rho_axioms"],
    finite: ["AdditionTable", "EnumerationResult", "FiniteField", "addition_from_exponent",
             "check_isomorphic_additions", "enumerate_additions", "make_field", "modnear_ring_check",
             "native_addition", "verify_addition_table"],
    nvs: ["ElementaryNVS", "QmcResult", "QuasiMultSpec", "build_elementary", "check_elementary_box1",
          "check_qmc_equivalence", "qm_compose", "qm_invert", "verify_nvs_axioms"],
}


def test_root_all_is_the_modules_all_in_order():
    expected = ["__version__", *(name for module in REEXPORTED for name in module.__all__)]
    assert nearfields.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_root_keeps_every_earlier_name_as_the_same_object():
    before = {name for names in ROOT_NAMES_BEFORE.values() for name in names}
    assert len(before) == 61  # and __version__
    for home, names in ROOT_NAMES_BEFORE.items():
        for name in names:
            assert getattr(nearfields, name) is getattr(home, name), name
    new = set(nearfields.__all__) - before - {"__version__"}
    assert new == {"Splitting", "check_norm_ceiling", "SUPPORTED_FIELDS", "transport",
                   "is_permutation", "is_mult_bijection"}


def test_root_lists_no_public_name_itself():
    # __init__.py imports the modules and their *, and past its docstring
    # its only string literals are __version__'s value and name.
    tree = ast.parse(Path(nearfields.__file__).read_text())
    imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported.count("*") == len(REEXPORTED)
    assert set(imported) - {"*"} == {module.__name__.rpartition(".")[2] for module in REEXPORTED}
    strings = [node.value for node in ast.walk(ast.Module(tree.body[1:], [])) if isinstance(node, ast.Constant)]
    assert sorted(strings) == ["0.1.0", "__version__"]


def test_maps_holds_only_the_q_side():
    # The finite quasi-multiplicative maps live in nvs and the epsilon maps
    # in epsilon. maps keeps one binding, for the benchmark's tracer.
    tree = ast.parse(Path(maps.__file__).read_text())
    modules, from_nvs = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            modules |= {node.module} if node.module else set(names)  # from . import x
            if node.module == "nvs":
                from_nvs += names
    assert not modules & {"cmath", "finite", "report"}
    assert from_nvs == ["check_qmc_equivalence"]
    assert maps.check_qmc_equivalence is nvs.check_qmc_equivalence


def test_no_module_imports_a_test_oracle():
    # sympy and hypothesis check the package in tests; the package itself
    # never calls them at runtime.
    oracles = {"sympy", "hypothesis"}
    for path in sorted(Path(nearfields.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = {node.module.split(".")[0]}
            else:
                continue
            assert not roots & oracles, (path.name, roots & oracles)


def test_no_module_calls_np_ix():
    # Every two-dimensional gather goes through kernels._grid, whose two takes
    # skip building np.ix_'s index grid.
    for path in sorted(Path(nearfields.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr != "ix_", (path.name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                assert "ix_" not in {alias.name for alias in node.names}, (path.name, node.lineno)


@pytest.mark.parametrize(
    "home, name",
    [
        (nvs, "QmcResult"),
        (nvs, "check_qmc_equivalence"),
        (nvs, "QuasiMultSpec"),
        (nvs, "qm_compose"),
        (nvs, "qm_invert"),
        (epsilon, "eval_epsilon"),
        (epsilon, "epsilon_inverse_param"),
    ],
)
def test_moved_names_resolve_to_their_new_home(home, name):
    assert getattr(nearfields, name) is getattr(home, name)
    assert name in home.__all__ and name not in maps.__all__
