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


def _trees() -> list[tuple[str, ast.Module]]:
    """(module, syntax tree) of each of the package's modules."""
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted(Path(nearfields.__file__).parent.glob("*.py"))]


def _uses_of(name: str, *, outside: tuple[str, ...] = ()) -> list[tuple[str, int, ast.AST]]:
    """(module, line, node) of every attribute or from-import named name in
    the package's modules, outside the bodies of the functions named in
    outside. Where the attribute is called, node is the call."""
    uses = []
    for module, tree in _trees():
        skipped = {id(node) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name in outside
                   for node in ast.walk(f)}
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if id(node) not in skipped and (
                    isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.ImportFrom) and name in {alias.name for alias in node.names}):
                uses.append((module, node.lineno, calls.get(id(node), node)))
    return uses


def test_no_module_calls_np_ix():
    # Every two-dimensional gather goes through kernels._grid, whose two takes
    # skip building np.ix_'s index grid.
    assert _uses_of("ix_") == []


def test_no_module_calls_np_isin():
    # Membership is read off a mask by one gather, as verify_nvs_axioms reads
    # its orbits, never tested one element or one vector at a time.
    assert _uses_of("isin") == []


def _tests_a_witness(verdict: ast.AST) -> bool:
    """Whether verdict holds an `X is None` compare or a `not in` test."""
    return any(
        isinstance(op, ast.NotIn) or isinstance(op, ast.Is) and ast.unparse(right) == "None"
        for node in ast.walk(verdict) if isinstance(node, ast.Compare)
        for op, right in zip(node.ops, node.comparators)
    )


def test_no_verdict_is_read_off_a_witness_by_hand():
    # A check with a witness fails exactly on it through Report.holds. Only
    # add_sampled, whose verdict adds the skip rule, tests the witness itself.
    by_hand = []
    for module, line, node in _uses_of("add", outside=("holds", "add_sampled")):
        if isinstance(node, ast.Call):
            verdicts = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ok"]
            by_hand += [(module, line) for v in verdicts if _tests_a_witness(v)]
    assert by_hand == []
    # Nor is a one-axis first failure unpacked from a tuple: _first_false
    # gives an int there.
    unpacked = [
        (module, node.lineno) for module, tree in _trees() for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.BoolOp)
        and ast.unparse(node.value.values[-1]) == "(None,)"
    ]
    assert unpacked == []


@pytest.mark.parametrize("record", [rationals.SignedFactorization, quadratic.KFactorization])
def test_each_factorization_is_the_one_record(record):
    # Validation, equality and the repr are written once, in _Factorization.
    assert record.__bases__ == (rationals._Factorization,)
    assert not {"__init__", "__eq__", "__repr__"} & set(vars(record))
    assert record.__hash__ is None


def test_no_other_class_declares_an_exponents_slot():
    # A ring added later keys its factorizations in _Factorization too.
    declares = [
        (module, node.name) for module, tree in _trees() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body if isinstance(item, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets)
        and "exponents" in {c.value for c in ast.walk(item.value) if isinstance(c, ast.Constant)}
    ]
    assert declares == [("rationals.py", "_Factorization")]


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
