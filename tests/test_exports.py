"""Every name a module exports through __all__ resolves on that module."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nearfields
from nearfields import epsilon, maps, nvs

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
