"""The package's public names (the exported set, one name per function) and its memos."""

import ast
import contextlib
import importlib
import inspect
import io
import pkgutil
import sys

import pytest

import beckpart
from beckpart import cli, partitions

MODULES = [beckpart] + [importlib.import_module(f"beckpart.{m.name}")
                        for m in pkgutil.iter_modules(beckpart.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_function_is_bound_only_under_its_own_name(module):
    # a tracer that wraps functions from the outside names each wrapper after
    # a module attribute it is bound to, so a second name would rename its spans
    for attr, obj in vars(module).items():
        if (not attr.startswith("_")
                and (getattr(obj, "__module__", None) or "").startswith("beckpart")
                and (inspect.isfunction(obj) or hasattr(obj, "cache_clear"))):
            assert attr == obj.__name__, f"{module.__name__}.{attr} is {obj.__name__}"


def test_exported_names():
    assert sorted(beckpart.__all__) == [
        "BijectionError", "Composition", "ConstructionError", "DecoratedPartition", "Family",
        "MARK", "OVERLINE", "PairSet", "Partition", "RectanglePair", "StatReport",
        "TruncatedSeries", "XiTrace", "beck_b", "beck_b_prime", "bijections", "clear_caches",
        "count", "enumerate_family", "eta_quotient", "excess_Ert", "excess_Ert_flat",
        "families", "gf", "is_member", "lambert_sum", "modular_diagram",
        "modular_diagram_rows", "parse_partition", "partitions", "phi_forward", "phi_inverse",
        "psi1_forward", "psi1_inverse", "psi2_forward", "psi2_inverse", "psi_d_forward",
        "psi_d_inverse", "psi_o_forward", "psi_o_inverse", "psi_t_forward", "psi_t_inverse",
        "qseries", "rectangle", "stat_report", "stats", "total_repeated_values",
        "total_residue_parts", "xi_forward", "xi_inverse", "zeta_forward", "zeta_inverse",
    ]


def imports(name):
    # The beckpart submodules that beckpart.<name> imports, directly or
    # through another submodule, read by an ast scan of their sources.
    # Relative and absolute imports are both read.
    submodules = {m.name for m in pkgutil.iter_modules(beckpart.__path__)}
    seen, todo = set(), [name]
    while todo:
        source = inspect.getsource(importlib.import_module(f"beckpart.{todo.pop()}"))
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ("beckpart" if node.level else "", node.module)))
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            for full in names:
                part = full.split(".")
                if part[0] == "beckpart" and part[1:2] and part[1] in submodules - seen:
                    seen.add(part[1])
                    todo.append(part[1])
    return seen


def test_the_two_routes_import_nothing_of_each_other():
    # counting (families, stats) and the series (qseries) are independent
    # routes to the same numbers, so neither may read the other
    assert "qseries" not in imports("families") | imports("stats")
    assert not {"families", "stats"} & imports("qseries")
    # the scan sees the imports there are, and follows them
    assert imports("stats") == {"families", "partitions"}
    assert {"bijections", "families", "qseries", "stats"} <= imports("cli")


def memos():
    # every holder with a cache_clear in the loaded beckpart modules and
    # their classes, as a harness that clears them all finds it
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "beckpart" or name.startswith("beckpart."):
            for obj in vars(module).values():
                members = [obj]
                if inspect.isclass(obj) and obj.__module__ == name:
                    members = [getattr(m, "__func__", m) for m in vars(obj).values()]
                found.update((id(m), m) for m in members
                             if callable(getattr(m, "cache_clear", None)))
    return list(found.values())


def held(memo):
    # the entries a memo holds: a functools cache reports its own size
    return len(memo) if isinstance(memo, dict) else memo.cache_info().currsize


def test_clear_caches_empties_every_memo_of_the_package():
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in ("enumerate --family Ostar --r 3 --t 1 --n 9",
                     "count --family Fbar --r 3 --t 1 --n 9",
                     "series --gf O_r --r 3 --degree 9"):
            assert cli.main(argv.split()) == 0
    found = memos()
    assert any(m is partitions._TEXTS for m in found)
    assert all(map(held, found))
    beckpart.clear_caches()
    assert [held(m) for m in found] == [0] * len(found)
