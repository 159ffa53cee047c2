"""The package's public names: the exported set, and one name per function."""

import importlib
import inspect
import pkgutil

import pytest

import beckpart

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
