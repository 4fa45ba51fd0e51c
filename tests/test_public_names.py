"""The package's public names: each module declares its own in ``__all__``
and the package re-exports them."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import irtimpute

PUBLIC_NAMES = {
    "Binary2PL", "CategoricalDataset", "CategoryScore", "CodeOutOfRange",
    "ColumnSchema", "DataError", "DegenerateColumn", "DiscretizationMap",
    "EStepResult", "EmptyCategory", "FitConfig", "FittedModel", "GradedItem",
    "ImputationReport", "ImputedDataset", "InsufficientData",
    "IrtImputeError", "ItemModel", "LittleTestResult", "MISSING",
    "NewtonDiverged", "NominalItem", "NumericalFailure", "PatternScore",
    "QuadratureGrid", "SingularCovariance", "ThetaEstimate", "UnknownLabel",
    "UnobservedCategory", "UsageError", "apply_discretization",
    "build_grid", "category_probs", "diagnostics_report", "discretize",
    "discretize_dataset", "e_step", "eap_score", "eap_scores", "emit_csv",
    "fit", "fit_many", "format_schema", "impute_dataset", "inject_mar",
    "inject_mcar", "littles_test", "load_csv", "load_model", "load_schema",
    "log_category_probs", "m_step_item", "parse_schema", "pattern_loglik",
    "pattern_score", "prob_2pl", "report_text", "save_model", "score",
    "score_cells", "simulate_dataset", "simulate_items",
    "simulate_responses",
}

MODULES = ("data", "errors", "estimation", "impute", "metrics",
           "missingness", "models", "simulate")


def test_package_exports_exactly_the_public_names():
    exported = {name for name, value in vars(irtimpute).items()
                if not name.startswith("_")
                and not isinstance(value, ModuleType)}
    assert exported == PUBLIC_NAMES
    assert sorted(irtimpute.__all__) == sorted(PUBLIC_NAMES)


def test_each_name_comes_from_one_module_all():
    homes = {}
    for module_name in MODULES:
        module = importlib.import_module(f"irtimpute.{module_name}")
        for name in module.__all__:
            assert name not in homes, (name, homes.get(name), module_name)
            homes[name] = module_name
            assert getattr(irtimpute, name) is getattr(module, name)
    assert set(homes) == PUBLIC_NAMES


def test_benchmark_probes_import_public_names():
    probes = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"
    tree = ast.parse(probes.read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "irtimpute" for alias in node.names}
    # the probes call the package as ``lib``
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "lib"}
    names.discard("cli")   # a module, imported as one
    assert {"e_step", "m_step_item", "build_grid"} <= names
    assert names <= PUBLIC_NAMES
