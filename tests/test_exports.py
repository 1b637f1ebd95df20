"""Public names: every export resolves, and removed names stay removed."""

import importlib
import pkgutil

import pytest

import fibkit

MODULES = [fibkit] + [importlib.import_module(f"fibkit.{info.name}")
                      for info in pkgutil.iter_modules(fibkit.__path__)
                      if info.name != "__main__"]

REMOVED = ("SeedPoly", "GoldenRat", "LaurentPoly3", "pretty_print", "lucas_naive",
           "OracleConfig", "index_range", "compile_side", "_gen_code", "check_recurrence",
           "case_split_value", "decompose", "SeqTable", "process_pool", "_coefficient",
           "_merge", "_build_tables", "_BASIS", "Token", "end_col", "height",
           "is_index_expr", "_require_index", "_constant_size", "index_window",
           "merge_windows", "point_intervals", "expr_interval", "_degree", "_is_g", "_shifted",
           "_reads_only_shifted", "_reads_l", "ranges", "_tables")


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exports_resolve_and_removed_names_are_gone(module):
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name}"
    for name in REMOVED:
        assert not hasattr(module, name), f"{module.__name__} still has {name}"
