"""fibkit: exact Fibonacci/Lucas/generalized-Fibonacci identities toolkit.

Compute F, L, and seeded G at any integer index, evaluate identities from
a small expression language, verify them exactly over parameter grids,
and prove them symbolically for all integer parameters at fixed rank.

`import fibkit` loads no submodule: each public name is imported from its
module on first use (PEP 562), so a command loads only the modules it
runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it, in the order of __all__.
_HOMES = {
    "Catalog": "catalog", "Identity": "catalog", "builtin_catalog": "catalog",
    "format_catalog": "catalog", "load_catalog_file": "catalog",
    "parse_catalog": "catalog", "parse_identity": "catalog",
    "section3_source": "catalog",
    "FibkitError": "errors", "ParseError": "errors", "UnboundSymbolError": "errors",
    "CatalogError": "errors", "EvalError": "errors", "GridError": "errors",
    "SymbolicError": "errors", "InternalFault": "errors",
    "to_text": "expr", "parse_expr": "parser",
    "OracleTables": "oracle", "oracle_eval": "oracle",
    "Seed": "seq", "FIB_SEED": "seq", "LUCAS_SEED": "seq",
    "fib": "seq", "lucas": "seq", "gen": "seq", "fib_naive": "seq",
    "fib_pair_doubling": "seq", "table": "seq",
    "prove_symbolic": "symbolic",
    "STANDARD_SEEDS": "verify", "Failure": "report", "GridSpec": "verify",
    "ParamPoint": "verify", "VerifyReport": "report",
    "eval_side": "verify", "verify_grid": "verify",
    "GoldenInt": "zphi", "LaurentPoly": "zphi", "binet_fib": "zphi",
    "binet_lucas": "zphi", "phi_pow": "zphi",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str) -> object:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
